import re
import time

import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    DualPoint,
    InputError,
    ProjectionProblem,
    eval_theta,
    nearest_correlation,
    rescale_correlation,
    solve_fixed_metric,
    solve_quasi_newton,
    solve_ssnewton,
)
from conicproj import altschemes, dualproj
from conicproj.cones import _project_ambient, cone_jacobian_apply
from conicproj.dualproj import (
    _kkt_residual,
    _Lbfgs,
    _pcg,
    _wolfe,
    _Workspace,
    correlation_problem,
)
from conicproj.report import (
    CONVERGED,
    ITERATION_LIMIT,
    NUMERICAL_FAILURE,
    SolveReport,
)
from conftest import random_affine, random_cone, random_point, rng


def nearcorr_2x2_oracle():
    """Brute-force the nearest correlation matrix to [[1,2],[2,1]]: over
    X = [[1,r],[r,1]], PSD iff |r| <= 1, distance 2(r-2)^2."""
    rs = np.linspace(-1.0, 1.0, 200001)
    best = rs[np.argmin(2.0 * (rs - 2.0) ** 2)]
    return np.array([[1.0, best], [best, 1.0]])


C_2X2 = np.array([[1.0, 2.0], [2.0, 1.0]])
X_2X2 = np.array([[1.0, 1.0], [1.0, 1.0]])


def random_problem(r, with_ineq=False, max_psd=5, m_max=4):
    cone = random_cone(r, max_psd=max_psd)
    me = int(r.integers(1, m_max))
    eq = random_affine(r, cone, me)
    ineq = None
    if with_ineq:
        mi = int(r.integers(1, 3))
        ineq = random_affine(r, cone, mi)
    return ProjectionProblem(
        c=random_point(r, cone), eq=eq, cone=cone, ineq=ineq
    )


def mixed_problem():
    """Project 0 onto {x in R+^2: x1 + x2 = 2, x1 >= 1.5}: x = (1.5, 0.5)."""
    cone = ConeSpec(nonneg=2)
    eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 1.0]])), [2.0])
    ineq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 0.0]])), [1.5])
    return ProjectionProblem(c=BlockPoint.zeros(cone), eq=eq, cone=cone, ineq=ineq)


class TestEvalTheta:
    def test_correlation_matrix_is_dual_optimal_at_zero(self):
        prob = correlation_problem(np.eye(2))
        ev = eval_theta(prob, DualPoint(np.zeros(2), np.zeros(0)))
        assert ev.theta == 0.0
        assert np.allclose(ev.grad_y, 0.0)
        assert np.allclose(ev.x.blocks[0], np.eye(2))

    def test_hand_evaluated_2x2(self):
        # eigenvalues of C are 3 and -1; x(0) keeps the eigenvalue 3
        prob = correlation_problem(C_2X2)
        ev = eval_theta(prob, DualPoint(np.zeros(2), np.zeros(0)))
        assert np.allclose(ev.x.blocks[0], [[1.5, 1.5], [1.5, 1.5]])
        assert np.isclose(ev.theta, 0.5)
        assert np.allclose(ev.grad_y, [-0.5, -0.5])

    def test_gradient_matches_finite_differences(self):
        r = rng(21)
        for trial in range(12):
            prob = random_problem(r, with_ineq=(trial % 3 == 0))
            me, mi = prob.m_eq, prob.m_ineq
            y = r.standard_normal(me)
            z = np.abs(r.standard_normal(mi)) if mi else np.zeros(0)
            ev = eval_theta(prob, DualPoint(y, z))
            eps = 1e-6
            for i in range(me):
                dy = np.zeros(me)
                dy[i] = eps
                tp = eval_theta(prob, DualPoint(y + dy, z)).theta
                tm = eval_theta(prob, DualPoint(y - dy, z)).theta
                fd = (tp - tm) / (2 * eps)
                assert abs(fd - ev.grad_y[i]) <= 1e-6 * (1.0 + abs(fd))
            for i in range(mi):
                dz = np.zeros(mi)
                dz[i] = eps
                tp = eval_theta(prob, DualPoint(y, z + dz)).theta
                tm = eval_theta(prob, DualPoint(y, z - dz)).theta
                fd = (tp - tm) / (2 * eps)
                assert abs(fd - ev.grad_z[i]) <= 1e-6 * (1.0 + abs(fd))

    def test_primal_candidate_in_cone_and_grad_identity(self):
        r = rng(22)
        prob = random_problem(r)
        y = r.standard_normal(prob.m_eq)
        ev = eval_theta(prob, DualPoint(y, np.zeros(0)))
        proj = cp.project_cone(prob.cone, ev.x)
        assert (proj - ev.x).norm() <= 1e-10 * (1 + ev.x.norm())
        assert np.allclose(ev.grad_y, prob.eq.rhs - prob.eq.apply(ev.x))

    def test_concavity(self):
        r = rng(23)
        for _ in range(8):
            prob = random_problem(r)
            me = prob.m_eq
            a, b = r.standard_normal(me), r.standard_normal(me)
            ta = eval_theta(prob, DualPoint(a, np.zeros(0))).theta
            tb = eval_theta(prob, DualPoint(b, np.zeros(0))).theta
            for t in (0.2, 0.5, 0.8):
                mid = eval_theta(
                    prob, DualPoint(t * a + (1 - t) * b, np.zeros(0))
                ).theta
                assert mid >= t * ta + (1 - t) * tb - 1e-10

    def test_gradient_lipschitz_bound(self):
        r = rng(24)
        for _ in range(8):
            prob = random_problem(r)
            sig = np.linalg.norm(
                np.asarray(prob.eq.matrix.todense()), ord=2
            )
            me = prob.m_eq
            a, b = r.standard_normal(me), r.standard_normal(me)
            ga = eval_theta(prob, DualPoint(a, np.zeros(0))).grad_y
            gb = eval_theta(prob, DualPoint(b, np.zeros(0))).grad_y
            assert np.linalg.norm(ga - gb) <= (sig**2 + 1e-8) * np.linalg.norm(
                a - b
            )

    def test_shape_and_finiteness_errors(self):
        prob = correlation_problem(np.eye(2))
        with pytest.raises(InputError):
            eval_theta(prob, DualPoint(np.zeros(3), np.zeros(0)))
        with pytest.raises(InputError):
            eval_theta(prob, DualPoint(np.array([np.nan, 0.0]), np.zeros(0)))
        # one start rule for every dual vector: a stray z on a problem
        # without inequality rows, a z longer than those rows, an infinite y
        for problem, y, z, message in (
            (prob, np.zeros(2), np.zeros(2), "vector shape (2,) != (0,)"),
            (mixed_problem(), np.zeros(1), np.zeros(2), "vector shape (2,) != (1,)"),
            (prob, [0.0, np.inf], np.zeros(0), "non-finite"),
        ):
            with pytest.raises(InputError, match=re.escape(message)):
                eval_theta(problem, DualPoint(y, z))

    def test_stacked_rows_match_the_two_map_formula(self):
        r = rng(25)
        for _ in range(6):
            prob = random_problem(r, with_ineq=True)
            eq, ineq = prob.eq, prob.ineq
            y = r.standard_normal(prob.m_eq)
            z = np.abs(r.standard_normal(prob.m_ineq))
            at = _Workspace(prob).eval(np.concatenate([y, z]))
            c = prob.c.ravel()
            x, _ = _project_ambient(
                prob.cone, c + eq.adjoint_vec(y) + ineq.adjoint_vec(z)
            )
            theta = eq.rhs @ y + ineq.rhs @ z + (c @ c - x @ x) / 2.0
            gy, gz = eq.rhs - eq.apply_vec(x), ineq.rhs - ineq.apply_vec(x)
            scale = 1.0 + abs(theta)
            assert abs(at.theta - theta) <= 1e-12 * scale
            assert np.max(np.abs(at.x - x)) <= 1e-12 * scale
            assert np.max(np.abs(at.grad - np.concatenate([gy, gz]))) <= 1e-12 * scale
            assert abs(at.residual - _kkt_residual(gy, gz, z)) <= 1e-12 * scale

    def test_equality_rows_are_the_problem_map(self):
        prob = correlation_problem(C_2X2)
        assert _Workspace(prob).rows is prob.eq
        rows = _Workspace(mixed_problem()).rows
        assert rows.matrix.toarray().tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert rows.rhs.tolist() == [2.0, 1.5]


class TestDualPoint:
    @pytest.mark.parametrize("z", [[-1.0], [np.nan], [0.0, np.nan]])
    def test_negative_or_nan_multiplier_refused(self, z):
        with pytest.raises(InputError, match="must be nonnegative"):
            DualPoint(np.zeros(1), np.array(z))


class TestSolvers:
    @pytest.mark.parametrize(
        "solver", [solve_fixed_metric, solve_quasi_newton, solve_ssnewton]
    )
    def test_nearcorr_2x2_exact(self, solver):
        oracle = nearcorr_2x2_oracle()
        assert np.allclose(oracle, X_2X2, atol=1e-4)
        prob = correlation_problem(C_2X2)
        x, d, rep = solver(prob, tol=1e-12)
        assert rep.converged()
        assert np.allclose(x.blocks[0], X_2X2, atol=1e-9)

    def test_correlation_input_converges_at_iteration_zero(self):
        c = np.array([[1.0, 0.3], [0.3, 1.0]])
        for solver in (solve_fixed_metric, solve_quasi_newton, solve_ssnewton):
            x, d, rep = solver(correlation_problem(c), tol=1e-10)
            assert rep.converged() and rep.iterations == 0
            assert np.allclose(x.blocks[0], c)

    def test_stopping_is_primal_residual(self):
        r = rng(26)
        c = r.standard_normal((8, 8))
        prob = correlation_problem((c + c.T) / 2.0)
        for solver in (solve_fixed_metric, solve_quasi_newton, solve_ssnewton):
            x, d, rep = solver(prob, tol=1e-9)
            assert rep.converged()
            # primal recovery: x = P_K(c + A'y), residual = ||Ax - b||
            res = np.linalg.norm(prob.eq.apply(x) - prob.eq.rhs)
            assert res <= 1e-9 + 1e-15
            assert np.isclose(rep.primal_residual, res, rtol=1e-6, atol=1e-14)

    def test_solver_agreement_on_random_instances(self):
        r = rng(27)
        for _ in range(5):
            n = int(r.integers(2, 9))
            g = r.standard_normal((n, n))
            prob = correlation_problem((g + g.T) / 2.0 + np.eye(n))
            xs = []
            for solver in (
                solve_fixed_metric,
                solve_quasi_newton,
                solve_ssnewton,
            ):
                x, _, rep = solver(prob, tol=1e-10, max_iter=20000)
                assert rep.converged()
                xs.append(np.array(x.blocks[0]))
            assert np.linalg.norm(xs[0] - xs[1]) <= 1e-6
            assert np.linalg.norm(xs[0] - xs[2]) <= 1e-6

    def test_quasi_newton_handles_inequalities(self):
        # project c = 3 onto {x >= 0} cap {x <= 1}; the upper bound enters
        # as the >= row -x >= -1.  Answer 1 with multiplier 2.
        cone = ConeSpec(nonneg=1)
        eq = AffineMap(cone, sp.csr_matrix((0, 1)), np.zeros(0))
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[-1.0]])), [-1.0])
        prob = ProjectionProblem(
            c=BlockPoint(cone, [np.array([3.0])]), eq=eq, cone=cone, ineq=ineq
        )
        x, d, rep = solve_quasi_newton(prob, tol=1e-10)
        assert rep.converged()
        assert np.allclose(x.blocks[0], [1.0], atol=1e-8)
        assert np.isclose(d.z[0], 2.0, atol=1e-6)

    @pytest.mark.parametrize(
        "solve",
        [
            solve_fixed_metric,
            solve_quasi_newton,
            solve_ssnewton,
            altschemes.dykstra,
            altschemes.admm_projection,
            altschemes.alternating_projections,
        ],
        ids=lambda solve: solve.__name__,
    )
    def test_tolerance_must_be_nonnegative(self, solve):
        g = rng(26).standard_normal((6, 6))
        prob = correlation_problem(g + g.T)
        if solve.__module__ == altschemes.__name__:
            prob = altschemes.TwoSetProblem.from_projection(prob)
        for tol in (np.nan, -1.0):
            with pytest.raises(InputError, match="^tol must be nonnegative"):
                solve(prob, tol=tol, max_iter=50)
        # tol = 0 runs to the cap
        rep = solve(prob, tol=0.0, max_iter=3)[-1]
        assert rep.iterations == 3

    def test_quasi_newton_mixed_constraints(self):
        # project onto {x: x1 + x2 = 2, x1 >= 1.5, x in R+^2} from (0, 0):
        # equality projection alone gives (1,1); the active bound pushes to
        # (1.5, 0.5)
        cone = ConeSpec(nonneg=2)
        eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 1.0]])), [2.0])
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 0.0]])), [1.5])
        prob = ProjectionProblem(
            c=BlockPoint.zeros(cone), eq=eq, cone=cone, ineq=ineq
        )
        x, d, rep = solve_quasi_newton(prob, tol=1e-10, max_iter=2000)
        assert rep.converged()
        assert np.allclose(x.blocks[0], [1.5, 0.5], atol=1e-7)

    def test_fixed_metric_rejects_inequalities(self):
        cone = ConeSpec(nonneg=2)
        eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 0.0]])), [1.0])
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[0.0, 1.0]])), [1.0])
        prob = ProjectionProblem(
            c=BlockPoint.zeros(cone), eq=eq, cone=cone, ineq=ineq
        )
        with pytest.raises(InputError):
            solve_fixed_metric(prob)
        with pytest.raises(InputError):
            solve_ssnewton(prob)

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
    @pytest.mark.parametrize(
        "solve", [solve_fixed_metric, solve_quasi_newton, solve_ssnewton],
        ids=["solve_fixed_metric", "solve_quasi_newton", "solve_ssnewton"],
    )
    def test_start_vector_of_the_wrong_shape_refused(self, solve, shape):
        # one message from every engine, and no broadcasting of (1, 3)
        prob = correlation_problem(np.eye(3))
        with pytest.raises(InputError, match=re.escape(f"{shape} != (3,)")):
            solve(prob, y0=np.zeros(shape))

    def test_quasi_newton_start_vector_with_inequality_rows(self):
        # y0 is the y part of the start alone and z starts at zero: one
        # evaluation at y = 0.5 gives x = P_K(0.5 (1, 1))
        cone = ConeSpec(nonneg=2)
        eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 1.0]])), [2.0])
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 0.0]])), [1.5])
        prob = ProjectionProblem(
            c=BlockPoint.zeros(cone), eq=eq, cone=cone, ineq=ineq
        )
        for y0 in ([0.5, 0.0], np.zeros((1, 1))):
            with pytest.raises(InputError, match=r"vector shape \(.*\) != \(1,\)"):
                solve_quasi_newton(prob, y0=y0)
        x, d, rep = solve_quasi_newton(prob, max_iter=0, y0=[0.5])
        assert np.array_equal(x.blocks[0], [0.5, 0.5])
        assert (d.y.tolist(), d.z.tolist()) == ([0.5], [0.0])
        x, d, rep = solve_quasi_newton(prob, tol=1e-10, max_iter=2000, y0=[0.5])
        assert rep.converged()
        assert np.allclose(x.blocks[0], [1.5, 0.5], atol=1e-7)
        assert d.z.shape == (1,) and d.z[0] > 0.0

    @pytest.mark.parametrize(
        "solve", [solve_fixed_metric, solve_quasi_newton, solve_ssnewton],
        ids=["solve_fixed_metric", "solve_quasi_newton", "solve_ssnewton"],
    )
    def test_fixed_metric_iteration_cap(self, solve, monkeypatch):
        prob = correlation_problem(C_2X2)
        with pytest.raises(
            InputError, match="^max_iter must be nonnegative, got -1$"
        ):
            solve(prob, max_iter=-1)
        with pytest.raises(InputError, match="^max_iter: .*integers, got 2.5$"):
            solve(prob, max_iter=2.5)
        # max_iter = 0 is one evaluation at y = 0: x = P_K(c)
        calls = []
        evaluate = dualproj._Workspace.eval

        def counted(ws, *args, **kwargs):
            calls.append(1)
            return evaluate(ws, *args, **kwargs)

        monkeypatch.setattr(dualproj._Workspace, "eval", counted)
        x, _, rep = solve(prob, max_iter=0)
        assert rep.status == "iteration_limit" and rep.iterations == 0
        assert len(calls) == 1
        assert np.array_equal(x.ravel(), cp.project_psd(C_2X2)[0].ravel())
        if solve is solve_fixed_metric:
            _, _, rep = solve(prob, max_iter=0, record_iterates=True)
            assert len(rep.iterate_history) == 1

    def test_iterates_match_dykstra(self):
        r = rng(28)
        for _ in range(3):
            n = int(r.integers(3, 11))
            g = r.standard_normal((n, n))
            prob = correlation_problem((g + g.T) / 2.0)
            x1, _, rep1 = solve_fixed_metric(
                prob, tol=0.0, max_iter=50, record_iterates=True
            )
            two = cp.TwoSetProblem.from_projection(prob)
            x2, rep2 = cp.dykstra(two, tol=0.0, max_iter=51, record_iterates=True)
            for a, b in zip(rep1.iterate_history[:50], rep2.iterate_history):
                assert (a - b).norm() <= 1e-10

    def test_ssnewton_hessian_product_matches_gradient_differences(self):
        r = rng(29)
        checked = 0
        while checked < 6:
            n = int(r.integers(3, 9))
            g = r.standard_normal((n, n))
            c = (g + g.T) / 2.0
            prob = correlation_problem(c)
            y = 0.1 * r.standard_normal(n)
            w = c + np.diag(y)
            lam = np.linalg.eigvalsh(w)
            if np.min(np.abs(lam)) < 1e-2:
                continue
            _, dec = cp.project_psd(w)
            d = r.standard_normal(n)
            hd = np.diag(cp.psd_jacobian_apply(dec, np.diag(d)))
            eps = 1e-7
            g1 = eval_theta(prob, DualPoint(y + eps * d, np.zeros(0))).grad_y
            g0 = eval_theta(prob, DualPoint(y, np.zeros(0))).grad_y
            fd = (g1 - g0) / eps
            # H = A dP A' is the negated curvature of the concave theta
            assert np.linalg.norm(hd + fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))
            checked += 1

    def test_ssnewton_converges_on_midsize_nearcorr(self):
        r = rng(30)
        n = 30
        g = r.uniform(-1, 1, (n, n))
        c = (g + g.T) / 2.0
        np.fill_diagonal(c, 1.0)
        x, d, rep = solve_ssnewton(correlation_problem(c), tol=1e-7 * n)
        assert rep.converged()
        assert rep.iterations <= 30
        lam = np.linalg.eigvalsh(x.blocks[0])
        assert lam[0] >= -1e-9

    def test_ssnewton_on_mixed_cone_matches_quasi_newton(self):
        # the Newton Jacobian must handle second-order-cone and orthant
        # blocks (including a one-dimensional SOC) next to a PSD block
        r = rng(31)
        cone = ConeSpec(psd_dims=(4,), soc_dims=(3, 1), nonneg=3)
        prob = ProjectionProblem(
            c=random_point(r, cone), eq=random_affine(r, cone, 5), cone=cone
        )
        x_newton, _, rep_newton = solve_ssnewton(prob, tol=1e-10)
        x_qn, _, rep_qn = solve_quasi_newton(prob, tol=1e-10)
        assert rep_newton.converged() and rep_qn.converged()
        assert (x_newton - x_qn).norm() <= 1e-8


# The three engine bodies as they were before they shared ``_ascend``, kept
# verbatim (with the helper they called) as the bit-for-bit reference.


def _check_max_iter(max_iter: int) -> None:
    """Engines take ``max_iter >= 0``; 0 evaluates theta at y0 only."""
    if max_iter < 0:
        raise InputError(f"max_iter must be nonnegative, got {max_iter}")


def _reference_fixed_metric(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 5000,
    y0=None,
    record_iterates: bool = False,
):
    """Gradient ascent on theta in the metric W = [AA^T]^{-1} with unit step.

    Equality constraints only.  The primal iterates x_k = P_K(c + A'y_k)
    coincide iterate for iterate with Dykstra's corrected alternating
    projections.  Stops when ||grad theta|| = ||A x - b|| <= tol or after
    ``max_iter`` steps; ``max_iter = 0`` evaluates theta at y0 only.
    """
    if problem.m_ineq:
        raise InputError("fixed-metric solver handles equality constraints only")
    _check_max_iter(max_iter)
    ws = _Workspace(problem)
    fact = problem.eq.gram
    tol = problem.default_tol() if tol is None else float(tol)
    y = np.zeros(problem.m_eq) if y0 is None else np.array(y0, dtype=float)
    report = SolveReport()
    start = time.perf_counter()
    status = ITERATION_LIMIT
    theta = np.nan
    x = None
    gnorm = np.inf
    for k in range(max_iter + 1):
        theta, _, x, g, _ = ws.eval(y)
        gnorm = float(np.linalg.norm(g))
        if record_iterates:
            report.iterate_history.append(
                BlockPoint.from_vector(problem.cone, x)
            )
        report.iterations = k
        if gnorm <= tol:
            status = CONVERGED
            break
        if k == max_iter:
            break
        y = y + fact.solve(g)
    report.status = status
    report.primal_residual = gnorm
    report.objective = theta
    report.inner_iterations = report.iterations
    report.wall_time = time.perf_counter() - start
    xbp = BlockPoint.from_vector(problem.cone, x)
    return xbp, DualPoint(y, np.zeros(0)), report


def _reference_quasi_newton(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 1000,
    y0=None,
    carry_state: dict | None = None,
):
    """Maximize theta by limited-memory BFGS with a weak Wolfe search.

    Inequality multipliers are kept feasible by clamping z to the orthant
    after each accepted step, starting from z = 0; curvature pairs are
    skipped whenever the clamp activates.  ``carry_state`` lets an outer
    loop retain curvature pairs between restarts.
    """
    _check_max_iter(max_iter)
    ws = _Workspace(problem)
    me, mi = problem.m_eq, problem.m_ineq
    tol = problem.default_tol() if tol is None else float(tol)
    v = np.zeros(me + mi)
    if y0 is not None:
        v[:me] = np.asarray(y0, dtype=float)
    model = _Lbfgs(carry_state.get("pairs") if carry_state else None)

    evals = 0

    def fg(vec):
        nonlocal evals
        evals += 1
        theta, _, x, g, _ = ws.eval(vec)
        gy, gz = g[:me], (g[me:] if mi else None)
        return -theta, -g, (theta, gy, gz, x)

    report = SolveReport()
    start = time.perf_counter()
    f, gf, payload = fg(v)
    status = ITERATION_LIMIT
    for k in range(max_iter + 1):
        theta, gy, gz, x = payload
        crit = _kkt_residual(gy, gz, v[me:] if mi else None)
        report.iterations = k
        if crit <= tol:
            status = CONVERGED
            break
        if k == max_iter:
            break

        d = model.direction(gf)
        slope = float(gf @ d)
        if slope >= 0.0:  # stale curvature; restart from steepest ascent
            model = _Lbfgs()
            d = -gf
            slope = float(gf @ d)

        def phi(alpha, _v=v, _d=d):
            fa, ga, pl = fg(_v + alpha * _d)
            return fa, float(ga @ _d), float(np.linalg.norm(ga)), (fa, ga, pl)

        alpha, data, ok, fallback = _wolfe(
            phi, f, slope, float(np.linalg.norm(gf))
        )
        if not ok:
            status = NUMERICAL_FAILURE
            report.message = "Wolfe line search failed to make progress"
            break
        if fallback:
            model = _Lbfgs()
        f_new, gf_new, payload_new = data
        v_new = v + alpha * d
        clamped = False
        if mi:
            zc = np.maximum(v_new[me:], 0.0)
            clamped = bool(np.any(zc != v_new[me:]))
            if clamped:
                v_new = np.concatenate([v_new[:me], zc])
                f_new, gf_new, payload_new = fg(v_new)
        if not clamped:
            model.push(v_new - v, gf_new - gf)
        v, f, gf, payload = v_new, f_new, gf_new, payload_new

    if carry_state is not None:
        carry_state["pairs"] = model.pairs

    theta, gy, gz, x = payload
    report.status = status
    report.primal_residual = _kkt_residual(gy, gz, v[me:] if mi else None)
    report.objective = theta
    report.inner_iterations = evals
    report.wall_time = time.perf_counter() - start
    xbp = BlockPoint.from_vector(problem.cone, x)
    dp = DualPoint(v[:me], np.maximum(v[me:], 0.0) if mi else np.zeros(0))
    return xbp, dp, report


def _reference_ssnewton(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 200,
    y0=None,
):
    """Semismooth Newton-CG ascent on theta (equality constraints only).

    The generalized Hessian element H = A (dP_K) A^T is accessed only
    through products H d via the cone-projection Jacobian; the Newton system
    H d = grad theta is solved inexactly by CG with forcing sequence
    eta = min(0.1, sqrt(||grad||)), preconditioned by (AA^T)^{-1} from the
    cached factorization: since 0 <= dP_K <= I, H <= AA^T, with equality
    where the projection is the identity, and on assemblies whose AA^T is
    diagonal this scales each row by its Gram entry.  Steps are
    safeguarded by a weak Wolfe search, falling back to a gradient step when
    CG returns a non-ascent direction.
    """
    if problem.m_ineq:
        raise InputError("semismooth Newton handles equality constraints only")
    _check_max_iter(max_iter)
    ws = _Workspace(problem)
    m = problem.m_eq
    tol = problem.default_tol() if tol is None else float(tol)
    y = np.zeros(m) if y0 is None else np.array(y0, dtype=float)

    report = SolveReport()
    start = time.perf_counter()
    evals = 0

    def fg(yv):
        nonlocal evals
        evals += 1
        theta, _, x, g, infos = ws.eval(yv)
        return theta, g, None, x, infos

    status = ITERATION_LIMIT
    theta, g, _, x, infos = fg(y)
    for k in range(max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        report.iterations = k
        if gnorm <= tol:
            status = CONVERGED
            break
        if k == max_iter:
            break

        def apply_h(dvec):
            lifted = ws.eq.adjoint_vec(dvec)
            jac = cone_jacobian_apply(ws.cone, infos, lifted)
            return ws.eq.apply_vec(jac)

        eta = min(0.1, np.sqrt(gnorm))
        d, cg_iters, breakdown = _pcg(
            apply_h, g, eta, 2 * m, ws.eq.gram.solve
        )
        report.inner_iterations += cg_iters
        if breakdown:
            report.gradient_fallbacks += 1
        if float(g @ d) <= 1e-14 * gnorm * max(np.linalg.norm(d), 1e-300):
            d = g
            report.gradient_fallbacks += 1

        def phi(alpha, _y=y, _d=d):
            th, gg, _, xx, inf = fg(_y + alpha * _d)
            return (
                -th,
                float(-gg @ _d),
                float(np.linalg.norm(gg)),
                (th, gg, xx, inf),
            )

        alpha, data, ok, _ = _wolfe(phi, -theta, float(-g @ d), gnorm)
        if not ok:
            status = NUMERICAL_FAILURE
            report.message = "line search failed along the Newton direction"
            break
        theta, g, x, infos = data
        y = y + alpha * d

    report.status = status
    report.primal_residual = float(np.linalg.norm(g))
    report.objective = theta
    report.wall_time = time.perf_counter() - start
    if report.inner_iterations == 0:
        report.inner_iterations = evals  # converged before any CG pass
    xbp = BlockPoint.from_vector(problem.cone, x)
    return xbp, DualPoint(y, np.zeros(0)), report


def _assert_same_solve(got, want):
    (x, d, rep), (x0, d0, rep0) = got, want
    assert np.array_equal(x.ravel(), x0.ravel())
    assert np.array_equal(d.y, d0.y) and np.array_equal(d.z, d0.z)
    for field in (
        "status", "iterations", "inner_iterations", "gradient_fallbacks",
        "primal_residual", "objective",
    ):
        assert getattr(rep, field) == getattr(rep0, field), field
    assert len(rep.iterate_history) == len(rep0.iterate_history)
    for a, b in zip(rep.iterate_history, rep0.iterate_history):
        assert np.array_equal(a.ravel(), b.ravel())


_ENGINES = [
    (solve_fixed_metric, _reference_fixed_metric),
    (solve_quasi_newton, _reference_quasi_newton),
    (solve_ssnewton, _reference_ssnewton),
]
_ENGINE_IDS = ["fixed_metric", "quasi_newton", "ssnewton"]


def _unit_diagonal(n):
    g = rng(n).uniform(-1, 1, (n, n))
    c = (g + g.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


class TestEnginesMatchReference:
    """Every engine gives bit-for-bit the solve of its reference body:
    the same x, y, z, status, counters, residual, objective and history."""

    @pytest.mark.parametrize("tol", [None, 0.0], ids=["default_tol", "floor"])
    @pytest.mark.parametrize("n", [30, 120])
    @pytest.mark.parametrize("engine, reference", _ENGINES, ids=_ENGINE_IDS)
    def test_nearest_correlation(self, engine, reference, n, tol):
        # at tol 0 the Newton-type engines run to the floating-point floor,
        # where the Wolfe search falls back and finally fails
        prob = correlation_problem(_unit_diagonal(n))
        kwargs = {"tol": tol, "max_iter": 100}
        if engine is solve_fixed_metric:
            kwargs["record_iterates"] = True
        _assert_same_solve(engine(prob, **kwargs), reference(prob, **kwargs))

    @pytest.mark.parametrize(
        "c, bound",
        [((0.0, 0.0), 1.5), ((1.0, 4.0), 0.2), ((3.0, 0.0), 1.5)],
        ids=["mixed_constraints", "clamp_then_active", "clamp_to_zero"],
    )
    def test_inequalities(self, c, bound):
        # projection onto {x in R+^2: x1 + x2 = 2, x1 >= bound}: the first
        # case is that of test_quasi_newton_mixed_constraints; in the other
        # two a step takes z below zero and the clamp activates
        cone = ConeSpec(nonneg=2)
        eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 1.0]])), [2.0])
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 0.0]])), [bound])
        prob = ProjectionProblem(
            c=BlockPoint(cone, [np.array(c)]), eq=eq, cone=cone, ineq=ineq
        )
        _assert_same_solve(
            solve_quasi_newton(prob, tol=1e-10, max_iter=2000),
            _reference_quasi_newton(prob, tol=1e-10, max_iter=2000),
        )

    def test_carry_state_across_two_calls(self):
        prob = correlation_problem(_unit_diagonal(30))
        carried, carried0 = {}, {}
        y0 = None
        for _ in range(2):
            got = solve_quasi_newton(prob, max_iter=4, y0=y0, carry_state=carried)
            want = _reference_quasi_newton(
                prob, max_iter=4, y0=y0, carry_state=carried0
            )
            _assert_same_solve(got, want)
            assert len(carried["pairs"]) == len(carried0["pairs"]) > 0
            for pair, pair0 in zip(carried["pairs"], carried0["pairs"]):
                assert all(np.array_equal(a, b) for a, b in zip(pair, pair0))
            y0 = got[1].y

    @pytest.mark.parametrize("engine, reference", _ENGINES, ids=_ENGINE_IDS)
    def test_no_iterations(self, engine, reference):
        prob = correlation_problem(_unit_diagonal(30))
        _assert_same_solve(engine(prob, max_iter=0), reference(prob, max_iter=0))

    @pytest.mark.parametrize(
        "degree, inner, reference, max_inner, status, iterations, fallbacks",
        [
            (4, "quasi_newton", _reference_quasi_newton, 300,
             "numerical_failure", 86, 0),
            (3, "ssnewton", _reference_ssnewton, 50, "iteration_limit", 50, 43),
        ],
        ids=["quasi_newton", "ssnewton"],
    )
    def test_prox_step_on_motzkin(
        self, monkeypatch, degree, inner, reference, max_inner, status,
        iterations, fallbacks,
    ):
        # Motzkin is not SOS: from p = 0, t = 1 the quasi-Newton step ends
        # in a failed line search, the Newton step at its cap after many
        # gradient fallbacks
        prob = cp.build_sos_feasibility(cp.motzkin(), degree)
        outcomes = []
        for engine in (dualproj._SOLVERS[inner], reference):
            monkeypatch.setitem(dualproj._SOLVERS, inner, engine)
            x, y, u, rep = cp.prox_eval(
                prob, BlockPoint.zeros(prob.cone), 1.0, inner,
                max_inner=max_inner,
            )
            outcomes.append((x, DualPoint(y, np.zeros(0)), rep))
        rep = outcomes[1][2]
        assert (rep.status, rep.iterations) == (status, iterations)
        assert rep.gradient_fallbacks == fallbacks
        _assert_same_solve(*outcomes)


def _plain_cg(apply_h, g, eta, cap):
    # the unpreconditioned loop that _pcg replaced, kept as the reference
    # for the identity preconditioner
    m = g.size
    d = np.zeros(m)
    r = g.copy()
    gnorm = np.linalg.norm(g)
    target = eta * gnorm
    rr = float(r @ r)
    p = r.copy()
    for it in range(cap):
        hp = apply_h(p)
        curve = float(p @ hp)
        if curve <= 1e-14 * float(p @ p):
            if it == 0:
                return p / max(np.linalg.norm(p), 1e-300), it + 1, True
            return d, it + 1, True
        alpha = rr / curve
        d += alpha * p
        r -= alpha * hp
        if np.linalg.norm(r) <= target:
            return d, it + 1, False
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return d, cap, False


def _identity(v):
    return v


class TestPcg:
    """``_pcg``: preconditioned CG on H d = g, the preconditioner given as
    the map r -> M r."""

    def test_solves_spd_system_within_m_iterations(self):
        r = rng(32)
        m = 6
        b = r.standard_normal((m, m))
        h = b @ b.T + 0.1 * np.eye(m)
        g = r.standard_normal(m)
        eta = 1e-10
        d, iters, breakdown = _pcg(lambda v: h @ v, g, eta, 2 * m, _identity)
        assert not breakdown
        assert iters <= m
        assert np.linalg.norm(h @ d - g) <= eta * np.linalg.norm(g)

    def test_zero_curvature_returns_normalized_first_direction(self):
        g = np.array([3.0, 0.0, -4.0])
        d, iters, breakdown = _pcg(np.zeros_like, g, 0.1, 6, _identity)
        assert breakdown
        assert iters == 1
        assert np.allclose(d, g / 5.0)

    def test_exact_inverse_converges_in_one_iteration(self):
        r = rng(33)
        m = 40
        b = r.standard_normal((m, m))
        # badly scaled rows: plain CG needs many iterations here
        scale = np.logspace(0, 3, m)
        h = scale[:, None] * (b @ b.T + np.eye(m)) * scale[None, :]
        h_inv = np.linalg.inv(h)
        g = r.standard_normal(m)
        eta = 1e-8
        d, iters, breakdown = _pcg(
            lambda v: h @ v, g, eta, 2 * m, lambda v: h_inv @ v
        )
        assert (iters, breakdown) == (1, False)
        assert np.linalg.norm(h @ d - g) <= eta * np.linalg.norm(g)
        _, plain_iters, _ = _pcg(lambda v: h @ v, g, eta, 2 * m, _identity)
        assert plain_iters > 10

    @pytest.mark.parametrize("case", ["converges", "cap", "breakdown"])
    def test_identity_is_plain_cg_bitwise(self, case):
        r = rng(34)
        m = 30
        b = r.standard_normal((m, m - 5 if case == "breakdown" else m))
        h = b @ b.T
        g = r.standard_normal(m)
        eta, cap = (1e-9, 2 * m) if case != "cap" else (1e-14, 7)
        seen = {"plain": [], "pcg": []}

        def recorder(name):
            def apply_h(v):
                seen[name].append(v.copy())
                return h @ v

            return apply_h

        d0, it0, br0 = _plain_cg(recorder("plain"), g, eta, cap)
        d1, it1, br1 = _pcg(recorder("pcg"), g, eta, cap, _identity)
        assert (it1, br1) == (it0, br0)
        assert np.array_equal(d1, d0)
        assert len(seen["pcg"]) == len(seen["plain"]) == it0
        for p0, p1 in zip(seen["plain"], seen["pcg"]):
            assert np.array_equal(p1, p0)
        assert br0 == (case == "breakdown")
        if case == "cap":
            assert it0 == cap

    def test_ssnewton_preconditions_with_the_gram_inverse(self, monkeypatch):
        # unit-diagonal rows scaled by 10^(i/2): AA^T is diagonal with
        # entries 10^i, and the Newton matrix is about as badly scaled
        r = rng(35)
        n = 8
        cone = ConeSpec(psd_dims=(n,))
        scale = 10.0 ** (np.arange(n) / 2.0)
        diag_flat = np.arange(n) * n + np.arange(n)
        mat = sp.csr_matrix((scale, (np.arange(n), diag_flat)), shape=(n, n * n))
        g = r.standard_normal((n, n))
        prob = ProjectionProblem(
            c=BlockPoint(cone, [(g + g.T) / 2.0]),
            eq=AffineMap(cone, mat, scale),
            cone=cone,
        )
        passed = []
        original = cp.dualproj._pcg

        def recording(apply_h, g, eta, cap, precond):
            passed.append(precond)
            return original(apply_h, g, eta, cap, precond)

        monkeypatch.setattr(cp.dualproj, "_pcg", recording)
        _, _, rep = solve_ssnewton(prob, tol=1e-10)
        assert rep.status == "converged"
        assert passed and all(p == prob.eq.gram.solve for p in passed)

        def unpreconditioned(apply_h, g, eta, cap, precond):
            return original(apply_h, g, eta, cap, _identity)

        monkeypatch.setattr(cp.dualproj, "_pcg", unpreconditioned)
        _, _, plain = solve_ssnewton(prob, tol=1e-10)
        assert plain.status == "converged"
        assert 2 * rep.inner_iterations < plain.inner_iterations


class TestWolfeFallback:
    """``_wolfe`` on a synthetic phi whose trials never pass the Armijo
    test, so every outcome comes from the fallback rules."""

    F0 = 1.0
    GNORM0 = 1.0

    def search(self, trials):
        # trials: alpha -> (f, gnorm); slope 0 against slope0 = -1 makes the
        # sufficient-decrease test fail whenever f >= f0 - 1e-4 alpha
        def phi(alpha):
            f, gnorm = trials(alpha)
            return f, 0.0, gnorm, ("trial", alpha)

        return _wolfe(phi, self.F0, -1.0, self.GNORM0)

    def test_lower_f_is_accepted(self):
        # only alpha = 1/4 lowers f, not enough for Armijo
        def trials(alpha):
            return (self.F0 - 1e-6 if alpha == 0.25 else self.F0 + 1.0), 2.0

        alpha, payload, ok, fallback = self.search(trials)
        assert (alpha, payload, ok, fallback) == (0.25, ("trial", 0.25), True, True)

    def test_lowest_gradient_within_rounding_floor_is_accepted(self):
        # no trial lowers f; alpha = 1/8 has the lowest gradient norm and
        # gives back exactly the rounding floor 1e-12 (1 + |f0|)
        floor = self.F0 + 1e-12 * (1.0 + abs(self.F0))

        def trials(alpha):
            return (floor, 0.5) if alpha == 0.125 else (self.F0 + 1.0, 2.0)

        alpha, payload, ok, fallback = self.search(trials)
        assert (alpha, payload, ok, fallback) == (0.125, ("trial", 0.125), True, True)

    @pytest.mark.parametrize("case", ["above_floor", "no_lower_gradient"])
    def test_no_progress_is_not_ok(self, case):
        if case == "above_floor":
            # the lowest-gradient trial gives back more than rounding noise
            def trials(alpha):
                return (self.F0 + 1e-9, 0.1) if alpha == 0.5 else (self.F0 + 1.0, 2.0)
        else:
            # no trial lowers f or the gradient norm
            def trials(alpha):
                return self.F0 + alpha, self.GNORM0

        alpha, payload, ok, fallback = self.search(trials)
        assert (alpha, payload, ok, fallback) == (None, None, False, False)


class TestWolfeFloorStop:
    """At the floating-point floor of f, where |slope0| is below the
    rounding noise 1e-12 (1 + |f0|), the search stops at the first trial
    that qualifies for the fallback instead of running all its trials."""

    F0 = 1e-14
    SLOPE0 = -1e-16

    @pytest.mark.parametrize(
        "case, first_qualifying",
        [("lower_f_on_second_trial", 0.5), ("lower_gradient_at_once", 1.0)],
    )
    def test_returns_after_at_most_two_trials(self, case, first_qualifying):
        calls = []

        def phi(alpha):
            calls.append(alpha)
            # f jitters by rounding noise around f0 and never passes the
            # Wolfe test: a lower f comes with a slope below c2 slope0
            sign = -1.0 if len(calls) % 2 == 0 else 1.0
            f = self.F0 + sign * 5e-17
            gnorm = 0.5 if case == "lower_gradient_at_once" else 2.0
            return f, self.SLOPE0, gnorm, ("trial", alpha)

        alpha, payload, ok, fallback = _wolfe(phi, self.F0, self.SLOPE0, 1.0)
        assert len(calls) <= 2
        assert (alpha, payload, ok, fallback) == (
            first_qualifying, ("trial", first_qualifying), True, True
        )


class TestNearestCorrelation:
    def test_all_methods_agree_on_2x2(self):
        for method in (
            "fixed_metric",
            "quasi_newton",
            "ssnewton",
            "dykstra",
            "admm",
            "alternating",
        ):
            x, rep = nearest_correlation(C_2X2, method=method, tol=1e-10)
            if method == "alternating":
                # feasibility only: lands in the intersection, not at X*
                assert np.linalg.eigvalsh(x)[0] >= -1e-9
                assert np.allclose(np.diag(x), 1.0, atol=1e-8)
            else:
                assert np.allclose(x, X_2X2, atol=1e-8)

    def test_diagonal_error_bounded_by_tolerance(self):
        r = rng(31)
        n = 40
        g = r.standard_normal((n, n))
        c = (g + g.T) / 2.0
        np.fill_diagonal(c, 1.0)
        tol = 1e-7 * n
        x, rep = nearest_correlation(c, method="quasi_newton", tol=tol)
        assert rep.converged()
        assert np.sqrt(np.sum((np.diag(x) - 1.0) ** 2)) <= tol

    def test_unknown_method(self):
        with pytest.raises(InputError):
            nearest_correlation(np.eye(2), method="sedumi")

    @pytest.mark.parametrize("method", dualproj.PROJECTION_METHODS)
    def test_iteration_cap_is_a_positive_integer(self, method):
        prob = correlation_problem(C_2X2)
        with pytest.raises(InputError, match="^max_iter must be at least 1$"):
            dualproj.solve_projection(prob, method, max_iter=0)
        with pytest.raises(InputError, match="^max_iter: .*integers, got 2.5$"):
            dualproj.solve_projection(prob, method, max_iter=2.5)
        with pytest.raises(InputError, match="integers, got 2.5$"):
            nearest_correlation(C_2X2, method=method, max_iter=2.5)
        # an integral float is the integer
        _, _, rep = dualproj.solve_projection(prob, method, max_iter=2.0)
        assert rep.iterations <= 2


class TestRescaleCorrelation:
    def test_unit_diagonal_passthrough(self):
        x = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert np.allclose(rescale_correlation(x), x)

    def test_diagonal_matrix(self):
        assert np.allclose(rescale_correlation(np.diag([4.0, 9.0])), np.eye(2))

    def test_hand_example(self):
        # D = diag(4, 1): off-diagonal maps to 2 / sqrt(4 * 1) = 1, and the
        # rank-1 input must stay rank-1 under the congruence transform
        out = rescale_correlation(np.array([[4.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(out, [[1.0, 1.0], [1.0, 1.0]])
        assert np.all(np.diag(out) == 1.0)
        out2 = rescale_correlation(np.array([[4.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(out2, [[1.0, 0.5], [0.5, 1.0]])

    def test_preserves_psd(self):
        r = rng(32)
        g = r.standard_normal((6, 6))
        x = g @ g.T + 0.1 * np.eye(6)
        out = rescale_correlation(x)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_nonpositive_diagonal_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="^diagonal entry 1 is"):
                rescale_correlation(np.diag([1.0, bad]))

    @pytest.mark.parametrize(
        "x", [np.ones(3), np.ones((2, 3)), np.ones((1, 2, 2)), 1.0]
    )
    def test_non_square_input_rejected(self, x):
        shape = np.shape(x)
        with pytest.raises(InputError, match=re.escape(f"got shape {shape}")):
            rescale_correlation(x)
