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
from conicproj.dualproj import _pcg, _wolfe, correlation_problem
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

    def test_scaled_tilted_variant(self):
        # x(y) = P_K(c + t (A'y - tilt)) and grad = b - A x for any t
        r = rng(25)
        cone = ConeSpec(psd_dims=(3,))
        eq = random_affine(r, cone, 2)
        prob = ProjectionProblem(
            c=random_point(r, cone),
            eq=eq,
            cone=cone,
            scale=0.37,
            tilt=random_point(r, cone),
        )
        y = r.standard_normal(2)
        ev = eval_theta(prob, DualPoint(y, np.zeros(0)))
        w = prob.c.ravel() + 0.37 * (eq.adjoint_vec(y) - prob.tilt.ravel())
        x_ref = cp.project_cone(cone, BlockPoint.from_vector(cone, w))
        assert np.allclose(ev.x.ravel(), x_ref.ravel())
        eps = 1e-6
        for i in range(2):
            dy = np.zeros(2)
            dy[i] = eps
            tp = eval_theta(prob, DualPoint(y + dy, np.zeros(0))).theta
            tm = eval_theta(prob, DualPoint(y - dy, np.zeros(0))).theta
            assert abs((tp - tm) / (2 * eps) - ev.grad_y[i]) <= 1e-5


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
        with pytest.raises(InputError):
            rescale_correlation(np.diag([1.0, 0.0]))
