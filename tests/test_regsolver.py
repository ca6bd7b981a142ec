import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    IterateTriple,
    LinearConicProblem,
    RegParams,
    gram_factorize,
    prox_eval,
    residuals,
    solve_regularized,
    solve_simple,
)
from conicproj import cones, dualproj, regsolver
from conftest import gnp_theta, random_affine, random_point, rng


def scalar_problem():
    """min x  s.t.  x = 2, x >= 0; optimum p = 2, y = 1, u = 0."""
    cone = ConeSpec(nonneg=1)
    amap = AffineMap(cone, sp.csr_matrix(np.array([[1.0]])), [2.0])
    return LinearConicProblem(
        c=BlockPoint(cone, [np.array([1.0])]), a=amap, cone=cone
    )


def c5_theta():
    g = cp.Graph(5, frozenset({(i, (i + 1) % 5) for i in range(5)}))
    return cp.build_theta(g)


class TestProxEval:
    def test_scalar_hand_computation(self):
        # at p = 0, t = 1 the only feasible point is x = 2; the stationary
        # multiplier solves x = max(0, y - 1) = 2, so y = 3, u = 0
        prob = scalar_problem()
        x, y, u, rep = prox_eval(
            prob, BlockPoint.zeros(prob.cone), t=1.0, inner_tol=1e-12
        )
        assert np.allclose(x.blocks[0], [2.0], atol=1e-10)
        assert np.allclose(y, [3.0], atol=1e-9)
        assert np.allclose(u.blocks[0], [0.0], atol=1e-10)

    def test_prox_of_optimum_is_fixed_point(self):
        prob = scalar_problem()
        p_star = BlockPoint(prob.cone, [np.array([2.0])])
        x, y, u, rep = prox_eval(prob, p_star, t=1.0, inner_tol=1e-12)
        assert np.allclose(x.blocks[0], [2.0], atol=1e-10)

    def test_moreau_identity_exact(self):
        from conftest import random_point

        r = rng(50)
        prob, _ = cp.random_sos_instance(2, 2, "full", seed=3)
        p = cp.project_cone(prob.cone, random_point(r, prob.cone))
        for t in (0.5, 1.0, 2.0):
            x, y, u, rep = prox_eval(prob, p, t=t, inner_tol=1e-9)
            lhs = p.ravel() + t * (prob.a.adjoint_vec(y) - prob.c.ravel())
            rhs = t * u.ravel() + x.ravel()
            scale = 1.0 + np.linalg.norm(lhs)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale
            # u in the polar cone, complementary to x
            pol = cp.project_polar(prob.cone, u)
            assert (pol - u).norm() <= 1e-10 * (1 + u.norm())
            assert abs(x.dot(u)) <= 1e-10 * (1 + x.norm() * u.norm())

    def test_inner_gradient_matches_finite_differences(self):
        # the dual of the prox subproblem at t = 0.7, the projection of
        # p - t c, checked coordinatewise
        prob, _ = cp.random_sos_instance(2, 1, "full", seed=5)
        r = rng(51)
        from conftest import random_point

        p = random_point(r, prob.cone)
        sub = cp.ProjectionProblem(c=p - 0.7 * prob.c, eq=prob.a, cone=prob.cone)
        y = r.standard_normal(prob.m)
        ev = cp.eval_theta(sub, cp.DualPoint(y, np.zeros(0)))
        eps = 1e-6
        for i in range(prob.m):
            dy = np.zeros(prob.m)
            dy[i] = eps
            tp = cp.eval_theta(sub, cp.DualPoint(y + dy, np.zeros(0))).theta
            tm = cp.eval_theta(sub, cp.DualPoint(y - dy, np.zeros(0))).theta
            fd = (tp - tm) / (2 * eps)
            assert abs(fd - ev.grad_y[i]) <= 1e-6 * (1 + abs(fd))

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_prox_step_is_the_projection_of_p_minus_tc(self, t):
        # the prox step of min <c, x> + ||x - p||^2/(2t) is the projection
        # of p - t c, its multiplier t y; theta on C7 plus a chord has c != 0
        edges = {(i, (i + 1) % 7) for i in range(7)} | {(0, 3)}
        prob = cp.build_theta(cp.Graph(7, frozenset(edges)))
        p = cp.project_cone(prob.cone, random_point(rng(52), prob.cone))
        x, y, u, rep = prox_eval(prob, p, t=t, inner="ssnewton", inner_tol=1e-11)
        sub = cp.ProjectionProblem(c=p - t * prob.c, eq=prob.a, cone=prob.cone)
        x_ref, d_ref, rep_ref = dualproj.solve_projection(
            sub, "ssnewton", tol=1e-11
        )
        assert rep.converged() and rep_ref.converged()
        assert np.max(np.abs(x.ravel() - x_ref.ravel())) <= 1e-10
        assert np.max(np.abs(y - d_ref.y / t)) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
    def test_bad_t(self, t):
        # rejected by prox_eval's own check, before any arithmetic
        prob = scalar_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="finite and positive"):
                prox_eval(prob, BlockPoint.zeros(prob.cone), t=t)


class TestSolveSimple:
    def test_scalar_problem(self):
        trip, rep = solve_simple(
            scalar_problem(), RegParams(max_outer=500, outer_tol=1e-12)
        )
        assert rep.converged()
        assert np.allclose(trip.p.blocks[0], [2.0])
        assert np.allclose(trip.y, [1.0])
        assert np.allclose(trip.u.blocks[0], [0.0])

    def test_c5_theta_value(self):
        trip, rep = solve_simple(
            c5_theta(), RegParams(max_outer=100000, outer_tol=1e-9)
        )
        assert rep.converged()
        assert abs(-rep.objective - np.sqrt(5.0)) <= 1e-4

    def test_planted_sos_instance(self):
        prob, planted = cp.random_sos_instance(5, 3, "full", seed=77)
        assert np.linalg.norm(prob.a.apply_vec(planted.ravel()) - prob.b) == 0.0
        trip, rep = solve_simple(
            prob, RegParams(max_outer=100000, outer_tol=1e-9)
        )
        assert rep.converged()
        assert rep.primal_residual <= 1e-9 and rep.dual_residual <= 1e-9

    def test_conic_feasibility_and_complementarity_by_construction(self):
        prob = c5_theta()
        trip, rep = solve_simple(
            prob, RegParams(max_outer=2000, outer_tol=1e-8)
        )
        p, u = trip.p, trip.u
        assert (cp.project_cone(prob.cone, p) - p).norm() <= 1e-10 * (1 + p.norm())
        pol = cp.project_polar(prob.cone, u)
        assert (pol - u).norm() <= 1e-10 * (1 + u.norm())
        assert abs(p.dot(u)) <= 1e-10 * (1 + p.norm() * u.norm())

    def test_reported_residuals_reproduce_exactly(self):
        prob = c5_theta()
        trip, rep = solve_simple(prob, RegParams(max_outer=5000, outer_tol=1e-8))
        assert rep.converged()
        rp, rd = residuals(prob, trip)
        assert rp == rep.primal_residual
        assert rd == rep.dual_residual

    def test_dual_residual_identity_along_run(self):
        # t * dual_residual * (1 + ||c||) equals ||p_{k+1} - p_k||
        prob = c5_theta()
        t = 1.0
        c_scale = 1.0 + prob.c.norm()
        prev = None
        for k in range(3, 9):
            trip, rep = solve_simple(
                prob, RegParams(max_outer=k, outer_tol=1e-300)
            )
            if prev is not None:
                gap = (trip.p - prev).norm()
                ident = t * rep.dual_residual * c_scale
                assert abs(gap - ident) <= 1e-10 * (1.0 + gap)
            prev = trip.p

    @staticmethod
    def _infeasible(t0, max_outer):
        # x = -1 against x >= 0: the dual grows by 1/t per sweep
        cone = ConeSpec(nonneg=1)
        amap = AffineMap(cone, sp.csr_matrix(np.array([[1.0]])), [-1.0])
        prob = LinearConicProblem(c=BlockPoint.zeros(cone), a=amap, cone=cone)
        return solve_simple(
            prob, RegParams(t0=t0, max_outer=max_outer, outer_tol=1e-9)
        )

    def test_suspected_infeasible_flag(self):
        # tiny t: ||y|| = 5e6 > 1e6 at the first check, sweep 500
        trip, rep = self._infeasible(1e-4, 5000)
        assert rep.status == "suspected_infeasible"
        assert rep.iterations == 500
        assert np.linalg.norm(trip.y) > 1e6

    def test_no_divergence_check_before_sweep_500(self):
        trip, rep = self._infeasible(1e-4, 499)
        assert rep.status == "iteration_limit"
        assert rep.iterations == 499

    def test_divergence_bound_is_absolute(self):
        # t = 1: ||y|| grows linearly to 5e3, far from growing 1e6-fold
        # past its start of 0, but never past the 1e6 bound
        trip, rep = self._infeasible(1.0, 5000)
        assert rep.status == "iteration_limit"
        assert rep.iterations == 5000
        assert 1e3 < np.linalg.norm(trip.y) < 1e6


class TestSweepCost:
    def test_three_sparse_products_per_sweep(self, monkeypatch):
        # one A(u + c), one A'y and one A p per sweep: the residual check
        # and the next y-step reuse the sweep's products
        prob = cp.build_sos_feasibility(cp.motzkin(), 5)
        calls = [0]
        for name in ("apply_vec", "adjoint_vec"):
            original = getattr(AffineMap, name)

            def counted(self, v, _original=original):
                calls[0] += 1
                return _original(self, v)

            monkeypatch.setattr(AffineMap, name, counted)

        def run(sweeps):
            calls[0] = 0
            trip, rep = solve_simple(
                prob, RegParams(inner="one_iteration", max_outer=sweeps)
            )
            assert rep.iterations == sweeps
            return calls[0], (trip.p.ravel(), trip.y, trip.u.ravel())

        long_calls, first = run(50)
        short_calls, _ = run(20)
        assert long_calls - short_calls == 3 * 30
        _, second = run(50)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def _reference_solve_simple(problem, params):
    """solve_simple's sweep written out on its own, on the library's
    _outer_loop and _Anderson."""
    from conicproj import cones

    cone, a = problem.cone, problem.a
    c_vec, b = problem.c.ravel(), a.rhs
    states = [cones._WarmState() for _ in cone.psd_dims]

    def project_step(t, p, u, ap):
        y = a.gram.solve(a.apply_vec(u + c_vec) + (b - ap) / t)
        aty = a.adjoint_vec(y)
        w = p + t * (aty - c_vec)
        p, _ = cones._project_ambient(cone, w, states=states)
        return p, y, w - p, aty

    def sweep(k, t, at, worst):
        p, y, s, aty = project_step(t, at.p, at.u, at.ap)
        return regsolver._Step(p, y, s / t, a.apply_vec(p), aty)

    if not params.adapt_t:
        return regsolver._outer_loop(problem, params, sweep)
    dim = cone.dim
    t_now = None

    def evaluate(x):
        t = t_now
        p, y, s, aty = project_step(t, x[:dim], x[dim : 2 * dim] / t, x[2 * dim :])
        ap = a.apply_vec(p)
        return np.concatenate((p, s, ap)), regsolver._Step(p, y, s / t, ap, aty)

    anderson = regsolver._Anderson(evaluate, 2 * dim, problem.m)

    def accelerated_sweep(k, t, at, worst):
        nonlocal t_now
        if t != t_now:
            t_now = t
            return anderson.restart(np.concatenate((at.p, t * at.u, at.ap)))
        out, evaluations = anderson.step()
        return out._replace(inner=evaluations)

    return regsolver._outer_loop(problem, params, accelerated_sweep)


class TestSweepMatchesReference:
    @pytest.mark.parametrize(
        "instance, adapt_t",
        [("motzkin-d4", False), ("theta-c5", True), ("theta-c5", False)],
    )
    def test_bitwise_equal_iterates_after_300_sweeps(
        self, instance, adapt_t, monkeypatch
    ):
        if instance == "motzkin-d4":
            prob = cp.build_sos_feasibility(cp.motzkin(), 4)
        else:
            prob = c5_theta()
        params = RegParams(
            inner="one_iteration", max_outer=300, outer_tol=1e-300, adapt_t=adapt_t
        )
        # record what every sweep returns, with a copy, to show that no later
        # sweep writes into it
        returned = []
        outer_loop = regsolver._outer_loop

        def recording_loop(problem, params, step):
            def recorded(*args):
                out = step(*args)
                arrays = (out.p, out.y, out.u, out.ap, out.aty)
                returned.extend((arr, arr.copy()) for arr in arrays)
                return out

            return outer_loop(problem, params, recorded)

        monkeypatch.setattr(regsolver, "_outer_loop", recording_loop)
        trip, rep = solve_simple(prob, params)
        monkeypatch.undo()
        assert len(returned) == 5 * 300
        assert all(arr.tobytes() == copy.tobytes() for arr, copy in returned)
        ref_trip, ref_rep = _reference_solve_simple(prob, params)
        assert rep.iterations == ref_rep.iterations == 300
        assert rep.inner_iterations == ref_rep.inner_iterations
        for got, want in (
            (trip.p.ravel(), ref_trip.p.ravel()),
            (trip.y, ref_trip.y),
            (trip.u.ravel(), ref_trip.u.ravel()),
        ):
            assert got.tobytes() == want.tobytes()
        # the residuals as np.linalg.norm gives them
        a = prob.a
        b_scale = 1.0 + np.linalg.norm(prob.b)
        c_scale = 1.0 + prob.c.norm()
        p, u = ref_trip.p.ravel(), ref_trip.u.ravel()
        rd = np.linalg.norm(a.adjoint_vec(ref_trip.y) - u - prob.c.ravel())
        assert rep.primal_residual == np.linalg.norm(a.apply_vec(p) - prob.b) / b_scale
        assert rep.dual_residual == rd / c_scale
        assert rep.objective == ref_rep.objective

    @pytest.mark.parametrize("adapt_t", [False, True])
    def test_blocks_below_the_warm_order_match_bitwise(self, adapt_t):
        # orders 21 and 28 never take the warm route, so the error that the
        # sweep allows it changes no bit
        params = RegParams(
            inner="one_iteration", max_outer=300, outer_tol=1e-300, adapt_t=adapt_t
        )
        for d in (5, 6):
            prob = cp.build_sos_feasibility(cp.motzkin(), d)
            assert max(prob.cone.psd_dims) < cones._WARM_MIN_ORDER
            trip, rep = solve_simple(prob, params)
            ref_trip, ref_rep = _reference_solve_simple(prob, params)
            assert (rep.iterations, rep.inner_iterations) == (
                ref_rep.iterations,
                ref_rep.inner_iterations,
            )
            assert (rep.primal_residual, rep.dual_residual) == (
                ref_rep.primal_residual,
                ref_rep.dual_residual,
            )
            for got, want in (
                (trip.p.ravel(), ref_trip.p.ravel()),
                (trip.y, ref_trip.y),
                (trip.u.ravel(), ref_trip.u.ravel()),
            ):
                assert got.tobytes() == want.tobytes()


class TestPolarBound:
    """A sweep whose warm route stopped early leaves u within a known
    distance of K°, which the residuals do not see: the loop declares
    convergence only when that bound is within the tolerance too."""

    def test_converged_needs_the_polar_bound(self):
        # the exact optimum at every step, with a polar bound that falls
        # to the tolerance at the third
        prob = scalar_problem()
        bounds = [1.0, 2e-7, 1e-7, 0.0]

        def step(k, t, at, worst):
            p, y, u = np.array([2.0]), np.array([1.0]), np.zeros(1)
            a = prob.a
            return regsolver._Step(
                p, y, u, a.apply_vec(p), a.adjoint_vec(y), polar=bounds[k - 1]
            )

        trip, rep = regsolver._outer_loop(prob, RegParams(outer_tol=1e-7), step)
        assert rep.converged() and rep.iterations == 3
        assert rep.primal_residual == rep.dual_residual == 0.0

    def test_sweep_bound_follows_the_residual(self, monkeypatch):
        # each sweep allows its projection an error of a tenth of the
        # previous residual, in the scale of the dual residual; most sweeps
        # of theta on G(64, 0.3) use some of it, and the converged one is
        # within the tolerance
        record = []
        outer = regsolver._outer_loop

        def recording_loop(problem, params, step):
            def recorded(k, t, at, worst):
                out = step(k, t, at, worst)
                record.append((worst, out.polar))
                return out

            return outer(problem, params, recorded)

        monkeypatch.setattr(regsolver, "_outer_loop", recording_loop)
        prob = gnp_theta(64, 0.3, 3)
        _, rep = solve_simple(
            prob, RegParams(max_outer=20000, outer_tol=1e-7, adapt_t=True)
        )
        assert rep.converged()
        assert all(bound <= regsolver._INNER_KAPPA * worst for worst, bound in record)
        assert sum(bound > 1e-3 * worst for worst, bound in record) > len(record) / 2
        assert record[-1][1] <= 1e-7


    def test_psd_blocks_share_the_allowed_error(self, monkeypatch):
        # two theta blocks of orders 48 and 56 side by side: each may err by
        # half of kappa worst (1 + ||c||) t, so the bound still holds
        parts = [gnp_theta(48, 0.3, 4), gnp_theta(56, 0.3, 5)]
        cone = ConeSpec(psd_dims=(48, 56))
        amap = AffineMap(
            cone,
            sp.block_diag([q.a.matrix for q in parts], format="csr"),
            np.concatenate([q.b for q in parts]),
        )
        c = BlockPoint(cone, [q.c.blocks[0] for q in parts])
        prob = LinearConicProblem(c=c, a=amap, cone=cone)
        c_scale = 1.0 + c.norm()
        steps, tols = [], []
        outer, project = regsolver._outer_loop, regsolver._project_ambient

        def recording_loop(problem, params, step):
            def recorded(k, t, at, worst):
                out = step(k, t, at, worst)
                steps.append((t, worst, out.polar))
                return out

            return outer(problem, params, recorded)

        def recording_project(cone, v, states=None):
            tols.append([state.tol for state in states])
            return project(cone, v, states)

        monkeypatch.setattr(regsolver, "_outer_loop", recording_loop)
        monkeypatch.setattr(regsolver, "_project_ambient", recording_project)
        solve_simple(prob, RegParams(max_outer=300, outer_tol=1e-7))
        assert len(steps) == len(tols) == 300
        for (t, worst, bound), tol in zip(steps, tols):
            share = regsolver._INNER_KAPPA * worst * c_scale * t / 2
            assert tol == [share, share]
            assert bound <= regsolver._INNER_KAPPA * worst
        assert sum(bound > 0.0 for _, _, bound in steps) >= 20


class TestPartialSpectrumSweep:
    def test_low_rank_blocks_skip_the_full_decomposition(self, monkeypatch):
        # theta of the edgeless graph on 16 vertices is 16, attained by the
        # rank-one J/16: once a sweep has kept at most 16/8 positive
        # eigenvalues, the next one projects from those alone
        from conicproj import cones

        calls = [0]
        original = cones.eig_sym

        def counted(m):
            calls[0] += 1
            return original(m)

        monkeypatch.setattr(cones, "eig_sym", counted)
        prob = cp.build_theta(cp.Graph(16, frozenset()))
        trip, rep = solve_simple(
            prob, RegParams(inner="one_iteration", max_outer=5000, outer_tol=1e-7)
        )
        assert rep.converged()
        assert abs(-rep.objective - 16.0) <= 1e-4
        assert 1 <= calls[0] < rep.iterations


class TestWarmRouteSweep:
    """The warm route of the cone projection runs only inside the sweep,
    on blocks of order at least cones._WARM_MIN_ORDER."""

    @staticmethod
    def _count_attempts(monkeypatch):
        from conicproj import cones

        calls = [0, 0]  # attempts, successes
        original = cones._project_psd_warm

        def counted(m, state):
            out = original(m, state)
            calls[0] += 1
            calls[1] += out is not None
            return out

        monkeypatch.setattr(cones, "_project_psd_warm", counted)
        return calls

    def test_consecutive_solves_give_the_same_bits(self, monkeypatch):
        prob = gnp_theta(64, 0.3, 3)
        calls = self._count_attempts(monkeypatch)
        params = RegParams(inner="one_iteration", max_outer=400, adapt_t=True)
        runs = []
        for _ in range(2):
            calls[0] = 0
            trip, rep = solve_simple(prob, params)
            runs.append((trip, rep, calls[0]))
        (trip, rep, attempts), (trip2, rep2, attempts2) = runs
        assert attempts == attempts2 > 0
        assert (rep.status, rep.iterations, rep.inner_iterations) == (
            rep2.status,
            rep2.iterations,
            rep2.inner_iterations,
        )
        assert (rep.primal_residual, rep.dual_residual) == (
            rep2.primal_residual,
            rep2.dual_residual,
        )
        for got, want in ((trip.p, trip2.p), (trip.u, trip2.u)):
            assert got.ravel().tobytes() == want.ravel().tobytes()
        assert trip.y.tobytes() == trip2.y.tobytes()

    def test_regularized_solve_attempts_in_its_sweep_phase_only(self, monkeypatch):
        calls = self._count_attempts(monkeypatch)
        prob = gnp_theta(64, 0.3, 3)
        _, rep = solve_regularized(prob, RegParams(inner="ssnewton", max_outer=40))
        assert rep.iterations == 40
        assert 0 < calls[0] <= 20

    @pytest.mark.parametrize("adapt_t", [False, True])
    def test_blocks_of_order_21_and_28_never_attempt(self, monkeypatch, adapt_t):
        calls = self._count_attempts(monkeypatch)
        for d, order in ((5, 21), (6, 28)):
            prob = cp.build_sos_feasibility(cp.motzkin(), d)
            assert prob.cone.psd_dims == (order,)
            solve_simple(
                prob, RegParams(inner="one_iteration", max_outer=300, adapt_t=adapt_t)
            )
        assert calls[0] == 0

    def test_motzkin_d7_sweeps_mostly_warm_and_converges(self, monkeypatch):
        # order 36 is the threshold: once the rank has settled, most sweeps
        # of Motzkin d=7 project without a decomposition, and the sweep
        # still reaches criterion 9's tolerance
        calls = self._count_attempts(monkeypatch)
        prob = cp.build_sos_feasibility(cp.motzkin(), 7)
        assert prob.cone.psd_dims == (cones._WARM_MIN_ORDER,)
        trip, rep = solve_simple(
            prob, RegParams(inner="one_iteration", max_outer=10000, outer_tol=1e-5)
        )
        assert rep.converged()
        assert rep.primal_residual <= 1e-5
        assert abs(float(prob.b @ trip.y)) <= 1e-5
        attempts, successes = calls
        assert attempts > rep.iterations / 2
        assert successes > 0.9 * attempts

    def test_dykstra_and_the_dual_engines_pass_no_state(self, monkeypatch):
        from conicproj import altschemes

        calls = self._count_attempts(monkeypatch)
        seen = []
        for module in (dualproj, altschemes):
            original = module._project_ambient

            def spy(cone, v, states=None, _original=original):
                seen.append(states)
                return _original(cone, v, states)

            monkeypatch.setattr(module, "_project_ambient", spy)
        g = rng(80).standard_normal((60, 60))
        c = (g + g.T) / 2.0 / np.sqrt(60) + np.eye(60)
        for method in ("ssnewton", "quasi_newton", "fixed_metric", "dykstra"):
            cp.nearest_correlation(c, method, max_iter=30)
        prob = gnp_theta(64, 0.3, 3)
        for inner in ("ssnewton", "quasi_newton", "fixed_metric"):
            prox_eval(prob, BlockPoint.zeros(prob.cone), 1.0, inner, max_inner=20)
        assert len(seen) > 100 and all(states is None for states in seen)
        assert calls[0] == 0


class _Map:
    """A fixed-point map z -> T(z) for the Anderson helper, carrying
    L z = sum(z) and recording every point it is evaluated at."""

    def __init__(self, t):
        self.t = t
        self.points = []

    def __call__(self, x):
        z = x[:-1].copy()
        assert abs(x[-1] - z.sum()) <= 1e-12 * (1 + abs(z).sum())
        self.points.append(z)
        g = np.asarray(self.t(z), dtype=float)
        return np.append(g, g.sum()), g

    def helper(self, z0):
        z0 = np.asarray(z0, dtype=float)
        aa = regsolver._Anderson(self, z0.size, 1)
        return aa, aa.restart(np.append(z0, z0.sum()))


class TestAnderson:
    def test_affine_map_is_solved_by_one_extrapolation(self):
        # on R^1 the secant through two residuals of T(z) = z/2 + 1 hits
        # the fixed point 2: one evaluation, accepted
        m = _Map(lambda z: z / 2 + 1)
        aa, out = m.helper([0.0])
        assert out == [1.0]
        out, evaluations = aa.step()  # memory empty: the plain point
        assert evaluations == 1 and m.points[-1] == [1.0] and out == [1.5]
        out, evaluations = aa.step()
        assert evaluations == 1 and aa.size == 2
        assert abs(m.points[-1][0] - 2.0) <= 1e-7
        assert abs(out[0] - 2.0) <= 1e-7

    def test_weights_over_the_bound_give_the_plain_step(self):
        # T(z) = 0.999 z + 1: the secant weight is 0.999/(0.999 - 1) = -999
        m = _Map(lambda z: 0.999 * z + 1)
        aa, _ = m.helper([0.0])
        plain, _ = aa.step()
        out, evaluations = aa.step()
        assert evaluations == 1
        assert m.points[-1] == plain and out == 0.999 * plain + 1
        assert aa.size == 0  # cleared: the next step is plain again
        assert aa.step() == (0.999 * out + 1, 1) and aa.size == 1

    def test_singular_gram_gives_the_plain_step(self):
        # a translation has a constant residual: every difference is zero
        m = _Map(lambda z: z + 1)
        aa, _ = m.helper([0.0])
        aa.step()
        out, evaluations = aa.step()
        assert evaluations == 1 and out == [3.0]
        assert [float(z[0]) for z in m.points] == [0.0, 1.0, 2.0]
        assert aa.size == 0

    def test_gram_and_right_hand_side_track_the_stored_differences(self):
        # an affine contraction on R^8 that five differences cannot
        # solve, so the memory fills and its ring wraps
        q = np.linalg.qr(rng(7).standard_normal((8, 8)))[0]
        mat = q @ np.diag(np.linspace(0.1, 0.9, 8)) @ q.T
        m = _Map(lambda z: mat @ z + 1.0)
        aa, _ = m.helper(np.zeros(8))
        full = 0
        for _ in range(10):
            aa.step()
            j = aa.size
            if j == 0:
                continue
            full += j == regsolver._AA_MEMORY
            df, f, rhs = aa._df[:j], aa._cur[1], aa._cur[3]
            gram = np.array([row[:j] for row in aa._gram[:j]])
            big = np.linalg.norm(df, axis=1).max()
            assert np.allclose(gram, df @ df.T, rtol=0, atol=1e-13 * big**2)
            tol = 1e-12 * big * np.linalg.norm(f)
            assert np.allclose(rhs, df @ f, rtol=0, atol=tol)
        assert full >= 3

    def test_worse_trial_residual_is_rejected_and_clears_memory(self):
        # T(z) = M z + c on R^2 has the fixed point (-1, -1); two accepted
        # steps fill the memory, whose next extrapolation is that point up
        # to the regularization, where the map is then made to jump
        mz = np.array([0.5, 0.8])
        c = np.array([-0.5, -0.2])
        jump = [False]

        def t(z):
            if jump[0] and np.linalg.norm(z + 1.0) < 1e-3:
                return z + 100.0
            return mz * z + c

        m = _Map(t)
        aa, _ = m.helper([10.0, 10.0])
        assert aa.step()[1] == 1
        plain, evaluations = aa.step()
        assert evaluations == 1 and aa.size == 2
        jump[0] = True
        out, evaluations = aa.step()
        assert evaluations == 2
        assert np.linalg.norm(m.points[-2] + 1.0) < 1e-3
        assert np.array_equal(m.points[-1], plain)
        assert np.array_equal(out, mz * plain + c)
        assert aa.size == 0


class TestAcceleratedSweep:
    @staticmethod
    def _gnp_theta():
        r = np.random.default_rng(1)
        iu = np.triu_indices(30, 1)
        keep = r.uniform(size=iu[0].size) < 0.3
        edges = frozenset(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))
        return cp.build_theta(cp.Graph(30, edges))

    def test_c5_in_far_fewer_sweeps(self):
        prob = c5_theta()
        _, plain = solve_simple(prob, RegParams(max_outer=1000, outer_tol=1e-7))
        _, acc = solve_simple(
            prob, RegParams(max_outer=1000, outer_tol=1e-7, adapt_t=True)
        )
        assert plain.converged() and acc.converged()
        assert abs(-acc.objective - np.sqrt(5.0)) <= 1e-6
        assert 4 * acc.inner_iterations <= plain.iterations

    def test_random_graph_matches_plain_theta(self, monkeypatch):
        # every extrapolation refused is the plain sweep with adapt_t
        prob = self._gnp_theta()
        params = RegParams(max_outer=20000, outer_tol=1e-7, adapt_t=True)
        _, acc = solve_simple(prob, params)
        monkeypatch.setattr(regsolver, "_AA_GAMMA_MAX", -1.0)
        _, plain = solve_simple(prob, params)
        assert plain.converged() and acc.converged()
        assert plain.inner_iterations == plain.iterations
        assert abs(acc.objective - plain.objective) <= 1e-6 * abs(plain.objective)
        assert 2 * acc.inner_iterations < plain.iterations

    def test_memory_restarts_whenever_t_changes(self, monkeypatch):
        ts, restarts = [], []
        outer = regsolver._outer_loop
        restart = regsolver._Anderson.restart

        def recording_loop(problem, params, step):
            def recorded(k, t, at, worst):
                ts.append(t)
                return step(k, t, at, worst)

            return outer(problem, params, recorded)

        def recording_restart(self, x):
            restarts.append(len(ts) - 1)  # the sweep it happens in
            return restart(self, x)

        monkeypatch.setattr(regsolver, "_outer_loop", recording_loop)
        monkeypatch.setattr(regsolver._Anderson, "restart", recording_restart)
        solve_simple(
            self._gnp_theta(),
            RegParams(max_outer=400, outer_tol=1e-7, adapt_t=True),
        )
        changes = [k for k in range(1, len(ts)) if ts[k] != ts[k - 1]]
        assert len(changes) >= 2 and restarts[0] == 0
        assert set(changes) <= set(restarts)

    def test_theta_on_gnp_64_in_half_the_sweeps(self):
        # half the 900 sweeps taken when t changed by 2x, and only at a 10x
        # residual ratio
        _, rep = solve_simple(
            gnp_theta(64, 0.3, 3),
            RegParams(max_outer=20000, outer_tol=1e-7, adapt_t=True),
        )
        assert rep.converged() and rep.iterations <= 450

    def test_no_extra_evaluations_without_adapt_t(self):
        for prob in (c5_theta(), cp.build_sos_feasibility(cp.motzkin(), 4)):
            _, rep = solve_simple(prob, RegParams(max_outer=300, outer_tol=1e-7))
            assert rep.inner_iterations == rep.iterations

    def test_three_sparse_products_per_evaluation(self, monkeypatch):
        # an extrapolated point's A p comes from the carried differences
        calls = [0]
        for name in ("apply_vec", "adjoint_vec"):
            original = getattr(AffineMap, name)

            def counted(self, v, _original=original):
                calls[0] += 1
                return _original(self, v)

            monkeypatch.setattr(AffineMap, name, counted)
        prob = cp.build_sos_feasibility(cp.motzkin(), 5)
        _, rep = solve_simple(
            prob, RegParams(max_outer=200, outer_tol=1e-12, adapt_t=True)
        )
        assert rep.inner_iterations > rep.iterations == 200
        assert calls[0] == 2 + 3 * rep.inner_iterations


class TestAdaptT:
    """The rebalancing of t, driven by a stub step whose residuals are
    fixed over stretches of outer iterations."""

    @staticmethod
    def _t_per_step(residuals, max_outer):
        # min 0 s.t. x = 0, x >= 0: both scales are 1, so the step's A p
        # is rp and its A'y - u is rd
        cone = ConeSpec(nonneg=1)
        amap = AffineMap(cone, sp.csr_matrix(np.array([[1.0]])), [0.0])
        prob = LinearConicProblem(
            c=BlockPoint(cone, [np.zeros(1)]), a=amap, cone=cone
        )
        ts = []

        def step(k, t, at, worst):
            ts.append(t)
            rp, rd = residuals(k)
            zero = np.zeros(1)
            return regsolver._Step(zero, zero, zero, np.array([rp]), np.array([rd]))

        params = RegParams(max_outer=max_outer, adapt_t=True)
        regsolver._outer_loop(prob, params, step)
        return ts

    def test_factor_direction_and_doubling_wait(self):
        # (first k, rp, rd): a change may come at k = 10 and then after
        # waits of 20, 40, 80 and 160 iterations
        stretches = [
            (1, 1.0, 0.0),  # rd = 0: t shrinks by the cap at k = 10
            (11, 0.0, 1.0),  # rp = 0: t grows by the cap at k = 30
            (31, 1.0, 1.0 / 16),  # t shrinks by sqrt(16) at k = 70
            (71, 1.0 / 16, 1.0),  # t grows by sqrt(16) at k = 150
            (151, 1.0, 0.5),  # inside the band: no change from k = 310
            (400, 1e-3, 1e-15),  # sqrt of the ratio beyond the cap
        ]

        def residuals(k):
            return next(r for first, *r in reversed(stretches) if k >= first)

        ts = self._t_per_step(residuals, 402)
        assert all(math.isfinite(t) and t > 0 for t in ts)
        changes = {
            k: ts[k] / ts[k - 1] for k in range(1, len(ts)) if ts[k] != ts[k - 1]
        }
        cap = regsolver._T_CAP
        want = {10: 1 / cap, 30: cap, 70: 1 / 4, 150: 4, 400: 1 / cap}
        assert changes.keys() == want.keys()
        for k, factor in want.items():
            assert changes[k] == pytest.approx(factor, rel=1e-15)

    def test_t_stays_in_its_clamp(self):
        ts = self._t_per_step(lambda k: (1.0, 0.0), 5000)
        assert min(ts) == regsolver._T_MIN
        ts = self._t_per_step(lambda k: (0.0, 1.0), 5000)
        assert max(ts) == regsolver._T_MAX


class TestNonFiniteResidual:
    @staticmethod
    def _problem(psd_block, orthant):
        # min <c, x> over a PSD block beside an orthant block, one row
        cone = ConeSpec(psd_dims=(2,), nonneg=2)
        row = np.zeros(cone.dim)
        row[0] = 1.0  # X_11
        row[5] = 1.0  # the second orthant entry
        amap = AffineMap(cone, sp.csr_matrix(row), [1.0])
        c = BlockPoint(cone, [np.array(psd_block), np.array(orthant)])
        return LinearConicProblem(c=c, a=amap, cone=cone)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("block", ["psd", "nonneg"])
    def test_nonfinite_objective_is_rejected_at_construction(self, block, bad):
        psd_block = np.zeros((2, 2))
        orthant = np.zeros(2)
        if block == "psd":
            psd_block[1, 1] = bad
            where = "block 0 (psd)"
        else:
            orthant[0] = bad
            where = "block 1 (nonneg)"
        with pytest.raises(InputError, match=re.escape(where)):
            self._problem(psd_block, orthant)

    def test_overflowing_objective_is_rejected_at_construction(self):
        # c = -1e308 on an orthant entry: the first sweep would overflow
        with pytest.raises(InputError, match=r"block 1 \(nonneg\).*sqrt"):
            self._problem(np.zeros((2, 2)), [-1e308, 0.0])

    @pytest.mark.parametrize("product", ["ap", "aty"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_product_is_not_converged(self, product, bad):
        # a stub step whose A p or A'y turns non-finite at k = 3: the loop
        # stops there, whatever the data bound lets through
        prob = self._problem(np.zeros((2, 2)), [1.0, 0.0])
        dim, m = prob.cone.dim, prob.m

        def step(k, t, at, worst):
            products = {"ap": np.ones(m), "aty": np.ones(dim)}
            if k == 3:
                products[product] = np.full_like(products[product], bad)
            zero = np.zeros(dim)
            return regsolver._Step(zero, np.zeros(m), zero, **products)

        _, rep = regsolver._outer_loop(prob, RegParams(max_outer=50), step)
        assert rep.status == "numerical_failure"
        assert rep.message == "non-finite residual"
        assert rep.iterations == 3


class TestNewtonStepCost:
    def test_at_most_two_evals_per_newton_step(self, monkeypatch):
        # one evaluation opens each inner solve; after that a Newton step
        # takes at most two line-search trials on average, also at the
        # floating-point floor of theta where the Armijo test flips coins.
        # Newton from zero: with the sweep phase this instance converges
        # before any prox step
        monkeypatch.setattr(regsolver, "_PHASE1_TOL", math.inf)
        prob, _ = cp.random_sos_instance(5, 3, "full", seed=205)
        counts = {"eval": 0, "steps": 0}
        original_eval = dualproj._Workspace.eval
        original_pcg = dualproj._pcg

        def counted_eval(self, *args, **kwargs):
            counts["eval"] += 1
            return original_eval(self, *args, **kwargs)

        def counted_pcg(*args, **kwargs):  # one CG solve per Newton step
            counts["steps"] += 1
            return original_pcg(*args, **kwargs)

        monkeypatch.setattr(dualproj._Workspace, "eval", counted_eval)
        monkeypatch.setattr(dualproj, "_pcg", counted_pcg)
        _, rep = solve_regularized(
            prob,
            RegParams(
                inner="ssnewton",
                outer_tol=1e-9,
                eps0=1e-4,
                decay=3.0,
                max_outer=300,
                max_inner=200,
            ),
        )
        assert rep.converged()
        assert counts["steps"] > 0
        assert counts["eval"] <= 2 * counts["steps"] + rep.iterations


class TestSolveRegularized:
    @pytest.mark.parametrize("inner", ["fixed_metric", "quasi_newton", "ssnewton"])
    def test_scalar_problem(self, inner):
        trip, rep = solve_regularized(
            scalar_problem(),
            RegParams(inner=inner, outer_tol=1e-10, max_outer=200),
        )
        assert rep.converged()
        assert np.allclose(trip.p.blocks[0], [2.0], atol=1e-8)
        assert np.allclose(trip.y, [1.0], atol=1e-7)

    def test_theta_values_small_graphs(self):
        params = RegParams(
            inner="ssnewton", outer_tol=1e-8, eps0=1e-4, decay=3.0, max_outer=200
        )
        trip, rep = solve_regularized(c5_theta(), params)
        assert rep.converged()
        assert abs(-rep.objective - np.sqrt(5.0)) <= 1e-4
        k3 = cp.build_theta(cp.Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))
        trip, rep = solve_regularized(k3, params)
        assert abs(-rep.objective - 1.0) <= 1e-6
        e4 = cp.build_theta(cp.Graph(4, frozenset()))
        trip, rep = solve_regularized(e4, params)
        assert abs(-rep.objective - 4.0) <= 1e-6

    def test_one_iteration_routes_to_simple(self):
        params = RegParams(
            inner="one_iteration", outer_tol=1e-10, max_outer=2000
        )
        trip, rep = solve_regularized(scalar_problem(), params)
        assert rep.converged()
        assert np.allclose(trip.y, [1.0])

    def test_agrees_with_simple_on_random_sos(self):
        # ten instances across the arity range
        cases = [(2, 1), (2, 2), (3, 3), (3, 4), (4, 5),
                 (4, 6), (5, 7), (5, 8), (6, 9), (6, 10)]
        for nv, seed in cases:
            prob, _ = cp.random_sos_instance(nv, 2, "full", seed=seed)
            t1, r1 = solve_simple(
                prob, RegParams(max_outer=100000, outer_tol=1e-10)
            )
            t2, r2 = solve_regularized(
                prob,
                RegParams(
                    inner="quasi_newton",
                    outer_tol=1e-10,
                    eps0=1e-5,
                    decay=3.0,
                    max_outer=300,
                    max_inner=400,
                ),
            )
            assert r1.converged() and r2.converged()
            assert abs(r1.objective - r2.objective) <= 1e-5

    @pytest.mark.parametrize("n_vars", [5, 6, 7])
    def test_every_prox_step_moves_on_full_rank_sos(self, n_vars, monkeypatch):
        # an inner tolerance above the outer residual lets the warm start
        # meet it: y stays put and the outer iteration is wasted.  The inner
        # report's ``iterations`` counts Newton steps; ``inner_iterations``
        # counts CG iterations and falls back to evaluations, so it cannot
        # show a solve without a step.  Newton from zero: with the sweep
        # phase this instance converges before any prox step.
        monkeypatch.setattr(regsolver, "_PHASE1_TOL", math.inf)
        prob, _ = cp.random_sos_instance(n_vars, 3, "full", seed=200 + n_vars)
        steps = []
        original = dualproj._SOLVERS["ssnewton"]

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            steps.append(out[2].iterations)
            return out

        monkeypatch.setitem(dualproj._SOLVERS, "ssnewton", recorded)
        _, rep = solve_regularized(
            prob,
            RegParams(
                inner="ssnewton",
                outer_tol=1e-9,
                eps0=1e-4,
                decay=3.0,
                max_outer=300,
                max_inner=200,
            ),
        )
        assert rep.converged()
        assert len(steps) == rep.iterations <= 20
        assert min(steps) >= 1

    @pytest.mark.parametrize("n_vars", [5, 6, 7])
    def test_every_prox_step_moves_on_rank_one_sos(self, n_vars, monkeypatch):
        # the rank-one twin of the test above, through the sweep phase:
        # sweeps first, then prox steps that each take a Newton step
        prob, _ = cp.random_sos_instance(n_vars, 3, "one", seed=300 + n_vars)
        log = _record_phases(monkeypatch, "ssnewton")
        _, rep = solve_regularized(prob, _criterion_8_params(1e-6))
        assert rep.converged()
        phases = "".join(kind for kind, _, _ in log)
        assert re.fullmatch("s+p+", phases)
        assert len(phases) == rep.iterations
        assert min(out[2].iterations for _, _, out in log if out) >= 1

    def test_iteration_cap_status(self):
        trip, rep = solve_regularized(
            c5_theta(), RegParams(max_outer=2, outer_tol=1e-14)
        )
        assert rep.status == "iteration_limit"
        assert rep.iterations == 2


def _criterion_8_params(outer_tol):
    return RegParams(
        inner="ssnewton",
        outer_tol=outer_tol,
        eps0=1e-4,
        decay=3.0,
        max_outer=300,
        max_inner=200,
    )


def _record_phases(monkeypatch, inner):
    """Log the steps of solve_regularized in order: ("s", y, None) for a
    sweep, ("p", y0, engine output) for a prox step's inner solve."""
    log = []
    make_sweep = regsolver._sweep

    def recording_factory(problem):
        project_step, sweep = make_sweep(problem)

        def recorded(*args):
            out = sweep(*args)
            log.append(("s", out.y.copy(), None))
            return out

        return project_step, recorded

    engine = dualproj._SOLVERS[inner]

    def recorded_engine(*args, y0=None, **kwargs):
        out = engine(*args, y0=y0, **kwargs)
        log.append(("p", y0, out))
        return out

    monkeypatch.setattr(regsolver, "_sweep", recording_factory)
    monkeypatch.setitem(dualproj._SOLVERS, inner, recorded_engine)
    return log


class TestTwoPhase:
    @pytest.mark.parametrize("n_vars", [5, 6, 7])
    def test_full_rank_sos_converges_in_the_sweep_phase(self, n_vars, monkeypatch):
        # the affine projection of 0 is almost feasible here: a few sweeps
        # reach 1e-9 and Newton is never called
        prob, _ = cp.random_sos_instance(n_vars, 3, "full", seed=200 + n_vars)
        log = _record_phases(monkeypatch, "ssnewton")
        _, rep = solve_regularized(prob, _criterion_8_params(1e-9))
        assert rep.converged()
        assert rep.iterations <= 10
        assert [kind for kind, _, _ in log] == ["s"] * rep.iterations
        assert rep.inner_iterations == rep.iterations

    def test_newton_starts_from_the_sweep_on_rank_one_sos(self, monkeypatch):
        # from zero, Newton's global phase spends 781 CG iterations finding
        # the rank of this instance; from the sweep's iterate, a few dozen
        prob, _ = cp.random_sos_instance(5, 3, "one", seed=305)
        log = _record_phases(monkeypatch, "ssnewton")
        _, rep = solve_regularized(prob, _criterion_8_params(1e-6))
        assert rep.converged()
        kinds = [kind for kind, _, _ in log]
        first = kinds.index("p")
        assert first >= 1 and "s" not in kinds[first:]
        # t stays at t0 = 1, and prox_eval hands the engine t y
        assert np.array_equal(log[first][1], log[first - 1][1])
        cg = sum(out[2].inner_iterations for _, _, out in log[first:])
        assert cg < 200
        assert rep.inner_iterations == first + cg

    @pytest.mark.parametrize("inner", ["fixed_metric", "quasi_newton", "ssnewton"])
    def test_infeasible_problem_spends_half_the_budget_sweeping(
        self, inner, monkeypatch
    ):
        # x = -1 against x >= 0 never reaches the switch tolerance: the
        # sweep phase ends on its budget, max_outer // 2, and never returns
        cone = ConeSpec(nonneg=1)
        amap = AffineMap(cone, sp.csr_matrix(np.array([[1.0]])), [-1.0])
        prob = LinearConicProblem(c=BlockPoint.zeros(cone), a=amap, cone=cone)
        log = _record_phases(monkeypatch, inner)
        _, rep = solve_regularized(
            prob, RegParams(inner=inner, max_outer=21, max_inner=20)
        )
        assert rep.status == "iteration_limit"
        assert rep.iterations == 21
        assert "".join(kind for kind, _, _ in log) == "s" * 10 + "p" * 11
        assert np.array_equal(log[10][1], log[9][1])

    def test_dependent_rows_skip_the_sweep_phase(self, monkeypatch):
        # the sweep factorizes AA^T, which repeated rows make singular; the
        # quasi-Newton engine never factorizes it and still solves
        cone = ConeSpec(nonneg=2)
        amap = AffineMap(cone, sp.csr_matrix(np.ones((2, 2))), [1.0, 1.0])
        prob = LinearConicProblem(
            c=BlockPoint(cone, [np.array([1.0, 2.0])]), a=amap, cone=cone
        )
        log = _record_phases(monkeypatch, "quasi_newton")
        trip, rep = solve_regularized(prob, RegParams(max_outer=200))
        assert rep.converged()
        assert np.allclose(trip.p.ravel(), [1.0, 0.0])
        assert [kind for kind, _, _ in log] == ["p"] * rep.iterations

    def test_one_outer_iteration_is_a_prox_step(self, monkeypatch):
        # max_outer // 2 = 0 sweeps, so AA^T is never factorized
        def no_factorization(a):
            raise AssertionError("AA^T factorized without a sweep budget")

        monkeypatch.setattr(regsolver, "gram_factorize", no_factorization)
        log = _record_phases(monkeypatch, "quasi_newton")
        solve_regularized(scalar_problem(), RegParams(max_outer=1))
        assert [kind for kind, _, _ in log] == ["p"]


class TestResiduals:
    def test_exact_optimum_is_zero(self):
        prob = scalar_problem()
        cone = prob.cone
        trip = IterateTriple(
            p=BlockPoint(cone, [np.array([2.0])]),
            y=np.array([1.0]),
            u=BlockPoint.zeros(cone),
        )
        rp, rd = residuals(prob, trip)
        assert rp == 0.0 and rd == 0.0

    def test_feasible_p_arbitrary_y(self):
        prob = scalar_problem()
        cone = prob.cone
        y = np.array([5.0])
        trip = IterateTriple(
            p=BlockPoint(cone, [np.array([2.0])]),
            y=y,
            u=BlockPoint.zeros(cone),
        )
        rp, rd = residuals(prob, trip)
        assert rp == 0.0
        expected = np.linalg.norm(
            prob.a.adjoint_vec(y) - prob.c.ravel()
        ) / (1.0 + prob.c.norm())
        assert np.isclose(rd, expected)

    @pytest.mark.parametrize(
        "solve, params",
        [
            (solve_simple, RegParams(max_outer=50)),
            (solve_simple, RegParams(max_outer=50, adapt_t=True)),
            (solve_regularized, RegParams(max_outer=10, inner="quasi_newton")),
            (solve_regularized, RegParams(max_outer=10, inner="ssnewton")),
        ],
        ids=["simple", "simple_adapt_t", "quasi_newton", "ssnewton"],
    )
    def test_reported_residuals_are_those_of_residuals(self, solve, params):
        # on this objective 1 + ||c|| summed block by block and in one
        # piece differ in the last bit: every solver must use one scale
        r = rng(0)
        cone = ConeSpec(psd_dims=(4,), nonneg=3)
        c = random_point(r, cone)
        prob = LinearConicProblem(c=c, a=random_affine(r, cone, 2), cone=cone)
        trip, rep = solve(prob, params)
        assert (rep.primal_residual, rep.dual_residual) == residuals(prob, trip)


class TestGramFactorize:
    def test_nearcorr_rows_give_identity(self):
        prob = cp.build_nearcorr(np.eye(4))
        f = gram_factorize(prob.eq)
        assert f.is_diagonal
        assert np.array_equal(f.diagonal, np.ones(4))

    def test_sos_assembly_diagonal_positive_integer(self):
        for nv, d in [(1, 1), (2, 2), (3, 2), (5, 3)]:
            prob = cp.build_sos_feasibility(
                cp.Polynomial(nv, {(0,) * nv: 1.0}), d
            )
            f = gram_factorize(prob.a)
            assert f.is_diagonal
            assert np.all(f.diagonal > 0)
            assert np.array_equal(f.diagonal, np.round(f.diagonal))

    def test_theta_assembly_diagonal(self):
        prob = c5_theta()
        f = gram_factorize(prob.a)
        assert f.is_diagonal
        assert f.diagonal[0] == 5.0  # <I, I> = n
        assert np.all(f.diagonal[1:] == 2.0)  # edge rows

    def test_solves_against_dense(self):
        r = rng(52)
        cone = ConeSpec(nonneg=6)
        rows = sp.csr_matrix(r.standard_normal((3, 6)))
        amap = AffineMap(cone, rows, r.standard_normal(3))
        f = gram_factorize(amap)
        assert not f.is_diagonal
        g = (rows @ rows.T).todense()
        rhs = r.standard_normal(3)
        assert np.allclose(f.solve(rhs), np.linalg.solve(g, rhs))

    def test_large_nondiagonal_uses_sparse_lu(self, monkeypatch):
        from conicproj.cones import GramFactorization

        monkeypatch.setattr(GramFactorization, "DENSE_LIMIT", 4)
        r = rng(53)
        cone = ConeSpec(nonneg=14)
        rows = sp.csr_matrix(r.standard_normal((7, 14)))
        amap = AffineMap(cone, rows, r.standard_normal(7))
        f = GramFactorization(amap)
        assert f._splu is not None
        g = (rows @ rows.T).todense()
        rhs = r.standard_normal(7)
        assert np.allclose(f.solve(rhs), np.linalg.solve(g, rhs))


class TestRegParams:
    def test_summability_enforced(self):
        with pytest.raises(InputError):
            RegParams(decay=1.0)
        with pytest.raises(InputError):
            RegParams(decay=0.5)

    def test_schedule_floor(self):
        p = RegParams(outer_tol=1e-6, eps0=1e-2, decay=2.0)
        assert p.inner_tol(1) == 1e-2
        assert p.inner_tol(10**6) == 1e-7  # outer_tol / 10 floor

    def test_schedule_is_summable(self):
        p = RegParams(eps0=1.0, decay=1.5, outer_tol=1e-300)
        # sum_k eps0 / k^1.5 = eps0 * zeta(1.5), finite
        from scipy.special import zeta

        partial = sum(p.inner_tol(k) for k in range(1, 20001))
        assert partial <= 1.0 * zeta(1.5) < np.inf

    def test_infinite_residual_gives_the_schedule(self):
        p = RegParams(outer_tol=1e-6, eps0=1e-2, decay=2.0)
        for k in (1, 2, 7, 100, 10**6):
            old = max(p.outer_tol / 10.0, p.eps0 / k**p.decay)
            assert p.inner_tol(k) == old
            assert p.inner_tol(k, np.inf) == old

    def test_residual_below_the_schedule_cuts_it(self):
        p = RegParams(outer_tol=1e-9, eps0=1e-4, decay=3.0)
        # schedule 1e-4 / 8 = 1.25e-5 at k = 2; floor 1e-10
        assert p.inner_tol(2, 3e-6) == regsolver._INNER_KAPPA * 3e-6
        assert p.inner_tol(2, 1e-3) == 1e-4 / 8  # kappa r above the schedule

    def test_residual_cut_keeps_the_floor(self):
        p = RegParams(outer_tol=1e-6, eps0=1e-2, decay=2.0)
        assert p.inner_tol(1, 1e-8) == 1e-7
        assert p.inner_tol(1, 0.0) == 1e-7

    def test_bad_inner_name(self):
        with pytest.raises(InputError):
            RegParams(inner="sedumi")

    def test_iteration_caps_are_positive_integers(self):
        with pytest.raises(
            InputError, match=r"^max_outer \(0\) and max_inner \(300\) must be"
        ):
            RegParams(max_outer=0)
        with pytest.raises(InputError, match="^max_outer: .*integers, got 10.5$"):
            RegParams(max_outer=10.5)
        with pytest.raises(InputError, match="^max_inner: .*integers, got 2.5$"):
            RegParams(max_inner=2.5)
        params = RegParams(max_outer=10.0, max_inner=3.0)
        assert (params.max_outer, params.max_inner) == (10, 3)
        assert type(params.max_outer) is type(params.max_inner) is int

    @pytest.mark.parametrize("field", ["t0", "outer_tol", "eps0"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_rejected(self, field, value):
        with pytest.raises(InputError, match="finite and positive"):
            RegParams(**{field: value})

    def test_adaptive_t_stays_converging(self):
        prob = c5_theta()
        trip, rep = solve_simple(
            prob,
            RegParams(max_outer=100000, outer_tol=1e-9, adapt_t=True),
        )
        assert rep.converged()
        assert abs(-rep.objective - np.sqrt(5.0)) <= 1e-4
