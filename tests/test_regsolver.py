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
from conicproj import dualproj
from conftest import rng


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
        # the tilted dual of the prox subproblem, checked coordinatewise
        prob, _ = cp.random_sos_instance(2, 1, "full", seed=5)
        r = rng(51)
        from conftest import random_point

        p = random_point(r, prob.cone)
        sub = cp.ProjectionProblem(
            c=p, eq=prob.a, cone=prob.cone, scale=0.7, tilt=prob.c
        )
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

    @pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
    def test_bad_t(self, t):
        # rejected by the subproblem's scale check, before any arithmetic
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

    def test_overflowing_objective_in_orthant_is_not_converged(self):
        # c = -1e308 on an orthant entry: the first sweep overflows and the
        # dual residual is non-finite from then on
        prob = self._problem(np.zeros((2, 2)), [-1e308, 0.0])
        for solve in (solve_simple, solve_regularized):
            with np.errstate(over="ignore", invalid="ignore"):
                _, rep = solve(prob, RegParams(max_outer=50))
            assert rep.status == "numerical_failure"
            assert rep.message == "non-finite residual"


class TestNewtonStepCost:
    def test_at_most_two_evals_per_newton_step(self, monkeypatch):
        # one evaluation opens each inner solve; after that a Newton step
        # takes at most two line-search trials on average, also at the
        # floating-point floor of theta where the Armijo test flips coins
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

    def test_iteration_cap_status(self):
        trip, rep = solve_regularized(
            c5_theta(), RegParams(max_outer=2, outer_tol=1e-14)
        )
        assert rep.status == "iteration_limit"
        assert rep.iterations == 2


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

    def test_bad_inner_name(self):
        with pytest.raises(InputError):
            RegParams(inner="sedumi")

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
