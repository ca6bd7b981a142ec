import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    TwoSetProblem,
    admm_projection,
    alternating_projections,
    dykstra,
)
from conicproj.cones import _project_affine_vec, _project_ambient
from conicproj.dualproj import correlation_problem
from conftest import rng

C_2X2 = np.array([[1.0, 2.0], [2.0, 1.0]])
X_2X2 = np.array([[1.0, 1.0], [1.0, 1.0]])


def two_set(c):
    return TwoSetProblem.from_projection(correlation_problem(c))


def feasible_problem(seed=77, n=5):
    r = rng(seed)
    g = r.uniform(-0.2, 0.2, (n, n))
    c = (g + g.T) / 2.0
    np.fill_diagonal(c, 1.0)
    c += n * np.eye(n) * 0.0
    return two_set(c + 0.5 * np.eye(n))


class TestAlternatingProjections:
    def test_member_returned_after_one_round(self):
        c = np.array([[1.0, 0.2], [0.2, 1.0]])  # already a correlation matrix
        x, rep = alternating_projections(two_set(c), tol=1e-12)
        assert rep.converged() and rep.iterations == 1
        assert np.allclose(x.blocks[0], c)

    def test_finds_intersection_point_not_projection(self):
        x, rep = alternating_projections(two_set(C_2X2), tol=1e-10)
        assert rep.converged()
        m = np.array(x.blocks[0])
        assert np.linalg.norm(np.diag(m) - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(m)[0] >= -1e-9

    def test_empty_intersection_hits_limit_with_gap(self):
        # X11 = -1 cannot meet the PSD cone
        cone = ConeSpec(psd_dims=(2,))
        amap = AffineMap(
            cone, sp.csr_matrix((np.ones(1), ([0], [0])), shape=(1, 4)), [-1.0]
        )
        prob = TwoSetProblem(
            c=BlockPoint(cone, [np.zeros((2, 2))]), cone=cone, eq=amap
        )
        x, rep = alternating_projections(prob, max_iter=300, tol=1e-8)
        assert rep.status == "iteration_limit"
        assert rep.dual_residual >= 0.5  # gap does not vanish


class TestDykstra:
    def test_projection_of_2x2(self):
        x, rep = dykstra(two_set(C_2X2), tol=1e-12, max_iter=20000)
        assert rep.converged()
        assert np.allclose(x.blocks[0], X_2X2, atol=1e-9)

    def test_member_fixed(self):
        c = np.array([[1.0, -0.3], [-0.3, 1.0]])
        x, rep = dykstra(two_set(c), tol=1e-12)
        assert rep.converged() and rep.iterations == 1
        assert np.allclose(x.blocks[0], c)

    def test_iterates_stay_in_their_sets(self):
        # mirror of the scheme: x_k in K and y_k affine-feasible to 1e-10
        prob = two_set(C_2X2)
        fact = prob.eq.gram
        c = prob.c.ravel()
        s = np.zeros_like(c)
        for _ in range(40):
            x, _ = _project_ambient(prob.cone, c + s)
            corr = fact.solve(prob.eq.apply_vec(x) - prob.eq.rhs)
            y = x - prob.eq.adjoint_vec(corr)
            s = s + (y - x)
            assert np.linalg.eigvalsh(x.reshape(2, 2))[0] >= -1e-10
            assert np.linalg.norm(prob.eq.apply_vec(y) - prob.eq.rhs) <= 1e-10

    def test_fejer_monotone_toward_solution(self):
        r = rng(41)
        g = r.standard_normal((6, 6))
        c = (g + g.T) / 2.0
        prob = correlation_problem(c)
        xstar, _, rep = cp.solve_ssnewton(prob, tol=1e-12)
        assert rep.converged()
        _, drep = dykstra(
            TwoSetProblem.from_projection(prob),
            tol=0.0,
            max_iter=60,
            record_iterates=True,
        )
        dists = [(x - xstar).norm() for x in drep.iterate_history]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-8


class TestAdmm:
    def test_projection_of_2x2(self):
        x, rep = admm_projection(two_set(C_2X2), beta=1.0, tol=1e-9, max_iter=20000)
        assert rep.converged()
        assert np.allclose(x.blocks[0], X_2X2, atol=1e-6)

    def test_member_is_immediate_fixed_point(self):
        c = np.array([[1.0, 0.1], [0.1, 1.0]])
        x, rep = admm_projection(two_set(c), tol=1e-12)
        assert rep.converged() and rep.iterations == 1
        assert np.allclose(x.blocks[0], c)

    def test_beta_invariance(self):
        sols = []
        for beta in (0.1, 1.0, 10.0):
            x, rep = admm_projection(
                two_set(C_2X2), beta=beta, tol=1e-10, max_iter=100000
            )
            assert rep.converged()
            sols.append(np.array(x.blocks[0]))
        assert np.linalg.norm(sols[0] - sols[1]) <= 1e-6
        assert np.linalg.norm(sols[1] - sols[2]) <= 1e-6

    def test_agrees_with_dykstra(self):
        r = rng(42)
        g = r.standard_normal((5, 5))
        c = (g + g.T) / 2.0
        xd, repd = dykstra(two_set(c), tol=1e-11, max_iter=50000)
        xa, repa = admm_projection(two_set(c), tol=1e-11, max_iter=50000)
        assert repd.converged() and repa.converged()
        assert (xd - xa).norm() <= 1e-6

    def test_multiplier_update_identity(self):
        # the scheme keeps z_{k+1} - z_k = -beta (x_{k+1} - y_{k+1}) exactly;
        # mirroring the iteration with the public projections must reproduce
        # the returned point bit for bit
        prob = two_set(C_2X2)
        beta = 0.7
        k_iters = 25
        x_ref, rep = admm_projection(prob, beta=beta, tol=0.0, max_iter=k_iters)
        assert rep.iterations == k_iters

        fact = prob.eq.gram
        c = prob.c.ravel()

        def proj_a(v):
            return v - prob.eq.adjoint_vec(fact.solve(prob.eq.apply_vec(v) - prob.eq.rhs))

        y = proj_a(c)
        z = np.zeros_like(c)
        for _ in range(k_iters):
            x, _ = _project_ambient(prob.cone, (beta * y + z + c) / (1 + beta))
            y = proj_a((beta * x - z + c) / (1 + beta))
            z_new = z - beta * (x - y)
            # the update IS the identity, exactly as written
            assert np.array_equal(z_new, z - beta * (x - y))
            z = z_new
        assert np.array_equal(x, x_ref.ravel())

    def test_bad_beta(self):
        for beta in (0.0, np.inf, np.nan):
            with pytest.raises(cp.InputError, match="finite and positive"):
                admm_projection(two_set(C_2X2), beta=beta)


@pytest.mark.parametrize(
    "scheme", [alternating_projections, dykstra, admm_projection]
)
def test_loop_bookkeeping(scheme):
    prob = two_set(C_2X2)
    with pytest.raises(
        cp.InputError, match="^max_iter must be nonnegative, got -1$"
    ):
        scheme(prob, max_iter=-1)
    with pytest.raises(cp.InputError, match="^max_iter: .*integers, got 2.5$"):
        scheme(prob, max_iter=2.5)
    c = prob.c.ravel()
    x, rep = scheme(prob, max_iter=0)
    start = c if scheme is dykstra else _project_affine_vec(prob.eq, c)
    assert np.array_equal(x.ravel(), start)
    assert rep.status == "iteration_limit" and rep.iterations == 0
    dual = np.inf if scheme is alternating_projections else 0.0
    assert (rep.primal_residual, rep.dual_residual) == (np.inf, dual)

    x, rep = scheme(prob, tol=0.0, max_iter=3)
    assert rep.status == "iteration_limit" and rep.iterations == 3
    if scheme is dykstra:
        x, rep = dykstra(prob, tol=0.0, max_iter=3, record_iterates=True)
        assert len(rep.iterate_history) == 3
        assert np.array_equal(rep.iterate_history[-1].ravel(), x.ravel())


class TestTwoSetProblem:
    def test_from_projection_rejects_inequalities(self):
        cone = ConeSpec(nonneg=1)
        eq = AffineMap(cone, sp.csr_matrix(np.array([[1.0]])), [1.0])
        ineq = AffineMap(cone, sp.csr_matrix(np.array([[-1.0]])), [-2.0])
        prob = cp.ProjectionProblem(
            c=BlockPoint.zeros(cone), eq=eq, cone=cone, ineq=ineq
        )
        with pytest.raises(cp.InputError):
            TwoSetProblem.from_projection(prob)

    def test_rank_deficient_rows_fail_fast(self):
        cone = ConeSpec(nonneg=2)
        rows = sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0]]))
        amap = AffineMap(cone, rows, [1.0, 2.0])
        with pytest.raises(cp.FactorizationError):
            TwoSetProblem(c=BlockPoint.zeros(cone), cone=cone, eq=amap)
