import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import (
    ConeSpec,
    Graph,
    InputError,
    Polynomial,
    build_nearcorr,
    build_polymin,
    build_sos_feasibility,
    build_theta,
    extract_certificate,
    monomials_upto,
    motzkin,
    random_polymin_instance,
    random_sos_instance,
    structured_polymin_instance,
)
from conicproj.polysos import _sos_system, expand_gram
from conftest import rng


class TestPolynomial:
    def test_terms_merge_and_zero_drop(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 0): 0.0})
        q = Polynomial(2, {(1, 0): -1.0})
        assert (p + q).terms == {}
        assert p.degree == 1

    def test_evaluate_and_multiply(self):
        p = Polynomial(1, {(2,): 1.0, (0,): -1.0})  # v^2 - 1
        q = p * p
        assert q.terms == {(4,): 1.0, (2,): -2.0, (0,): 1.0}
        for v in (-2.0, 0.0, 1.5):
            assert np.isclose(q(np.array([v])), (v * v - 1.0) ** 2)

    @pytest.mark.parametrize("num_vars", [0, -1])
    def test_no_variables_rejected(self, num_vars):
        with pytest.raises(InputError, match="nvars must be >= 1"):
            Polynomial(num_vars, {})

    def test_bad_exponent(self):
        with pytest.raises(InputError):
            Polynomial(2, {(1,): 1.0})
        with pytest.raises(InputError):
            Polynomial(1, {(-1,): 1.0})

    @pytest.mark.parametrize("alpha", [(1.5, 0), (0, 2.25), (1, "x"), (None, 0)])
    def test_non_integral_exponent_rejected(self, alpha):
        # int() would truncate (1.5, 0) to x0; the term must be named
        with pytest.raises(InputError, match=re.escape(repr(alpha))):
            Polynomial(2, {alpha: 1.0})

    def test_integral_float_exponent_accepted(self):
        p = Polynomial(2, {(1.0, np.int64(2)): 3.0})
        assert p.terms == {(1, 2): 3.0}
        assert all(type(e) is int for e in next(iter(p.terms)))

    @pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan])
    def test_nonfinite_coefficient_rejected(self, coeff):
        # nan != 0 would keep a NaN term, and inf would poison every value
        with pytest.raises(InputError, match=r"term \(1, 0\).*non-finite"):
            Polynomial(2, {(0, 0): 1.0, (1, 0): coeff})


class TestMonomials:
    def test_table_size(self):
        assert len(monomials_upto(5, 3)) == 56

    def test_univariate(self):
        b = monomials_upto(1, 2)
        assert b.exponents == ((0,), (1,), (2,))

    def test_bivariate_count_by_hand(self):
        # C(2+3, 2) = 10
        assert len(monomials_upto(2, 3)) == 10

    def test_graded_lex_no_duplicates(self):
        b = monomials_upto(3, 4)
        assert len(set(b.exponents)) == len(b.exponents)
        assert len(b) == math.comb(7, 3)
        degs = [sum(a) for a in b.exponents]
        assert degs == sorted(degs)
        for d in range(5):
            chunk = [a for a in b.exponents if sum(a) == d]
            assert chunk == sorted(chunk)

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_monomial_vector_needs_one_coordinate_per_variable(self, point):
        # pi(v) = (1, v2, v1) in graded lexicographic order
        basis = monomials_upto(2, 1)
        with pytest.raises(InputError, match="must have 2 coordinates"):
            basis.evaluate(point)
        assert basis.evaluate([2.0, 3.0]).tolist() == [1.0, 3.0, 2.0]

    def test_cap_guard(self):
        with pytest.raises(InputError):
            monomials_upto(30, 30)

    def test_exhaustive_dimension_formulas(self):
        for nv in range(1, 7):
            for d in range(0, 4):
                assert len(monomials_upto(nv, d)) == math.comb(nv + d, nv)

    def test_exhaustive_build_dimensions(self):
        # n = C(N+d, N) and m = C(N+2d, N) for every Gram assembly
        for nv in range(1, 7):
            for d in range(1, 4):
                prob = build_sos_feasibility(
                    Polynomial(nv, {(0,) * nv: 1.0}), d
                )
                assert prob.cone.psd_dims == (math.comb(nv + d, nv),)
                assert prob.m == math.comb(nv + 2 * d, nv)


class TestSosFeasibility:
    def test_one_plus_v_squared_by_hand(self):
        # (1, v) basis: expanding (1,v)' X (1,v) against 1 + v^2 gives
        # b = (1, 0, 1) over monomials (1, v, v^2)
        p = Polynomial(1, {(0,): 1.0, (2,): 1.0})
        prob = build_sos_feasibility(p, 1)
        assert prob.cone.psd_dims == (2,)
        assert prob.m == 3
        assert np.allclose(prob.b, [1.0, 0.0, 1.0])
        # X = I is feasible
        assert np.allclose(prob.a.apply_vec(np.eye(2).ravel()), prob.b)

    def test_motzkin_d3_dims(self):
        prob = build_sos_feasibility(motzkin(), 3)
        assert prob.cone.psd_dims == (10,)
        assert prob.m == 28

    def test_random_n5_d3_dims(self):
        prob, _ = random_sos_instance(5, 3, "full", seed=1)
        assert prob.cone.psd_dims == (56,)
        assert prob.m == 462

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            build_sos_feasibility(motzkin(), 2)

    def test_assembly_identity_random(self):
        # coefficients b = A vec(X) must reproduce pi(v)' X pi(v) pointwise
        r = rng(60)
        for _ in range(20):
            nv = int(r.integers(1, 4))
            d = int(r.integers(1, 3))
            basis = monomials_upto(nv, d)
            n = len(basis)
            g = r.standard_normal((n, n))
            x = g @ g.T
            prob = build_sos_feasibility(Polynomial(nv, {(0,) * nv: 0.0}), d)
            b = prob.a.apply_vec(x.ravel())
            basis2 = monomials_upto(nv, 2 * d)
            poly = Polynomial(nv, dict(zip(basis2.exponents, b)))
            for _ in range(20):
                v = r.uniform(-1.5, 1.5, nv)
                direct = float(basis.evaluate(v) @ x @ basis.evaluate(v))
                scale = 1.0 + abs(direct)
                assert abs(poly(v) - direct) <= 1e-9 * scale

    def test_orthogonality_proposition_by_counting(self):
        # AA^T diagonal; entry at row alpha = #{(beta, gamma): beta+gamma=alpha}
        for nv, d in [(1, 2), (2, 2), (3, 1), (2, 3)]:
            prob = build_sos_feasibility(Polynomial(nv, {(0,) * nv: 0.0}), d)
            f = cp.gram_factorize(prob.a)
            assert f.is_diagonal
            basis = monomials_upto(nv, d)
            basis2 = monomials_upto(nv, 2 * d)
            counts = {a: 0 for a in basis2.exponents}
            for beta, gamma in itertools.product(basis.exponents, repeat=2):
                counts[tuple(b + g for b, g in zip(beta, gamma))] += 1
            expected = np.array([counts[a] for a in basis2.exponents], dtype=float)
            assert np.array_equal(f.diagonal, expected)
            assert np.all(expected > 0)


def _reference_sos_system(num_vars: int, d: int):
    """The per-entry assembly that ``_sos_system`` replaced, kept verbatim
    as the bit-for-bit reference."""
    basis = monomials_upto(num_vars, d)
    basis2 = monomials_upto(num_vars, 2 * d)
    n = len(basis)
    idx = basis2.index
    rows = np.empty(n * n, dtype=np.int64)
    cols = np.arange(n * n, dtype=np.int64)
    pos = 0
    for i, beta in enumerate(basis.exponents):
        for gamma in basis.exponents:
            rows[pos] = idx[tuple(b + g for b, g in zip(beta, gamma))]
            pos += 1
    mat = sp.csr_matrix(
        (np.ones(n * n), (rows, cols)), shape=(len(basis2), n * n)
    )
    cone = ConeSpec(psd_dims=(n,))
    return cone, basis, basis2, mat


class TestSosSystemReference:
    # every (N, d) from (1, 0) to (7, 3), one high degree, and N = 40 with
    # d = 1, whose keys reach 3^41, beyond int64, and are Python ints
    @pytest.mark.parametrize(
        "num_vars, d",
        [(nv, d) for nv in range(1, 8) for d in range(4)] + [(40, 1), (1, 40)],
    )
    def test_bit_equal_to_reference(self, num_vars, d):
        got = _sos_system(num_vars, d)
        want = _reference_sos_system(num_vars, d)
        assert got[:3] == want[:3]
        assert got[3].shape == want[3].shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got[3], name), getattr(want[3], name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestPolymin:
    def test_v_squared_bound_zero(self):
        prob, offset = build_polymin(Polynomial(1, {(2,): 1.0}))
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=100000, outer_tol=1e-10)
        )
        assert rep.converged()
        assert abs(offset - rep.objective) <= 1e-8

    def test_shifted_square_bound_zero_rank_one_gram(self):
        p = Polynomial(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0})  # (v-1)^2
        prob, offset = build_polymin(p)
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=100000, outer_tol=1e-10)
        )
        assert rep.converged()
        assert abs(offset - rep.objective - 0.0) <= 1e-8
        lam = np.linalg.eigvalsh(np.array(trip.p.blocks[0]))
        assert lam[0] <= 1e-7  # boundary: certificate vanishes at the minimizer
        assert lam[-1] >= 0.5  # and is rank one here

    def test_random_dims(self):
        prob, _ = build_polymin(random_polymin_instance(5, 2, seed=9))
        assert prob.cone.psd_dims == (21,)
        assert prob.m == 125  # one row per monomial alpha != 0

    def test_structured_dims_table(self):
        prob, _ = build_polymin(structured_polymin_instance(5))
        assert prob.cone.psd_dims == (56,)
        assert prob.m == 461

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            build_polymin(Polynomial(1, {(3,): 1.0}))


class TestTheta:
    def c5(self):
        return Graph(5, frozenset({(i, (i + 1) % 5) for i in range(5)}))

    def test_dims_and_gram(self):
        prob = build_theta(self.c5())
        assert prob.m == 6
        f = cp.gram_factorize(prob.a)
        assert f.is_diagonal
        assert f.diagonal[0] == 5.0
        assert np.all(f.diagonal[1:] == 2.0)

    def test_c5_value_against_circulant_oracle(self):
        # feasible circulant X = a I + c (C^2 + C^3) with trace 5a = 1;
        # 1-d grid over c maximizes <J, X> subject to PSD
        w = np.exp(2j * np.pi / 5)
        best = -np.inf
        for c in np.linspace(0.0, 0.2, 40001):
            a = 0.2
            eigs = [
                a + c * (w ** (2 * k) + w ** (3 * k)).real for k in range(5)
            ]
            if min(eigs) < 0:
                continue
            best = max(best, 5 * a + 10 * c)
        assert abs(best - np.sqrt(5.0)) <= 1e-4
        prob = build_theta(self.c5())
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=100000, outer_tol=1e-9)
        )
        assert abs(-rep.objective - best) <= 1e-4

    def test_k3_forces_diagonal(self):
        prob = build_theta(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=50000, outer_tol=1e-9)
        )
        assert abs(-rep.objective - 1.0) <= 1e-6
        x = np.array(trip.p.blocks[0])
        assert np.max(np.abs(x - np.diag(np.diag(x)))) <= 1e-6

    def test_empty_graph(self):
        prob = build_theta(Graph(4, frozenset()))
        assert prob.m == 1
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=50000, outer_tol=1e-9)
        )
        assert abs(-rep.objective - 4.0) <= 1e-6

    def test_graph_validation(self):
        with pytest.raises(InputError):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(InputError):
            Graph(3, frozenset({(0, 5)}))

    @pytest.mark.parametrize("edge", [(0.5, 1), (0, 1.5), (0, "1")])
    def test_non_integral_vertex_rejected(self, edge):
        # (0.5, 1) passes the range check 0 <= i < n
        with pytest.raises(InputError, match="must be integers"):
            Graph(3, frozenset({edge}))

    def test_integral_float_vertex_accepted(self):
        g = Graph(3, frozenset({(2.0, 0)}))
        assert g.edges == frozenset({(0, 2)})


class TestBuildNearcorr:
    def test_rows_and_gram(self):
        prob = build_nearcorr(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert prob.m_eq == 2
        f = cp.gram_factorize(prob.eq)
        assert f.is_diagonal
        assert np.array_equal(f.diagonal, [1.0, 1.0])

    def test_solves_to_ones(self):
        prob = build_nearcorr(np.array([[1.0, 2.0], [2.0, 1.0]]))
        x, _, rep = cp.solve_ssnewton(prob, tol=1e-11)
        assert np.allclose(x.blocks[0], np.ones((2, 2)), atol=1e-9)

    def test_correlation_matrix_identity_map(self):
        c = np.array([[1.0, 0.25], [0.25, 1.0]])
        x, _, rep = cp.solve_quasi_newton(build_nearcorr(c), tol=1e-12)
        assert np.allclose(x.blocks[0], c)


class TestMotzkin:
    def test_exact_terms(self):
        p = motzkin()
        assert p.num_vars == 2
        assert p.degree == 6
        assert p.terms == {
            (0, 0): 1.0,
            (4, 2): 1.0,
            (2, 4): 1.0,
            (2, 2): -3.0,
        }

    def test_known_values(self):
        p = motzkin()
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                assert np.isclose(p(np.array([s1, s2])), 0.0)
        assert np.isclose(p(np.array([0.0, 0.0])), 1.0)

    def test_nonnegative_on_grid(self):
        p = motzkin()
        grid = np.linspace(-2.0, 2.0, 201)
        vals = []
        for v1 in grid:
            for v2 in grid:
                vals.append(p(np.array([v1, v2])))
        assert min(vals) >= 0.0


class TestRandomGenerators:
    def test_planted_feasibility_exact(self):
        for rank in ("full", "one"):
            prob, x = random_sos_instance(3, 2, rank, seed=5)
            assert np.linalg.norm(prob.a.apply_vec(x.ravel()) - prob.b) == 0.0

    def test_full_rank_plant_is_positive_definite(self):
        _, x = random_sos_instance(3, 2, "full", seed=6)
        lam = np.linalg.eigvalsh(x)
        assert lam[0] >= 0.5 - 1e-9 and lam[-1] <= 1.5 + 1e-9

    def test_rank_one_plant(self):
        _, x = random_sos_instance(3, 2, "one", seed=6)
        lam = np.linalg.eigvalsh(x)
        assert lam[-1] > 0.99  # unit vector outer product
        assert np.max(np.abs(lam[:-1])) <= 1e-12

    def test_deterministic_per_seed(self):
        a1, x1 = random_sos_instance(2, 2, "full", seed=11)
        a2, x2 = random_sos_instance(2, 2, "full", seed=11)
        assert np.array_equal(x1, x2)
        assert np.array_equal(a1.b, a2.b)
        a3, _ = random_sos_instance(2, 2, "full", seed=12)
        assert not np.array_equal(a1.b, a3.b)

    def test_seed_mandatory(self):
        with pytest.raises(InputError):
            random_sos_instance(2, 2, "full")
        with pytest.raises(InputError):
            random_polymin_instance(2, 2)

    @pytest.mark.parametrize("seed", [1.5, -1, "1", np.inf])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # 1.5 is not truncated to 1, and -1 is refused before numpy sees it
        with pytest.raises(InputError, match="seed"):
            random_sos_instance(2, 1, seed=seed)
        with pytest.raises(InputError, match="seed"):
            random_polymin_instance(2, 1, seed=seed)

    def test_integral_seed_keeps_its_stream(self):
        _, x = random_sos_instance(2, 1, seed=np.int64(3))
        assert np.array_equal(x, random_sos_instance(2, 1, seed=3.0)[1])
        assert np.array_equal(x, random_sos_instance(2, 1, seed=3)[1])

    @pytest.mark.parametrize("d", [0, -1])
    def test_polymin_instance_needs_degree_one(self, d):
        # the lower part has degree 2d - 1, so d = 0 must not reach the basis
        with pytest.raises(InputError, match=f"degree >= 1, got {d}"):
            random_polymin_instance(2, d, seed=1)

    def test_polymin_instance_structure(self):
        p = random_polymin_instance(5, 2, seed=4)
        # leading terms exactly sum_i v_i^4
        for i in range(5):
            alpha = [0] * 5
            alpha[i] = 4
            assert p.terms[tuple(alpha)] == 1.0
        lower = {a: c for a, c in p.terms.items() if sum(a) < 4}
        assert np.isclose(np.linalg.norm(list(lower.values())), 1.0)
        degree4 = [a for a in p.terms if sum(a) == 4]
        assert sorted(degree4) == sorted(
            tuple(4 if j == i else 0 for j in range(5)) for i in range(5)
        )

    def test_polymin_instance_coercive_growth(self):
        p = random_polymin_instance(3, 2, seed=8)
        vals = [p(np.array([t, 0.0, 0.0])) / t**4 for t in (10.0, 100.0)]
        assert abs(vals[-1] - 1.0) <= 1e-2

    def test_structured_value_at_zero(self):
        p = structured_polymin_instance(4)
        # every squared factor equals 1 at the origin
        assert np.isclose(p(np.zeros(4)), 5.0)
        assert p.degree == 6


class TestCertificates:
    def test_identity_gram(self):
        basis = monomials_upto(1, 1)
        qs = extract_certificate(np.eye(2), basis)
        assert len(qs) == 2
        total = Polynomial(1, {})
        for q in qs:
            total = total + q * q
        assert total.terms == {(0,): 1.0, (2,): 1.0}

    def test_rank_one_single_square(self):
        basis = monomials_upto(1, 1)
        q = np.array([1.0, -1.0])
        qs = extract_certificate(np.outer(q, q), basis)
        assert len(qs) == 1
        sq = qs[0] * qs[0]
        assert np.isclose(sq.terms[(0,)], 1.0)
        assert np.isclose(sq.terms[(1,)], -2.0)
        assert np.isclose(sq.terms[(2,)], 1.0)

    def test_solved_instance_reexpands(self):
        prob, _ = random_sos_instance(3, 2, "full", seed=21)
        trip, rep = cp.solve_simple(
            prob, cp.RegParams(max_outer=100000, outer_tol=1e-10)
        )
        assert rep.converged()
        basis = monomials_upto(3, 2)
        x = np.array(trip.p.blocks[0])
        qs = extract_certificate(x, basis)
        total = Polynomial(3, {})
        for q in qs:
            total = total + q * q
        basis2 = monomials_upto(3, 4)
        target = Polynomial(3, dict(zip(basis2.exponents, prob.b)))
        diff = total - target
        err = max((abs(c) for c in diff.terms.values()), default=0.0)
        assert err <= 1e-6 * (1.0 + target.coefficient_norm())

    def test_indefinite_rejected(self):
        basis = monomials_upto(1, 1)
        with pytest.raises(InputError):
            extract_certificate(np.diag([1.0, -1.0]), basis)

    def test_slightly_negative_clamped_with_warning(self):
        basis = monomials_upto(1, 1)
        x = np.diag([1.0, -1e-12])
        with pytest.warns(UserWarning):
            qs = extract_certificate(x, basis)
        assert len(qs) == 1

    @pytest.mark.parametrize("order", [2, 4])
    def test_gram_matrix_of_the_wrong_order_refused(self, order):
        # the basis of monomials_upto(2, 1) has 3 elements: a smaller Gram
        # matrix is not truncated into factors, nor a larger one padded
        basis = monomials_upto(2, 1)
        for helper in (extract_certificate, expand_gram):
            with pytest.raises(
                InputError, match=re.escape(f"({order}, {order}) != (3, 3)")
            ):
                helper(np.eye(order), basis)

    def test_expand_gram_matches_apply(self):
        r = rng(61)
        prob = build_sos_feasibility(Polynomial(2, {(0, 0): 0.0}), 2)
        basis = monomials_upto(2, 2)
        g = r.standard_normal((6, 6))
        x = (g + g.T) / 2.0
        poly = expand_gram(x, basis)
        b = prob.a.apply_vec(x.ravel())
        basis2 = monomials_upto(2, 4)
        for a, coeff in zip(basis2.exponents, b):
            assert np.isclose(poly.terms.get(a, 0.0), coeff)

    @pytest.mark.parametrize(
        "num_vars, d", [(1, 1), (2, 3), (3, 2), (2, 5), (4, 2), (5, 3)]
    )
    def test_expand_gram_same_bits_as_the_termwise_sum(self, num_vars, d):
        # the sum over (i, j) in row-major order, term by term
        basis = monomials_upto(num_vars, d)
        g = rng(62 + d).standard_normal((len(basis), len(basis)))
        x = (g + g.T) / 2.0
        terms = {}
        for i, beta in enumerate(basis.exponents):
            for j, gamma in enumerate(basis.exponents):
                key = tuple(b + c for b, c in zip(beta, gamma))
                terms[key] = terms.get(key, 0.0) + x[i, j]
        poly = expand_gram(x, basis)
        assert poly.terms.keys() == terms.keys()
        for key, coeff in terms.items():
            assert np.float64(poly.terms[key]).tobytes() == np.float64(coeff).tobytes()


class TestThetaSandwich:
    def test_sandwich_on_random_graphs(self):
        from conftest import chromatic_number, complement_graph, independence_number

        r = rng(62)
        for _ in range(4):
            n = int(r.integers(4, 8))
            edges = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if r.uniform() < 0.4:
                        edges.add((i, j))
            g = Graph(n, frozenset(edges))
            alpha = independence_number(g)
            chi_comp = chromatic_number(complement_graph(g))
            prob = build_theta(g)
            trip, rep = cp.solve_simple(
                prob, cp.RegParams(max_outer=100000, outer_tol=1e-8)
            )
            assert rep.converged()
            theta = -rep.objective
            assert alpha - 1e-3 <= theta <= chi_comp + 1e-3
