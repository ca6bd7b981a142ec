import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import cones
from conicproj import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    FactorizationError,
    InputError,
    eig_sym,
    project_affine,
    project_cone,
    project_polar,
    project_psd,
    project_soc,
    psd_jacobian_apply,
)
from conftest import fixture_text, random_affine, random_cone, random_point, rng


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        dec = eig_sym(np.diag([3.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, -1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_offdiagonal_hand_solved(self):
        # characteristic polynomial lambda^2 - 1 = 0
        dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [s, s])
        assert np.allclose(dec.eigenvectors[:, 1] * dec.eigenvectors[0, 1], [s * s, -s * s])

    def test_invariants_random(self):
        r = rng(1)
        for _ in range(40):
            n = int(r.integers(1, 30))
            g = r.standard_normal((n, n))
            m = (g + g.T) / 2.0
            dec = eig_sym(m)
            u = dec.eigenvectors
            assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-12 * n
            err = np.linalg.norm(dec.reconstruct() - m)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(m))
            assert np.all(np.diff(dec.eigenvalues) <= 1e-14)

    def test_deterministic_and_sign_canonical(self):
        r = rng(2)
        g = r.standard_normal((7, 7))
        m = (g + g.T) / 2.0
        d1, d2 = eig_sym(m), eig_sym(m.copy())
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        pick = np.abs(d1.eigenvectors).argmax(axis=0)
        assert np.all(d1.eigenvectors[pick, np.arange(7)] > 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestProjectPsd:
    def test_clamps_negative_eigenvalue(self):
        x, _ = project_psd(np.diag([1.0, -2.0]))
        assert np.allclose(x, np.diag([1.0, 0.0]))

    def test_hand_spectral_formula(self):
        # keep only the eigenvalue 1 of [[0,1],[1,0]]
        x, _ = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(x, [[0.5, 0.5], [0.5, 0.5]])

    def test_psd_input_is_fixed_point(self):
        r = rng(3)
        for _ in range(10):
            g = r.standard_normal((5, 5))
            m = g @ g.T
            x, _ = project_psd(m)
            assert np.allclose(x, m, atol=1e-12 * (1 + np.linalg.norm(m)))

    def test_result_is_psd(self):
        r = rng(4)
        for _ in range(20):
            g = r.standard_normal((8, 8))
            m = (g + g.T) / 2.0
            x, _ = project_psd(m)
            lam = np.linalg.eigvalsh(x)
            assert lam[0] >= -1e-10 * np.linalg.norm(m)


class TestPsdKernels:
    """The trimmed PSD projection keeps the full-clamp contract."""

    @staticmethod
    def _with_spectrum(lam, seed):
        q, _ = np.linalg.qr(rng(seed).standard_normal((lam.size, lam.size)))
        m = (q * lam) @ q.T
        return (m + m.T) / 2.0

    def test_negative_definite_gives_exact_zeros(self):
        m = self._with_spectrum(-np.arange(1.0, 7.0), 20)
        x, _ = project_psd(m)
        assert np.array_equal(x, np.zeros((6, 6)))

    def test_rank_deficient_psd_input_unchanged(self):
        # the zero eigenvalues may come out on either side of 0 and be
        # dropped from the reconstruction
        g = rng(21).standard_normal((6, 3))
        m = g @ g.T
        x, _ = project_psd(m)
        assert np.max(np.abs(x - m)) <= 1e-12 * (1.0 + np.linalg.norm(m))

    @pytest.mark.parametrize("positive", [0, 3, 6])
    def test_matches_full_clamp(self, positive):
        lam = np.concatenate(
            [np.arange(1.0, positive + 1.0), -np.arange(1.0, 7.0 - positive)]
        )
        m = self._with_spectrum(lam, 23 + positive)
        x, dec = project_psd(m)
        u = dec.eigenvectors
        full = (u * np.maximum(dec.eigenvalues, 0.0)) @ u.T
        assert int(np.count_nonzero(dec.eigenvalues > 0)) == positive
        assert np.max(np.abs(x - (full + full.T) / 2.0)) <= 1e-12

    @pytest.mark.parametrize(
        "kernel", [eig_sym, project_psd, cones._project_psd_positive]
    )
    def test_asymmetric_input_warns_and_is_symmetrized(self, kernel):
        m = np.array([[2.0, 1.0, 0.0], [0.5, 1.0, -1.0], [0.0, -1.0, -3.0]])
        with pytest.warns(UserWarning, match="symmetrized"):
            out = kernel(m)
        assert self._bytes(out) == self._bytes(kernel((m + m.T) / 2.0))

    @pytest.mark.parametrize(
        "kernel", [eig_sym, project_psd, cones._project_psd_positive]
    )
    def test_tiny_asymmetry_is_symmetrized_silently(self, kernel):
        m = np.array([[2.0, 1.0], [1.0 + 1e-15, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernel(m)
        assert self._bytes(out) == self._bytes(kernel((m + m.T) / 2.0))

    @pytest.mark.parametrize(
        "kernel", [eig_sym, project_psd, cones._project_psd_positive]
    )
    def test_exactly_symmetric_input_does_not_warn(self, kernel):
        g = rng(24).standard_normal((5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel(g + g.T)

    @staticmethod
    def _bytes(out):
        """Every array of a kernel result, for bitwise comparison."""
        if isinstance(out, tuple):  # (x, decomposition or positive count)
            return [out[0].tobytes()] + TestPsdKernels._bytes(out[1])
        if isinstance(out, int):
            return [out]
        return [out.eigenvalues.tobytes(), out.eigenvectors.tobytes()]


class TestPartialSpectrum:
    """The sweep's partial route: positive eigenpairs only, chosen by the
    previous projection's positive count."""

    @staticmethod
    def _block(n, positive, seed):
        lam = np.concatenate(
            [np.linspace(1.0, 5.0, positive), -np.linspace(0.5, 4.0, n - positive)]
        )
        return TestPsdKernels._with_spectrum(lam, seed)

    @staticmethod
    def _count_eig_sym(monkeypatch):
        calls = [0]
        original = cones.eig_sym

        def counted(m):
            calls[0] += 1
            return original(m)

        monkeypatch.setattr(cones, "eig_sym", counted)
        return calls

    @pytest.mark.parametrize(
        "n, positive, hint",
        [
            (100, 0, 0),
            (100, 1, 1),
            (100, 12, 12),  # the threshold: 8 * 12 <= 100
            (100, 40, 2),  # stale hint
            (5, 0, 0),
        ],
    )
    def test_partial_route_matches_full_clamp(self, monkeypatch, n, positive, hint):
        m = self._block(n, positive, 30 + positive)
        cone = ConeSpec(psd_dims=(n,))
        full, _ = cones._project_ambient(cone, m.ravel())
        calls = self._count_eig_sym(monkeypatch)
        ranks = [hint]
        part, _ = cones._project_ambient(cone, m.ravel(), ranks=ranks)
        assert calls[0] == 0
        assert ranks == [positive]
        assert np.max(np.abs(part - full)) <= 1e-12 * np.linalg.norm(m)
        x = part.reshape(n, n)
        assert np.array_equal(x, x.T)
        if positive == 0:
            assert not np.any(part)

    def test_full_route_above_threshold_and_without_hint(self, monkeypatch):
        m = self._block(100, 13, 50)
        cone = ConeSpec(psd_dims=(100,))
        ref, _ = cones._project_ambient(cone, m.ravel())
        calls = self._count_eig_sym(monkeypatch)
        for hint in (None, 13):  # 8 * 13 > 100
            ranks = [hint]
            out, _ = cones._project_ambient(cone, m.ravel(), ranks=ranks)
            assert ranks == [13]
            assert np.array_equal(out, ref)
        assert calls[0] == 2

    def test_hints_per_block_and_want_info_takes_full_route(self, monkeypatch):
        cone = ConeSpec(psd_dims=(16, 3), soc_dims=(3,), nonneg=2)
        v = random_point(rng(51), cone).ravel()
        ref, ref_infos = cones._project_ambient(cone, v, want_info=True)
        positive = [int(np.count_nonzero(d.eigenvalues > 0)) for d in ref_infos[:2]]
        calls = self._count_eig_sym(monkeypatch)
        ranks = [None] * 4
        out, _ = cones._project_ambient(cone, v, ranks=ranks)
        assert calls[0] == 2 and np.array_equal(out, ref)
        assert ranks == positive + [None, None]
        ranks = [0, 0, None, None]
        out, infos = cones._project_ambient(cone, v, want_info=True, ranks=ranks)
        assert calls[0] == 4 and np.array_equal(out, ref) and len(infos) == 4
        ranks = [0, 0, None, None]
        out, _ = cones._project_ambient(cone, v, ranks=ranks)
        assert calls[0] == 4
        assert ranks == positive + [None, None]
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.linalg.norm(v)

    def test_nonfinite_rejected(self):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = np.inf
        with pytest.raises(InputError):
            cones._project_psd_positive(m)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, n)), 0, np.zeros(n, dtype=int), 3

        monkeypatch.setattr(cones.scipy.linalg.lapack, "dsyevx", failing)
        with pytest.raises(cp.NumericalError, match="info 3"):
            cones._project_psd_positive(np.eye(4))


class TestAdjointMatrix:
    @staticmethod
    def _map(kind):
        if kind == "theta":
            g = cp.Graph(7, frozenset({(0, 1), (1, 2), (2, 5), (3, 6), (4, 6)}))
            return cp.build_theta(g).a
        if kind == "sos":
            return cp.random_sos_instance(3, 2, "full", seed=5)[0].a
        if kind == "mixed-sdpa":
            from conicproj import io

            return io.parse_sdpa(fixture_text("mixed_blocks.dat-s")).a
        cone = ConeSpec(psd_dims=(4,), soc_dims=(3, 1), nonneg=3)
        return random_affine(rng(25), cone, 5)

    @pytest.mark.parametrize("kind", ["theta", "sos", "mixed-sdpa", "mixed-soc"])
    def test_adjoint_vec_equals_transpose_product(self, kind):
        amap = self._map(kind)
        assert "adjoint_matrix" not in vars(amap)  # built lazily
        y = rng(26).standard_normal(amap.m)
        assert np.array_equal(amap.adjoint_vec(y), amap.matrix.T @ y)
        assert sp.isspmatrix_csr(amap.adjoint_matrix)


class TestProjectSoc:
    def test_inside_cone(self):
        x = project_soc(np.array([3.0, 4.0, 10.0]))
        assert np.allclose(x, [3.0, 4.0, 10.0])

    def test_polar_point_to_apex(self):
        assert np.allclose(project_soc(np.array([0.0, 0.0, -5.0])), 0.0)

    def test_boundary_case_closed_form(self):
        # ((||u|| + t)/2) (u/||u||, 1) with u = (3,4), t = 0
        x = project_soc(np.array([3.0, 4.0, 0.0]))
        assert np.allclose(x, [1.5, 2.0, 2.5])

    def test_boundary_case_against_brute_force(self):
        # the projection of an outside point sits on the boundary ray through
        # the unit direction of u; scan the ray parameter on a fine grid
        p = np.array([3.0, 4.0, 0.0])
        uhat = p[:-1] / np.linalg.norm(p[:-1])
        rs = np.linspace(0.0, 10.0, 100001)
        cand = np.concatenate(
            [rs[:, None] * uhat[None, :], rs[:, None]], axis=1
        )
        d = np.linalg.norm(cand - p, axis=1)
        best = cand[np.argmin(d)]
        assert np.linalg.norm(best - project_soc(p)) <= 2e-4
        assert np.min(d) >= np.linalg.norm(p - project_soc(p)) - 1e-12

    def test_dim_one_degenerates_to_clamp(self):
        assert project_soc(np.array([-2.0])) == np.array([0.0])
        assert project_soc(np.array([2.0])) == np.array([2.0])

    def test_nonexpansive(self):
        r = rng(5)
        for _ in range(50):
            a, b = r.standard_normal(4), r.standard_normal(4)
            assert np.linalg.norm(project_soc(a) - project_soc(b)) <= (
                1.0 + 1e-12
            ) * np.linalg.norm(a - b)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            project_soc(np.array([np.inf, 0.0]))


class TestProjectCone:
    def test_blockwise_composition(self):
        cone = ConeSpec(psd_dims=(2,), soc_dims=(3,), nonneg=2)
        x = BlockPoint(
            cone,
            [np.diag([1.0, -2.0]), np.array([0.0, 0.0, -5.0]), np.array([-1.0, 2.0])],
        )
        p = project_cone(cone, x)
        assert np.allclose(p.blocks[0], np.diag([1.0, 0.0]))
        assert np.allclose(p.blocks[1], 0.0)
        assert np.allclose(p.blocks[2], [0.0, 2.0])

    def test_member_is_fixed_point_and_zero_is_apex(self):
        r = rng(6)
        cone = random_cone(r)
        x = project_cone(cone, random_point(r, cone))
        assert (project_cone(cone, x) - x).norm() <= 1e-10 * (1 + x.norm())
        z = BlockPoint.zeros(cone)
        assert project_cone(cone, z).norm() == 0.0

    def test_shape_mismatch(self):
        cone = ConeSpec(psd_dims=(2,))
        other = ConeSpec(psd_dims=(3,))
        with pytest.raises(InputError):
            project_cone(other, BlockPoint(cone, [np.eye(2)]))


class TestMoreauAndVariational:
    def test_moreau_decomposition(self):
        r = rng(7)
        for _ in range(30):
            cone = random_cone(r)
            x = random_point(r, cone, scale=2.0)
            pk = project_cone(cone, x)
            pp = project_polar(cone, x)
            # polar part is x - P_K(x) exactly, by construction
            assert np.array_equal(pp.ravel(), x.ravel() - pk.ravel())
            assert (pk + pp - x).norm() <= 1e-15 * (1.0 + x.norm())
            assert abs(pk.dot(pp)) <= 1e-10 * (1.0 + x.norm() ** 2)

    def test_polar_examples(self):
        cone = ConeSpec(psd_dims=(2,))
        x = BlockPoint(cone, [np.diag([1.0, -2.0])])
        assert np.allclose(project_polar(cone, x).blocks[0], np.diag([0.0, -2.0]))
        # a member of the polar cone projects to itself
        neg = BlockPoint(cone, [np.diag([-1.0, -3.0])])
        assert (project_polar(cone, neg) - neg).norm() <= 1e-12
        # a cone member maps to zero
        pos = BlockPoint(cone, [np.eye(2)])
        assert project_polar(cone, pos).norm() <= 1e-12

    def test_variational_inequality(self):
        r = rng(8)
        for _ in range(5):
            cone = random_cone(r)
            x = random_point(r, cone, scale=3.0)
            px = project_cone(cone, x)
            for _ in range(100):
                z = project_cone(cone, random_point(r, cone, scale=2.0))
                lhs = (x - px).dot(z - px)
                assert lhs <= 1e-8 * (1.0 + x.norm()) * (1.0 + z.norm())

    def test_nonexpansive_and_idempotent(self):
        r = rng(9)
        for _ in range(25):
            cone = random_cone(r)
            x = random_point(r, cone)
            y = random_point(r, cone)
            px, py = project_cone(cone, x), project_cone(cone, y)
            assert (px - py).norm() <= (1.0 + 1e-12) * (x - y).norm()
            assert (project_cone(cone, px) - px).norm() <= 1e-10 * (1 + px.norm())


class TestProjectAffine:
    def test_hand_example(self):
        # A = [1 1], b = 2, x = 0  ->  (1, 1)
        cone = ConeSpec(nonneg=2)
        amap = AffineMap(cone, sp.csr_matrix(np.array([[1.0, 1.0]])), [2.0])
        p = project_affine(amap, BlockPoint.zeros(cone))
        assert np.allclose(p.blocks[0], [1.0, 1.0])

    def test_feasible_point_fixed(self):
        r = rng(10)
        cone = random_cone(r)
        amap = random_affine(r, cone, 3)
        x = random_point(r, cone)
        p = project_affine(amap, x)
        p2 = project_affine(amap, p)
        assert (p2 - p).norm() <= 1e-10 * (1 + p.norm())

    def test_identity_rows_fully_determined(self):
        cone = ConeSpec(nonneg=3)
        amap = AffineMap(cone, sp.identity(3, format="csr"), [4.0, -1.0, 2.5])
        x = BlockPoint(cone, [np.array([9.0, 9.0, 9.0])])
        assert np.allclose(project_affine(amap, x).blocks[0], [4.0, -1.0, 2.5])

    def test_residual_and_orthogonality(self):
        r = rng(11)
        for _ in range(10):
            cone = random_cone(r)
            m = int(r.integers(1, 4))
            amap = random_affine(r, cone, m)
            x = random_point(r, cone, scale=2.0)
            p = project_affine(amap, x)
            res = np.linalg.norm(amap.apply(p) - amap.rhs)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(amap.rhs))
            # x - p orthogonal to null(A): null directions by projecting onto
            # the homogeneous subspace
            zero_map = AffineMap(cone, amap.matrix, np.zeros(m))
            for _ in range(5):
                d = project_affine(zero_map, random_point(r, cone))
                assert abs((x - p).dot(d)) <= 1e-8 * (1 + x.norm()) * (1 + d.norm())

    def test_rank_deficient_names_pivot(self):
        cone = ConeSpec(nonneg=2)
        rows = np.array([[1.0, 0.0], [2.0, 0.0]])  # dependent rows
        with pytest.raises(FactorizationError) as exc:
            AffineMap(cone, sp.csr_matrix(rows), [1.0, 2.0]).gram
        assert exc.value.pivot is not None

    def test_asymmetric_row_rejected(self):
        cone = ConeSpec(psd_dims=(2,))
        row = np.array([[0.0, 1.0, 0.0, 0.0]])  # only (0,1), not (1,0)
        with pytest.raises(InputError):
            AffineMap(cone, sp.csr_matrix(row), [0.0])


def _fd_jacobian(c, h, eps=1e-6):
    xp, _ = project_psd(c + eps * h)
    xm, _ = project_psd(c - eps * h)
    return (xp - xm) / (2.0 * eps)


class TestPsdJacobian:
    def test_positive_definite_gives_identity(self):
        _, dec = project_psd(np.diag([3.0, 1.0]))
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        assert np.allclose(psd_jacobian_apply(dec, h), h)

    def test_negative_definite_gives_zero(self):
        _, dec = project_psd(np.diag([-3.0, -1.0]))
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        assert np.allclose(psd_jacobian_apply(dec, h), 0.0)

    def test_matches_finite_differences(self):
        r = rng(12)
        checked = 0
        while checked < 50:
            n = int(r.integers(2, 12))
            g = r.standard_normal((n, n))
            c = (g + g.T) / 2.0
            lam = np.linalg.eigvalsh(c)
            if np.min(np.abs(lam)) < 1e-3:  # need a spectral gap at zero
                continue
            gh = r.standard_normal((n, n))
            h = (gh + gh.T) / 2.0
            _, dec = project_psd(c)
            jh = psd_jacobian_apply(dec, h)
            fd = _fd_jacobian(c, h)
            assert np.linalg.norm(jh - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))
            checked += 1

    def test_linear_and_psd_as_operator(self):
        r = rng(13)
        g = r.standard_normal((6, 6))
        c = (g + g.T) / 2.0
        _, dec = project_psd(c)
        h1 = r.standard_normal((6, 6))
        h1 = (h1 + h1.T) / 2.0
        h2 = r.standard_normal((6, 6))
        h2 = (h2 + h2.T) / 2.0
        lhs = psd_jacobian_apply(dec, 2.0 * h1 - 3.0 * h2)
        rhs = 2.0 * psd_jacobian_apply(dec, h1) - 3.0 * psd_jacobian_apply(dec, h2)
        assert np.allclose(lhs, rhs)
        # <H, J(H)> >= 0
        for h in (h1, h2):
            assert np.vdot(h, psd_jacobian_apply(dec, h)) >= -1e-12

    @staticmethod
    def _dense(dec, h):
        # V (Omega o V'HV) V' with the full n x n weight matrix, the same
        # near-zero cut, and sym(H)
        lam, v = dec.eigenvalues, dec.eigenvectors
        n = lam.size
        band = 1e-10 * (1.0 + np.max(np.abs(lam)))
        cut = band if np.min(np.abs(lam)) < band else 0.0
        r = int(np.count_nonzero(lam > cut))
        omega = np.zeros((n, n))
        omega[:r, :r] = 1.0
        frac = lam[:r, None] / (lam[:r, None] - lam[None, r:])
        omega[:r, r:] = frac
        omega[r:, :r] = frac.T
        hs = (h + h.T) / 2.0
        return v @ (omega * (v.T @ hs @ v)) @ v.T

    @staticmethod
    def _spectral_point(r, lam):
        q, _ = np.linalg.qr(r.standard_normal((lam.size, lam.size)))
        c = (q * lam) @ q.T
        return (c + c.T) / 2.0

    @pytest.mark.parametrize(
        "n, rank",
        sorted(
            {(n, k) for n in (1, 5, 56, 120) for k in (0, 1, n // 2, n - 1, n)}
        ),
    )
    def test_rank_aware_matches_dense(self, n, rank):
        r = rng(1000 + 7 * n + rank)
        lam = np.concatenate(
            [r.uniform(0.5, 2.0, rank), -r.uniform(0.5, 2.0, n - rank)]
        )
        _, dec = project_psd(self._spectral_point(r, lam))
        assert int(np.count_nonzero(dec.eigenvalues > 0)) == rank
        h = r.standard_normal((n, n))
        h = (h + h.T) / 2.0
        jh = psd_jacobian_apply(dec, h)
        dense = self._dense(dec, h)
        assert np.array_equal(jh, jh.T)
        assert np.linalg.norm(jh - dense) <= 1e-13 * np.linalg.norm(dense)
        if rank == 0:
            assert not np.any(jh)

    def test_eigenvalue_inside_cut_band_goes_to_beta(self):
        r = rng(1001)
        # 3e-11 lies below the cut 1e-10 (1 + 2): counted in beta
        lam = np.array([2.0, 1.0, 0.7, 3e-11, -0.4, -1.5])
        _, dec = project_psd(self._spectral_point(r, lam))
        h = r.standard_normal((6, 6))
        h = (h + h.T) / 2.0
        jh = psd_jacobian_apply(dec, h)
        dense = self._dense(dec, h)
        assert np.linalg.norm(jh - dense) <= 1e-13 * np.linalg.norm(dense)
        # putting the tiny eigenvalue in alpha gives a different element
        v, ev = dec.eigenvectors, dec.eigenvalues
        omega = np.zeros((6, 6))
        omega[:4, :4] = 1.0
        omega[:4, 4:] = ev[:4, None] / (ev[:4, None] - ev[None, 4:])
        omega[4:, :4] = omega[:4, 4:].T
        alpha_side = v @ (omega * (v.T @ h @ v)) @ v.T
        assert np.linalg.norm(jh - alpha_side) > 1e-3 * np.linalg.norm(dense)

    def test_asymmetric_direction_gives_symmetric_part_result(self):
        r = rng(1002)
        for rank in (2, 5):  # the positive and the negative side
            lam = np.concatenate(
                [r.uniform(0.5, 2.0, rank), -r.uniform(0.5, 2.0, 7 - rank)]
            )
            _, dec = project_psd(self._spectral_point(r, lam))
            h = r.standard_normal((7, 7))
            jh = psd_jacobian_apply(dec, h)
            assert np.array_equal(jh, psd_jacobian_apply(dec, (h + h.T) / 2.0))
            dense = self._dense(dec, h)
            assert np.linalg.norm(jh - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_dimension_mismatch(self):
        _, dec = project_psd(np.eye(3))
        with pytest.raises(InputError):
            psd_jacobian_apply(dec, np.eye(2))

    @staticmethod
    def _per_call(dec, h):
        # the kernel as it was before the weights were cached on the
        # decomposition: cut, split and Q rebuilt on every call, and the
        # four products run even when the own side is empty
        h = np.asarray(h, dtype=float)
        n = dec.dim
        hs = h.T.copy()
        hs += h
        hs *= 0.5
        lam = dec.eigenvalues
        u = dec.eigenvectors
        cut = 0.0
        if n:
            mag = np.abs(lam)
            band = 1e-10 * (1.0 + float(mag.max()))
            if mag.min() < band:
                cut = band
        r = int(np.count_nonzero(lam > cut))
        positive_side = r <= n - r
        own, other = (
            (slice(0, r), slice(r, n))
            if positive_side
            else (slice(r, n), slice(0, r))
        )
        lam_own = lam[own, None]
        q = np.empty((lam_own.shape[0], n))
        q[:, own] = 0.5
        q[:, other] = lam_own / (lam_own - lam[None, other])
        v = u[:, own]
        w = v @ ((q * (v.T @ hs @ u)) @ u.T)
        jac = w + w.T
        return jac if positive_side else hs - jac

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_weights_computed_once_per_decomposition(self, monkeypatch):
        calls = []
        compute = cones.SpectralDecomp.jacobian_weights.func

        def counted(dec):
            calls.append(dec)
            return compute(dec)

        prop = functools.cached_property(counted)
        prop.__set_name__(cones.SpectralDecomp, "jacobian_weights")
        monkeypatch.setattr(cones.SpectralDecomp, "jacobian_weights", prop)
        r = rng(1003)
        lam = np.array([2.0, 0.5, -0.3, -1.0, -2.5])
        _, dec = project_psd(self._spectral_point(r, lam))
        hs = [r.standard_normal((5, 5)) for _ in range(3)]
        for h in hs:
            assert self._same_bits(
                psd_jacobian_apply(dec, h), self._per_call(dec, h)
            )
        assert calls == [dec]
        side, v, q = dec.jacobian_weights
        assert side and v.shape == (5, 2) and q.shape == (2, 5)
        assert not v.flags.writeable and not q.flags.writeable
        # through the blockwise apply too, and a new decomposition gets
        # its own weights
        _, dec2 = project_psd(self._spectral_point(r, -lam))
        cone = ConeSpec(psd_dims=(5,))
        for _ in range(2):
            cones.cone_jacobian_apply(cone, [dec2], hs[0].ravel())
        assert calls == [dec, dec2]
        assert dec2.jacobian_weights[0] is False

    @pytest.mark.parametrize(
        "lam",
        [
            [-0.5, -1.0, -2.0, -3.0],  # r = 0
            [3.0, 2.0, 1.0, 0.5],  # r = n
            [3e-11, 1e-12, -0.5, -1.0],  # r = 0 through the cut band
            [0.0, 0.0, 0.0],  # the zero matrix: r = 0 through the cut
            [2.0],
            [-2.0],
        ],
        ids=["r0", "rn", "cut_band", "zero", "n1_pos", "n1_neg"],
    )
    def test_empty_side_matches_general_formula_bitwise(self, lam):
        r = rng(1004)
        lam = np.array(lam)
        n = lam.size
        _, dec = project_psd(self._spectral_point(r, lam))
        side, v, q = dec.jacobian_weights
        assert v.shape == (n, 0) and q.shape == (0, n)
        for h in (r.standard_normal((n, n)), np.zeros((n, n))):
            jh = psd_jacobian_apply(dec, h)
            assert self._same_bits(jh, self._per_call(dec, h))
            if side:
                assert not np.any(jh)
            else:
                assert self._same_bits(jh, (h + h.T) / 2.0)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_bitwise_equal_to_per_call_weights(self, symmetric):
        r = rng(1005 + symmetric)
        for trial in range(40):
            n = int(r.integers(1, 40))
            lam = r.standard_normal(n) * 10.0 ** r.uniform(-3, 3)
            if trial % 4 == 0:  # some eigenvalues inside the cut band
                lam[r.integers(0, n)] = 1e-12 * r.standard_normal()
            _, dec = project_psd(self._spectral_point(r, lam))
            for _ in range(2):  # the second product reuses the weights
                h = r.standard_normal((n, n))
                if symmetric:
                    h = (h + h.T) / 2.0
                assert self._same_bits(
                    psd_jacobian_apply(dec, h), self._per_call(dec, h)
                )


class TestSocJacobian:
    def test_matches_finite_differences(self):
        r = rng(14)
        for _ in range(25):
            n = int(r.integers(2, 6))
            x = r.standard_normal(n) * 2.0
            u, t = x[:-1], x[-1]
            if abs(np.linalg.norm(u) - abs(t)) < 1e-3:
                continue
            h = r.standard_normal(n)
            eps = 1e-6
            fd = (cp.project_soc(x + eps * h) - cp.project_soc(x - eps * h)) / (2 * eps)
            assert np.linalg.norm(cp.soc_jacobian_apply(x, h) - fd) <= 1e-5 * (
                1 + np.linalg.norm(fd)
            )


class TestBlockPoint:
    def test_immutable(self):
        cone = ConeSpec(nonneg=2)
        x = BlockPoint(cone, [np.zeros(2)])
        with pytest.raises((ValueError, AttributeError)):
            x.blocks[0][0] = 1.0

    def test_inner_product_is_blockwise(self):
        r = rng(15)
        cone = random_cone(r)
        x, y = random_point(r, cone), random_point(r, cone)
        manual = sum(
            float(np.vdot(a, b)) for a, b in zip(x.blocks, y.blocks)
        )
        assert np.isclose(x.dot(y), manual)
        assert np.isclose(x.dot(y), float(x.ravel() @ y.ravel()))

    def test_shape_validation(self):
        cone = ConeSpec(psd_dims=(2,))
        with pytest.raises(InputError):
            BlockPoint(cone, [np.eye(3)])

    def test_symmetrize_warns(self):
        with pytest.warns(UserWarning):
            cp.symmetrize(np.array([[1.0, 2.0], [1.0, 1.0]]))
