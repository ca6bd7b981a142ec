import functools
import math
import re
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import conicproj as cp
from conicproj import cones, regsolver
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
from conftest import (
    fixture_text,
    gnp_theta,
    random_affine,
    random_cone,
    random_point,
    rng,
)


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


def _project_with_ranks(cone, v, ranks):
    """``cones._project_ambient`` with the partial route's hints as a list
    of ranks, one per PSD block (None before the first projection), updated
    in place like the states it stands for; the warm route, which needs the
    basis of an earlier call, is never taken."""
    states = [cones._WarmState() for _ in ranks]
    for state, hint in zip(states, ranks):
        state.rank = hint
    out = cones._project_ambient(cone, v, states=states)
    ranks[:] = [state.rank for state in states]
    return out


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
        part, _ = _project_with_ranks(cone, m.ravel(), ranks=ranks)
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
            out, _ = _project_with_ranks(cone, m.ravel(), ranks=ranks)
            assert ranks == [13]
            assert np.array_equal(out, ref)
        assert calls[0] == 2

    def test_each_psd_block_follows_its_own_state(self, monkeypatch):
        # a hint of 0 sends its block to the partial route and no hint to
        # the full one, whatever the other block's state; only the full
        # route leaves a decomposition in infos
        cone = ConeSpec(psd_dims=(16, 3), soc_dims=(3,), nonneg=2)
        v = random_point(rng(51), cone).ravel()
        ref, ref_infos = cones._project_ambient(cone, v)
        positive = [int(np.count_nonzero(d.eigenvalues > 0)) for d in ref_infos[:2]]
        calls = self._count_eig_sym(monkeypatch)
        full = 0
        for hints in ([None, None], [0, None], [None, 0], [0, 0]):
            ranks = list(hints)
            out, infos = _project_with_ranks(cone, v, ranks=ranks)
            full += hints.count(None)
            assert calls[0] == full
            assert ranks == positive
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.linalg.norm(v)
            assert len(infos) == 4
            for hint, info in zip(hints, infos[:2]):
                if hint is None:
                    assert isinstance(info, cones.SpectralDecomp)
                else:
                    assert info is None
            for (_, _, sl), info in zip(cone.blocks[2:], infos[2:]):
                assert _same_bits(info, v[sl])

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


@functools.lru_cache(maxsize=None)
def _theta_sweep_inputs(sweeps):
    """The matrices that the first ``sweeps`` sweeps of theta on a
    G(64, 0.3) graph project (solve_simple with adapt_t), read-only."""
    prob = gnp_theta(64, 0.3, 3)
    inputs = []
    original = regsolver._project_ambient

    def recording(cone, v, *args, **kwargs):
        inputs.append(v.reshape(64, 64).copy())
        return original(cone, v, *args, **kwargs)

    regsolver._project_ambient = recording
    try:
        cp.solve_simple(
            prob, cp.RegParams(inner="one_iteration", max_outer=sweeps, adapt_t=True)
        )
    finally:
        regsolver._project_ambient = original
    for m in inputs:
        m.setflags(write=False)
    return tuple(inputs)


class TestWarmRoute:
    """The sweep's warm route: a certified update of the eigenbasis of the
    block's last full decomposition."""

    @staticmethod
    def _spy(monkeypatch):
        """Count full decompositions and warm attempts, and record whether
        each attempt succeeded."""
        calls = {"eig_sym": 0, "warm": []}
        eig, warm = cones.eig_sym, cones._project_psd_warm

        def counted_eig(m):
            calls["eig_sym"] += 1
            return eig(m)

        def counted_warm(m, state):
            out = warm(m, state)
            calls["warm"].append(out is not None)
            return out

        monkeypatch.setattr(cones, "eig_sym", counted_eig)
        monkeypatch.setattr(cones, "_project_psd_warm", counted_warm)
        return calls

    @staticmethod
    def _project(m, state):
        n = m.shape[0]
        x, _ = cones._project_ambient(ConeSpec(psd_dims=(n,)), m.ravel(), states=[state])
        return x.reshape(n, n)

    def test_sweep_sequence_matches_full_route(self, monkeypatch):
        inputs = _theta_sweep_inputs(400)
        refs = [project_psd(m)[0] for m in inputs]
        calls = self._spy(monkeypatch)
        state = cones._WarmState()
        partial = 0
        for m, ref in zip(inputs, refs):
            attempts, full = len(calls["warm"]), calls["eig_sym"]
            x = self._project(m, state)
            warm = calls["warm"][attempts:] == [True]
            full = calls["eig_sym"] > full  # also after a failed attempt
            partial += not (warm or full)
            assert np.array_equal(x, x.T)
            if full:
                assert _same_bits(x, ref)
            elif warm:
                assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
            else:  # the partial route, as TestPartialSpectrum bounds it
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.linalg.norm(m)
        successes = sum(calls["warm"])
        assert successes >= 50
        assert calls["eig_sym"] + successes + partial == len(inputs)

    def test_inertia_change_takes_full_route(self, monkeypatch):
        m = _theta_sweep_inputs(400)[-1]
        state = cones._WarmState()
        self._project(m, state)
        assert state.basis is not None
        calls = self._spy(monkeypatch)
        x = self._project(-m, state)
        assert calls == {"eig_sym": 1, "warm": [False]}
        ref, dec = project_psd(-m)
        assert _same_bits(x, ref)
        assert state.rank == int(np.count_nonzero(dec.raw_values > 0.0))
        assert (state.failures, state.wait) == (1, 1)

    def test_failures_back_off_exponentially(self, monkeypatch):
        # alternating W and -W fails every attempt: after f consecutive
        # failures the next attempt waits 2^f - 1 projections
        m = _theta_sweep_inputs(400)[-1]
        state = cones._WarmState()
        self._project(m, state)
        calls = self._spy(monkeypatch)
        attempts = []
        for k in range(1, 16):
            before = len(calls["warm"])
            self._project(-m if k % 2 else m, state)
            if len(calls["warm"]) > before:
                attempts.append(k)
        assert attempts == [1, 3, 7, 15]
        assert calls["warm"] == [False] * 4
        assert calls["eig_sym"] == 15

    def test_success_keeps_basis_and_riccati_solution(self, monkeypatch):
        inputs = _theta_sweep_inputs(400)
        state = cones._WarmState()
        self._project(inputs[-2], state)
        basis = state.basis
        calls = self._spy(monkeypatch)
        self._project(inputs[-1], state)
        assert calls == {"eig_sym": 0, "warm": [True]}
        assert state.basis is basis and (state.failures, state.wait) == (0, 0)
        r = state.rank
        assert state.riccati.shape == (64 - r, r) and np.any(state.riccati)

    def test_ingestion_rule_holds_on_the_warm_route(self, monkeypatch):
        m = _theta_sweep_inputs(400)[-1]
        primed = [cones._WarmState() for _ in range(2)]
        for state in primed:
            self._project(m, state)
        calls = self._spy(monkeypatch)
        for bad in (np.nan, np.inf):
            w = m.copy()
            w[3, 5] = w[5, 3] = bad
            with pytest.raises(InputError, match="non-finite"):
                self._project(w, primed[0])
        skew = np.triu(rng(60).standard_normal((64, 64)), 1) * 1e-9
        w = m + skew - skew.T
        with pytest.warns(UserWarning, match="symmetrized"):
            x = self._project(w, primed[0])
        assert _same_bits(x, self._project((w + w.T) / 2.0, primed[1]))
        assert calls == {"eig_sym": 0, "warm": [True, True]}

    def test_blocks_below_the_threshold_keep_no_basis(self):
        for n in (cones._WARM_MIN_ORDER - 1, cones._WARM_MIN_ORDER):
            m = TestPsdKernels._with_spectrum(np.linspace(-1.0, 2.0, n), 70 + n)
            state = cones._WarmState()
            self._project(m, state)
            assert state.rank == int(np.count_nonzero(np.linspace(-1.0, 2.0, n) > 0))
            assert (state.basis is not None) == (n >= cones._WARM_MIN_ORDER)

    def test_inexact_path_within_the_riccati_bound(self, monkeypatch):
        # with an allowed error the steps stop once sqrt(2) ||R||_F <= tol:
        # the result is still in the cone, it lies within that bound of the
        # projection, and M minus it within that bound of the polar cone
        # an early pair of the sweep, where the exact path needs most of its
        # steps
        prev, m = _theta_sweep_inputs(400)[98:100]
        ref = project_psd(m)[0]
        scale = np.linalg.norm(m)
        calls = self._spy(monkeypatch)
        errors = []
        for rel in (1e-3, 1e-6, 1e-9, 0.0):
            state = cones._WarmState()
            self._project(prev, state)
            state.tol = rel * scale
            x = self._project(m, state)
            # R at the Z the steps stopped at, in the basis they ended with
            v, r, z = state.basis, state.rank, state.riccati
            b = v.T @ m @ v
            res = b[r:, :r] + b[r:, r:] @ z - z @ b[:r, :r] - z @ b[:r, r:] @ z
            bound = np.sqrt(2.0) * np.linalg.norm(res)
            assert state.error == pytest.approx(bound, rel=1e-6, abs=1e-14 * scale)
            floor = 1e-15 * np.abs(b.diagonal()).max()
            assert state.error <= state.tol or np.abs(res).max() <= 1.01 * floor
            assert np.linalg.eigvalsh(x)[0] >= -1e-13 * scale
            assert np.linalg.norm(x - ref) <= state.error + 1e-13 * scale
            assert np.linalg.norm(project_psd(m - x)[0]) <= state.error + 1e-13 * scale
            errors.append(state.error)
        assert errors == sorted(errors, reverse=True)
        assert errors[0] > 1e-6 * scale > 1e6 * errors[-1]
        assert calls["warm"] == [True] * 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_steps_give_up_before_they_overflow(self, monkeypatch):
        # gaps of 2e-10 against a coupling of 1e150: the first step sends Z
        # to about 1e160 and the next product overflows.  The attempt fails
        # without a warning, and the full route projects
        n, r = cones._WARM_MIN_ORDER, 20
        m = np.diag(np.r_[np.full(r, 1e-10), np.full(n - r, -1e-10)])
        g = rng(62).standard_normal((n - r, r)) * 1e150
        m[r:, :r], m[:r, r:] = g, g.T
        state = cones._WarmState()
        state.rank, state.basis, state.riccati = r, np.eye(n), np.zeros((n - r, r))
        calls = self._spy(monkeypatch)
        x = self._project(m, state)
        assert calls == {"eig_sym": 1, "warm": [False]}
        assert _same_bits(x, project_psd(m)[0])

    def test_steps_stop_when_the_residual_stops_falling(self, monkeypatch):
        # a coupling as large as the gaps: max |R| grows at the first step,
        # and the attempt gives up there, long before a step cap of 1000
        n, r = cones._WARM_MIN_ORDER, 20
        m = np.diag(np.r_[np.full(r, 1.0), np.full(n - r, -1.0)])
        g = np.full((n - r, r), 1.0)
        m[r:, :r], m[:r, r:] = g, g.T
        state = cones._WarmState()
        state.rank, state.basis, state.riccati = r, np.eye(n), np.zeros((n - r, r))
        products = [0]
        matmul = np.matmul

        def counted(*args, **kwargs):
            products[0] += "out" in kwargs
            return matmul(*args, **kwargs)

        monkeypatch.setattr(cones, "_WARM_MAX_STEPS", 1000)
        monkeypatch.setattr(np, "matmul", counted)
        assert cones._project_psd_warm(m, state) is None
        monkeypatch.undo()
        assert products[0] == 2 * 2  # R at Z = 0 and after one step
        # the state's owner counts the failure and sets the back-off
        state.project(m)
        assert (state.failures, state.wait) == (1, 1)

    def test_the_kernel_only_reads_its_state(self, monkeypatch):
        # a success and the failures of the inertia test and of the step
        # cap alike leave every slot as it was: _WarmState.project is the
        # one writer of the state
        inputs = _theta_sweep_inputs(400)
        state = cones._WarmState()
        self._project(inputs[-2], state)
        state.tol = 1e-9 * np.linalg.norm(inputs[-1])
        state.failures, state.error = 2, 0.5
        state.basis.setflags(write=False)
        state.riccati.setflags(write=False)
        before = {name: getattr(state, name) for name in state.__slots__}
        for m, steps, succeeds in (
            (inputs[-1], 8, True),
            (-inputs[-1], 8, False),
            (inputs[-1], 0, False),
        ):
            monkeypatch.setattr(cones, "_WARM_MAX_STEPS", steps)
            out = cones._project_psd_warm(m, state)
            assert (out is not None) == succeeds
            for name, value in before.items():
                assert getattr(state, name) is value, name


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The PSD kernels as they were before the projection read LAPACK's raw
# eigenpairs: np.linalg.eigh, descending order and canonical signs on every
# call, and (x + x^T)/2; the decomposition is the pair (eigenvalues,
# eigenvectors).  The kernels under test must give the same bits.


def _ref_symmetric_input(m):
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    if m.ndim == 2 and np.array_equal(m, m.T):
        return m
    return cp.symmetrize(m)


def _ref_eig_sym(m):
    w, u = np.linalg.eigh(_ref_symmetric_input(m))
    w = w[::-1].copy()
    u = u[:, ::-1]
    pick = np.abs(u).argmax(axis=0)
    signs = np.sign(u[pick, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return w, np.ascontiguousarray(u * signs)


def _ref_project_psd(c):
    w, u = _ref_eig_sym(c)
    r = int(np.count_nonzero(w > 0.0))
    u_pos = u[:, :r]
    x = (u_pos * w[:r]) @ u_pos.T
    return (x + x.T) / 2.0, (w, u)


def _ref_project_psd_positive(c):
    msym = _ref_symmetric_input(c)
    w, z, r, _, info = scipy.linalg.lapack.dsyevx(msym, range="V", vl=0.0, vu=np.inf)
    assert info == 0
    u = z[:, :r]
    x = (u * w[:r]) @ u.T
    return (x + x.T) / 2.0, r


def _ref_project_ambient(cone, v, ranks=None):
    # ranks: one per PSD block, and the PSD blocks come first
    out = np.empty_like(v)
    infos = []
    for i, (kind, d, sl) in enumerate(cone.blocks):
        part = v[sl]
        if kind == "psd":
            hint = None if ranks is None else ranks[i]
            if hint is not None and 8 * hint <= d:
                x, ranks[i] = _ref_project_psd_positive(part.reshape(d, d))
                infos.append(None)
            else:
                x, dec = _ref_project_psd(part.reshape(d, d))
                infos.append(dec)
                if ranks is not None:
                    ranks[i] = int(np.count_nonzero(dec[0] > 0.0))
            out[sl] = x.ravel()
        elif kind == "soc":
            out[sl] = project_soc(part)
            infos.append(part.copy())
        else:
            np.maximum(part, 0.0, out=out[sl])
            infos.append(part.copy())
    return out, infos


class TestRawEigenpairs:
    """The projection reads LAPACK's raw eigenpairs; the canonical form is
    built only when read.  Both give the reference kernels' bits."""

    @staticmethod
    def _symmetric(r, n):
        g = r.standard_normal((n, n)) * 10.0 ** r.uniform(-3, 3)
        return (g + g.T) / 2.0

    @staticmethod
    def _assert_same_projection(cone, v, stateless, hints):
        # stateless: no states, so every PSD block takes the full route
        # and the hints are not read
        if stateless:
            ranks = ref_ranks = None
            out, infos = cones._project_ambient(cone, v)
        else:
            ranks, ref_ranks = list(hints), list(hints)
            out, infos = _project_with_ranks(cone, v, ranks=ranks)
        ref, ref_infos = _ref_project_ambient(cone, v, ranks=ref_ranks)
        assert _same_bits(out, ref)
        assert ranks == ref_ranks
        assert len(infos) == len(ref_infos)
        for (kind, _, _), info, ref_info in zip(cone.blocks, infos, ref_infos):
            if ref_info is None:  # the partial route
                assert info is None
            elif kind == "psd":
                assert _same_bits(info.eigenvalues, ref_info[0])
                assert _same_bits(info.eigenvectors, ref_info[1])
            else:
                assert _same_bits(info, ref_info)

    @pytest.mark.parametrize("stateless", [False, True])
    @pytest.mark.parametrize("n", list(range(1, 41)) + [100])
    def test_random_blocks_match_reference(self, n, stateless):
        r = rng(2000 + n)
        cone = ConeSpec(psd_dims=(n,))
        for trial in range(4):
            m = self._symmetric(r, n)
            if trial == 1:  # low rank, so that the partial route is taken
                g = r.standard_normal((n, max(1, n // 8)))
                m = g @ g.T - 0.05 * np.eye(n)
            positive = int(np.count_nonzero(np.linalg.eigvalsh(m) > 0))
            for hints in ([None], [0], [positive], [n]):
                self._assert_same_projection(cone, m.ravel(), stateless, hints)

    @pytest.mark.parametrize("stateless", [False, True])
    @pytest.mark.parametrize(
        "m",
        [
            np.eye(5),
            -np.eye(4),
            np.zeros((3, 3)),
            np.diag([2.0, 0.0, 0.0, -1.0, 2.0]),
            np.diag([0.0, 3.0, 0.0]),
            np.ones((4, 4)),  # eigenvalues 4, 0, 0, 0
        ],
        ids=["eye", "minus_eye", "zero", "diag_zeros", "diag_zeros_2", "ones"],
    )
    def test_repeated_and_zero_eigenvalues_match_reference(self, m, stateless):
        cone = ConeSpec(psd_dims=(m.shape[0],))
        for hints in ([None], [0], [m.shape[0]]):
            self._assert_same_projection(cone, m.ravel(), stateless, hints)

    @pytest.mark.parametrize("stateless", [False, True])
    def test_mixed_cone_matches_reference(self, stateless):
        cone = ConeSpec(psd_dims=(16, 3, 1), soc_dims=(3, 1), nonneg=2)
        r = rng(2100)
        for _ in range(5):
            v = random_point(r, cone, scale=3.0).ravel()
            for hints in ([None] * 3, [0, 0, 0], [2, 3, 1]):
                self._assert_same_projection(cone, v, stateless, hints)

    def test_canonical_form_is_built_only_when_read(self):
        r = rng(2200)
        lam = np.array([2.0, 0.7, 1e-12, -0.4, -1.5, -3.0])
        q, _ = np.linalg.qr(r.standard_normal((6, 6)))
        c = (q * lam) @ q.T
        c = (c + c.T) / 2.0
        x, dec = project_psd(c)
        assert not {"eigenvalues", "eigenvectors", "jacobian_weights"} & set(vars(dec))
        ref_x, (w, u) = _ref_project_psd(c)
        assert _same_bits(x, ref_x)
        assert _same_bits(dec.eigenvalues, w) and _same_bits(dec.eigenvectors, u)
        assert {"eigenvalues", "eigenvectors"} <= set(vars(dec))
        ref_dec = types.SimpleNamespace(dim=6, eigenvalues=w, eigenvectors=u)
        weights = dec.jacobian_weights
        ref_weights = cones.SpectralDecomp.jacobian_weights.func(ref_dec)
        assert weights[0] == ref_weights[0]
        assert all(_same_bits(a, b) for a, b in zip(weights[1:], ref_weights[1:]))
        h = r.standard_normal((6, 6))
        assert _same_bits(
            psd_jacobian_apply(dec, h), TestPsdJacobian._per_call(ref_dec, h)
        )
        arrays = (dec.raw_values, dec.raw_vectors, dec.eigenvalues, dec.eigenvectors)
        for arr in (*arrays, *weights[1:]):
            assert not arr.flags.writeable
        assert dec.eigenvalues is dec.eigenvalues  # cached, not rebuilt

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, n)), 2

        monkeypatch.setattr(cones.scipy.linalg.lapack, "dsyevd", failing)
        with pytest.raises(cp.NumericalError, match="info 2"):
            eig_sym(np.eye(4))


class TestSymmetricInput:
    """The eigensolvers' ingestion rule."""

    @pytest.mark.parametrize(
        "bad",
        [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "inf", "minus_inf", "inf_and_minus_inf"],
    )
    def test_nonfinite_entries_raise(self, bad):
        m = np.eye(4)
        for k, value in enumerate(bad):
            m[k, 3 - k] = m[3 - k, k] = value
        with pytest.raises(InputError, match="non-finite"):
            cones._symmetric_input(m)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        m = np.full((3, 3), 1e308)
        m[0, 2] = m[2, 0] = -1e308
        assert cones._symmetric_input(m) is m

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1), (3,), (2, 2, 2)])
    def test_non_square_input_raises(self, shape):
        with pytest.raises(InputError, match="square"):
            cones._symmetric_input(np.ones(shape))

    def test_asymmetric_input_warns_and_is_symmetrized(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.warns(UserWarning, match="symmetrized"):
            out = cones._symmetric_input(m)
        assert _same_bits(out, (m + m.T) / 2.0)


class TestScaleBound:
    """Problem data must stay below sqrt(float max) / dim in magnitude, so
    that no residual norm can overflow."""

    @staticmethod
    def _limits(dim):
        limit = math.sqrt(np.finfo(float).max) / dim
        return limit, math.nextafter(limit, math.inf)

    def test_affine_map_entries(self):
        cone = ConeSpec(nonneg=3)
        ok, beyond = self._limits(3)
        for sign in (1.0, -1.0):
            AffineMap(cone, [[sign * ok, 0.0, 1.0]], [sign * ok])
            with pytest.raises(InputError, match="constraint matrix.*sqrt"):
                AffineMap(cone, [[sign * beyond, 0.0, 1.0]], [1.0])
            with pytest.raises(InputError, match="right-hand side.*sqrt"):
                AffineMap(cone, [[1.0, 0.0, 1.0]], [sign * beyond])

    def test_projection_center(self):
        from conicproj.dualproj import ProjectionProblem

        cone = ConeSpec(psd_dims=(2,), nonneg=1)
        eq = AffineMap(cone, [[1.0, 0.0, 0.0, 1.0, 1.0]], [1.0])
        ok, beyond = self._limits(5)
        for value, fails in ((ok, False), (-beyond, True), (np.nan, True)):
            c = BlockPoint(cone, [np.array([[1.0, value], [value, 1.0]]), [0.0]])
            if fails:
                with pytest.raises(InputError, match="center"):
                    ProjectionProblem(c=c, eq=eq, cone=cone)
            else:
                ProjectionProblem(c=c, eq=eq, cone=cone)

    @pytest.mark.parametrize("block", ["psd", "nonneg"])
    def test_conic_objective(self, block):
        cone = ConeSpec(psd_dims=(2,), nonneg=1)
        amap = AffineMap(cone, [[1.0, 0.0, 0.0, 1.0, 1.0]], [1.0])
        ok, beyond = self._limits(5)
        where = "block 0 (psd)" if block == "psd" else "block 1 (nonneg)"

        def problem(value):
            psd, orthant = np.eye(2), np.array([1.0])
            if block == "psd":
                psd[0, 1] = psd[1, 0] = value
            else:
                orthant[0] = value
            c = BlockPoint(cone, [psd, orthant])
            return cp.LinearConicProblem(c=c, a=amap, cone=cone)

        for sign in (1.0, -1.0):
            assert np.abs(problem(sign * ok).c.ravel()).max() == ok
            with pytest.raises(InputError, match=re.escape(where) + ".*sqrt"):
                problem(sign * beyond)

    def test_dense_matrix_file(self):
        from conicproj import io

        ok, beyond = self._limits(9)
        for value, fails in ((ok, False), (beyond, True), (1e200, True)):
            text = f"1 {value!r} 0\n{value!r} 1 0\n0 0 1\n"
            if fails:
                with pytest.raises(InputError, match="sqrt"):
                    io.read_matrix(text)
            else:
                assert io.read_matrix(text)[0, 1] == value


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


class TestCsrProducts:
    """apply_vec and adjoint_vec call scipy's private CSR kernel on the
    map's arrays; these tests catch a change of that module."""

    @staticmethod
    def _map(kind):
        if kind == "motzkin":
            return cp.build_sos_feasibility(cp.motzkin(), 5).a
        return TestAdjointMatrix._map(kind)

    @pytest.mark.parametrize("kind", ["motzkin", "theta", "mixed-sdpa", "mixed-soc"])
    def test_products_equal_the_operator_bitwise(self, kind):
        amap = self._map(kind)
        r = rng(27)
        n = amap.matrix.shape[1]
        for v, y in (
            (r.standard_normal(n), r.standard_normal(amap.m)),
            (r.standard_normal(2 * n)[::2], r.standard_normal(2 * amap.m)[::2]),
            (np.arange(n), list(range(amap.m))),
        ):
            assert _same_bits(amap.apply_vec(v), amap.matrix @ v)
            assert _same_bits(amap.adjoint_vec(y), amap.adjoint_matrix @ np.asarray(y))
        x = random_point(r, amap.cone)
        assert _same_bits(amap.apply(x), amap.matrix @ x.ravel())

    @pytest.mark.parametrize("kind", ["motzkin", "theta", "mixed-sdpa", "mixed-soc"])
    def test_wrong_length_raises_before_the_kernel(self, kind):
        amap = self._map(kind)
        n = amap.matrix.shape[1]
        for size in (0, n - 1, n + 1):
            with pytest.raises(InputError, match="vector shape"):
                amap.apply_vec(np.ones(size))
        for size in (0, amap.m - 1, amap.m + 1):
            with pytest.raises(ValueError, match="vector shape"):
                amap.adjoint_vec(np.ones(size))
        with pytest.raises(InputError):
            amap.apply_vec(np.ones((n, 1)))


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

    @pytest.mark.parametrize("dense_limit", [4000, 4], ids=["cholesky", "sparse_lu"])
    def test_nearly_dependent_rows_name_the_pivot(self, dense_limit, monkeypatch):
        # row 5 is row 4 up to 1e-13: LAPACK rejects pivot 5 outright, and
        # SuperLU returns |U_55| ~ 1e-15, below the floor m eps max diag(AA')
        monkeypatch.setattr(cones.GramFactorization, "DENSE_LIMIT", dense_limit)
        r = rng(0)
        rows = r.standard_normal((5, 8))
        rows[4] = rows[3] + 1e-13 * r.standard_normal(8)
        amap = AffineMap(ConeSpec(nonneg=8), sp.csr_matrix(rows), np.ones(5))
        with pytest.raises(FactorizationError) as exc:
            cones.GramFactorization(amap)
        assert exc.value.pivot == 5

    @pytest.mark.parametrize("path", ["diagonal", "cholesky", "sparse_lu"])
    def test_solve_refuses_a_vector_not_of_shape_m(self, path, monkeypatch):
        # AA^T of the rows [1 0 0], [0 1 1] is diagonal, of [1 1 0], [0 1 1]
        # it is not, and DENSE_LIMIT 0 sends the latter to SuperLU
        if path == "sparse_lu":
            monkeypatch.setattr(cones.GramFactorization, "DENSE_LIMIT", 0)
        first = [1.0, 0.0, 0.0] if path == "diagonal" else [1.0, 1.0, 0.0]
        rows = sp.csr_matrix(np.array([first, [0.0, 1.0, 1.0]]))
        gram = cones.GramFactorization(AffineMap(ConeSpec(nonneg=3), rows, [1.0, 1.0]))
        assert gram.is_diagonal == (path == "diagonal")
        assert (gram._splu is not None) == (path == "sparse_lu")
        x = gram.solve(np.array([1.0, 2.0]))
        assert np.allclose((rows @ rows.T) @ x, [1.0, 2.0], atol=1e-14)
        for bad in (np.ones(1), np.array(1.0), np.ones(3), np.ones((2, 1)), np.ones((2, 2))):
            with pytest.raises(InputError) as exc:
                gram.solve(bad)
            assert str(exc.value) == f"vector shape {bad.shape} != (2,)"

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
            assert _same_bits(
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
            assert _same_bits(jh, self._per_call(dec, h))
            if side:
                assert not np.any(jh)
            else:
                assert _same_bits(jh, (h + h.T) / 2.0)

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
                assert _same_bits(
                    psd_jacobian_apply(dec, h), self._per_call(dec, h)
                )


class TestConeJacobian:
    @pytest.mark.parametrize(
        "size, count, message",
        [
            (6, 2, "vector shape (6,) != (5,)"),
            (4, 2, "vector shape (4,) != (5,)"),
            (5, 1, "1 block infos for a cone of 2 blocks"),
            (5, 3, "3 block infos for a cone of 2 blocks"),
        ],
        ids=["h-too-long", "h-too-short", "one-info", "three-infos"],
    )
    def test_input_not_conforming_to_the_cone_is_refused(self, size, count, message):
        # on PSD(2) + R+, a 6-vector used to return a last entry read from
        # np.empty_like, a 4-vector to drop the nonneg block, and one info to
        # leave that block of the output unset
        cone = ConeSpec(psd_dims=(2,), nonneg=1)
        _, infos = cones._project_ambient(cone, np.array([2.0, 1.0, 1.0, -1.0, 3.0]))
        _, dec = project_psd(np.array([[2.0, 1.0], [1.0, -1.0]]))
        h = np.array([1.0, 0.0, 0.0, 1.0, 2.0])
        expected = np.append(psd_jacobian_apply(dec, np.eye(2)).ravel(), 2.0)
        assert np.array_equal(cones.cone_jacobian_apply(cone, infos, h), expected)
        with pytest.raises(InputError) as exc:
            cones.cone_jacobian_apply(cone, (infos * 2)[:count], np.ones(size))
        assert str(exc.value) == message


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


# the most float64 entries an array can hold
_MOST = np.iinfo(np.intp).max // 8


class TestConeSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"psd_dims": (2**63,)},
            {"psd_dims": (3037000500,), "nonneg": 2},
            {"psd_dims": (2**31,)},
            {"soc_dims": (_MOST, 1)},
            {"nonneg": _MOST + 1},
        ],
        ids=["order-2^63", "order-3037000500", "order-2^31", "soc", "nonneg"],
    )
    def test_dimension_beyond_an_array_is_rejected(self, kwargs):
        with pytest.raises(InputError, match="entries an array can hold"):
            ConeSpec(**kwargs)

    def test_largest_dimension_is_accepted(self):
        assert ConeSpec(soc_dims=(_MOST - 1,), nonneg=1).dim == _MOST


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
