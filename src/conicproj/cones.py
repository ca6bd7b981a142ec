"""Product-cone geometry.

Projections onto PSD / second-order / nonnegative blocks, onto affine
subspaces, polar decompositions, and the generalized Jacobian of the cone
projection.

Matrix blocks are plain symmetric ndarrays stored full square.  A point of
the ambient space is a :class:`BlockPoint`: an ordered tuple of blocks
conforming to a :class:`ConeSpec`.  The ambient inner product is the sum of
blockwise Frobenius / Euclidean products, which coincides with the dot
product of the full-square vectorizations used throughout.

All functions here are pure and all types are immutable after construction,
so everything is safe to call concurrently, with one exception: the
sweep's per-PSD-block ``_WarmState``, which its ``project``, the one
place where the block's route is chosen, updates in place.  Each state
is owned by one solve, which creates it, and is never shared with
another solve or thread.  The caches on a value type,
``SpectralDecomp``'s descending ``eigenvalues``, sign-canonical
``eigenvectors`` and ``jacobian_weights``, hold read-only arrays derived
deterministically from LAPACK's output; two threads that race to fill one
compute the same arrays.  ``AffineMap`` caches ``adjoint_matrix`` and
``gram`` the same way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse import _sparsetools

__all__ = [
    "InputError",
    "NumericalError",
    "FactorizationError",
    "ConeSpec",
    "BlockPoint",
    "AffineMap",
    "SpectralDecomp",
    "GramFactorization",
    "gram_factorize",
    "symmetrize",
    "eig_sym",
    "project_psd",
    "project_soc",
    "project_cone",
    "project_polar",
    "project_affine",
    "psd_jacobian_apply",
    "soc_jacobian_apply",
    "cone_jacobian_apply",
]


class InputError(ValueError):
    """Malformed data: bad shapes, non-finite entries, broken preconditions."""


class NumericalError(RuntimeError):
    """A numerical kernel failed to produce a usable result."""


class FactorizationError(NumericalError):
    """Factorizing AA^T broke down; ``pivot`` is the 1-based offending minor."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


# The data of a problem must be scalable: with every entry at most
# sqrt(float max) / dim in magnitude, the squared norm of a vector of up to
# dim^2 such entries, as the residual scales 1 + ||b||, 1 + ||c|| and the
# residual products r'r compute it, stays below float max.
_SCALE_ROOT = math.sqrt(np.finfo(float).max)


def _check_scale(values, dim: int, what: str) -> None:
    """Raise InputError when an entry of ``values`` is not finite or
    exceeds sqrt(float max) / ``dim`` in magnitude."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return
    big = float(np.abs(values).max())
    limit = _SCALE_ROOT / dim
    if big <= limit:
        return
    if not math.isfinite(big):
        raise InputError(f"{what} has non-finite entries")
    raise InputError(
        f"{what} has an entry of magnitude {big:.3g}, beyond sqrt(float max) "
        f"/ {dim} = {limit:.3g}: the norms of its residuals could overflow"
    )


# ---------------------------------------------------------------------------
# cone specification and ambient points


def _integers(values, name: str) -> tuple[int, ...]:
    """The values as ints; a non-integral or non-numeric value raises rather
    than being truncated."""
    out = []
    for v in values:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            raise InputError(f"{name} must be integers, got {v!r}")
        out.append(i)
    return tuple(out)


def _check_cap(value, name: str, least: int, below: str) -> int:
    """The iteration cap ``name`` as an int.  A non-integral value raises
    InputError as :func:`_integers` does, and one under ``least`` (0 or 1)
    raises InputError with the message ``below``."""
    (cap,) = _integers((value,), f"{name}: iteration caps")
    if cap < least:
        raise InputError(below)
    return cap


@dataclass(frozen=True)
class ConeSpec:
    """A product cone: PSD blocks x second-order (Lorentz) blocks x R+^k.

    ``psd_dims`` are the matrix orders of the semidefinite blocks,
    ``soc_dims`` the lengths of the second-order blocks (a length-1 block
    degenerates to the nonnegative half line), ``nonneg`` the size of the
    trailing nonnegative orthant.
    """

    psd_dims: tuple[int, ...] = ()
    soc_dims: tuple[int, ...] = ()
    nonneg: int = 0

    def __post_init__(self):
        object.__setattr__(self, "psd_dims", _integers(self.psd_dims, "psd_dims"))
        object.__setattr__(self, "soc_dims", _integers(self.soc_dims, "soc_dims"))
        object.__setattr__(self, "nonneg", _integers((self.nonneg,), "nonneg")[0])
        if any(d < 1 for d in self.psd_dims):
            raise InputError("PSD block dimensions must be positive")
        if any(d < 1 for d in self.soc_dims):
            raise InputError("second-order block dimensions must be >= 1")
        if self.nonneg < 0:
            raise InputError("nonnegative block count must be >= 0")
        if self.dim == 0:
            raise InputError("cone has an empty ambient space")
        # the most float64 entries an array can index and address
        most = np.iinfo(np.intp).max // np.dtype(float).itemsize
        if self.dim > most:
            raise InputError(
                f"cone has ambient dimension {self.dim}, more than the "
                f"{most} entries an array can hold"
            )

    @property
    def dim(self) -> int:
        """Ambient dimension, matrix blocks counted full square (d^2)."""
        return (
            sum(d * d for d in self.psd_dims) + sum(self.soc_dims) + self.nonneg
        )

    @property
    def order(self) -> int:
        """Sum of matrix orders and vector lengths; the `n` of tolerance
        rules of the form ||grad|| <= 1e-7 * n."""
        return sum(self.psd_dims) + sum(self.soc_dims) + self.nonneg

    @cached_property
    def blocks(self) -> tuple[tuple[str, int, slice], ...]:
        """Per-block (kind, size, ambient slice) descriptors, in layout order."""
        out = []
        at = 0
        for d in self.psd_dims:
            out.append(("psd", d, slice(at, at + d * d)))
            at += d * d
        for q in self.soc_dims:
            out.append(("soc", q, slice(at, at + q)))
            at += q
        if self.nonneg:
            out.append(("nonneg", self.nonneg, slice(at, at + self.nonneg)))
        return tuple(out)

    def block_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            (d, d) if kind == "psd" else (d,) for kind, d, _ in self.blocks
        )


class BlockPoint:
    """An element of the ambient space of a :class:`ConeSpec`.

    Holds one ndarray per cone block (2-d for PSD blocks, 1-d otherwise).
    Instances are immutable; arithmetic returns new points.
    """

    __slots__ = ("cone", "blocks")

    def __init__(self, cone: ConeSpec, blocks, copy: bool = True):
        shapes = cone.block_shapes()
        blocks = tuple(blocks)
        if len(blocks) != len(shapes):
            raise InputError(
                f"expected {len(shapes)} blocks, got {len(blocks)}"
            )
        frozen = []
        for arr, shape in zip(blocks, shapes):
            a = np.array(arr, dtype=float, copy=copy)
            if a.shape != shape:
                raise InputError(f"block shape {a.shape} != expected {shape}")
            a.setflags(write=False)
            frozen.append(a)
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "blocks", tuple(frozen))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("BlockPoint is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, cone: ConeSpec) -> "BlockPoint":
        return cls.from_vector(cone, np.zeros(cone.dim))

    @classmethod
    def from_vector(cls, cone: ConeSpec, v) -> "BlockPoint":
        v = np.asarray(v, dtype=float).ravel()
        if v.size != cone.dim:
            raise InputError(f"vector length {v.size} != ambient dim {cone.dim}")
        blocks = []
        for kind, d, sl in cone.blocks:
            part = v[sl]
            blocks.append(part.reshape(d, d) if kind == "psd" else part)
        return cls(cone, blocks)

    # -- linear-space operations --------------------------------------------

    def ravel(self) -> np.ndarray:
        """Full-square vectorization (fresh writable array)."""
        return np.concatenate([np.ravel(b) for b in self.blocks])

    def dot(self, other: "BlockPoint") -> float:
        self._check_mate(other)
        return float(
            sum(np.vdot(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def norm(self) -> float:
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def _check_mate(self, other):
        if not isinstance(other, BlockPoint) or other.cone != self.cone:
            raise InputError("BlockPoint cone specs do not match")

    def __add__(self, other):
        self._check_mate(other)
        return BlockPoint(
            self.cone,
            [a + b for a, b in zip(self.blocks, other.blocks)],
            copy=False,
        )

    def __sub__(self, other):
        self._check_mate(other)
        return BlockPoint(
            self.cone,
            [a - b for a, b in zip(self.blocks, other.blocks)],
            copy=False,
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return BlockPoint(self.cone, [s * a for a in self.blocks], copy=False)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"BlockPoint(cone={self.cone!r}, norm={self.norm():.6g})"


# ---------------------------------------------------------------------------
# symmetric eigendecomposition


_SYMMETRY_TOL = 1e-12


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2, warning when the asymmetry exceeds 1e-12 ||M||."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    skew = m - m.T
    nrm = np.linalg.norm(m)
    if np.linalg.norm(skew) > _SYMMETRY_TOL * max(nrm, 1e-300):
        warnings.warn(
            "matrix symmetrized: asymmetry %.3e exceeds %.1e * ||M||"
            % (np.linalg.norm(skew), _SYMMETRY_TOL),
            stacklevel=2,
        )
    return (m + m.T) / 2.0


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix.

    Holds LAPACK's output as it came: ``raw_values`` ascending and
    ``raw_vectors`` the matching orthonormal columns, with whatever signs
    LAPACK gave them.  The public form, ``eigenvalues`` sorted descending
    and ``eigenvectors`` the matching columns with canonical signs
    (largest-magnitude entry positive, for reproducibility), is computed on
    first read and cached, so the PSD projection, which needs neither,
    does not pay for it.  Every array is read-only.
    """

    raw_values: np.ndarray
    raw_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.raw_values.size

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        w = self.raw_values[::-1].copy()
        w.setflags(write=False)
        return w

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        u = self.raw_vectors[:, ::-1]
        pick = np.abs(u).argmax(axis=0)
        signs = np.sign(u[pick, np.arange(u.shape[1])])
        signs[signs == 0] = 1.0
        u = np.ascontiguousarray(u * signs)
        u.setflags(write=False)
        return u

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T

    @cached_property
    def jacobian_weights(self) -> tuple[bool, np.ndarray, np.ndarray]:
        """(positive_side, V_own, Q) of :func:`psd_jacobian_apply`.

        They depend on the spectrum alone, so the first Jacobian product on
        this decomposition computes them and every later one reuses them.
        Eigenvalues within 1e-10 (1 + max |lam|) of zero, when the spectrum
        comes that close, count in beta with the nonpositive ones.  The own
        side is alpha = {lam > cut} when r = |alpha| <= n - r (then
        ``positive_side``), else beta; ``V_own`` holds its eigenvectors and
        ``Q`` (k x n, k the size of the own side) is 1/2 on own x own and
        lam_i/(lam_i - lam_j) on own x other.  Both arrays are read-only.
        """
        lam = self.eigenvalues
        n = lam.size
        cut = 0.0
        if n:
            mag = np.abs(lam)
            band = 1e-10 * (1.0 + float(mag.max()))
            if mag.min() < band:
                cut = band
        r = int(np.count_nonzero(lam > cut))  # descending: alpha is a prefix
        positive_side = r <= n - r
        own, other = (
            (slice(0, r), slice(r, n))
            if positive_side
            else (slice(r, n), slice(0, r))
        )
        # on beta x alpha, 1 - lam_i/(lam_i - lam_j) = lam_j/(lam_j - lam_i):
        # both sides weigh across by own/(own - other)
        lam_own = lam[own, None]
        q = np.empty((lam_own.shape[0], n))
        q[:, own] = 0.5
        q[:, other] = lam_own / (lam_own - lam[None, other])
        q.setflags(write=False)
        v = self.eigenvectors[:, own]
        v.setflags(write=False)
        return positive_side, v, q


def _symmetric_input(m) -> np.ndarray:
    """The ingestion rule of the eigensolvers: non-finite entries raise, and
    the input is symmetrized (with a warning beyond the 1e-12 relative
    tolerance) unless it is exactly symmetric already."""
    m = np.asarray(m, dtype=float)
    # the entrywise test: a finite m.sum() would prove the same, but keeping
    # an overflowing sum quiet takes an np.errstate that costs more than the
    # sum saves
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    if m.ndim == 2 and m.shape[0] == m.shape[1] and (m == m.T).all():
        return m
    return symmetrize(m)


def _symmetric_part(x: np.ndarray) -> np.ndarray:
    """(x + x^T)/2 as a new C-contiguous array, bit for bit; adding into
    a copied transpose runs about twice as fast as x + x.T."""
    out = x.T.copy()
    out += x
    out *= 0.5
    return out


def eig_sym(m) -> SpectralDecomp:
    """Spectral decomposition with descending eigenvalues.

    One call of LAPACK ``dsyevd`` on the lower triangle, the routine behind
    ``np.linalg.eigh``.  The input is symmetrized on ingestion (with a
    warning beyond the 1e-12 relative tolerance) unless it is exactly
    symmetric already; non-finite entries and LAPACK failures raise.
    """
    msym = _symmetric_input(m)
    w, z, info = scipy.linalg.lapack.dsyevd(msym, compute_v=1, lower=1)
    if info != 0:
        raise NumericalError(
            f"eigendecomposition failed for a {msym.shape[0]}x{msym.shape[0]} "
            f"matrix (||M||={np.linalg.norm(msym):.3e}): LAPACK dsyevd info "
            f"{info}"
        )
    w.setflags(write=False)
    z.setflags(write=False)
    return SpectralDecomp(w, z)


# ---------------------------------------------------------------------------
# blockwise projections

# A PSD block whose previous projection kept at most n/8 positive
# eigenvalues is projected from those eigenpairs alone.  Measured with one
# BLAS thread (medians of 15 rounds) against the full route of
# :func:`project_psd`, which skips the sign canonicalization, the partial
# route takes this share of the full route's time:
#
#     r        order 21   order 36   order 100
#     n/8      0.67       0.66       0.84 (0.95 against 1.13 ms)
#     n/5      0.74       0.91       1.17
#     n/4      0.85       0.95       1.37
#
# So it wins at n/8 at every order; at order 100 the two break even
# between n/8 and n/5, and at smaller orders near n/4.
_PARTIAL_RANK_FRACTION = 8


def project_psd(c) -> tuple[np.ndarray, SpectralDecomp]:
    """Projection onto the PSD cone via the spectral decomposition.

    Returns the projection together with the decomposition of the input so
    that callers can reuse it for generalized Jacobians.  Only the positive
    eigenpairs enter the reconstruction, in descending order.  Column signs
    cancel in U diag(lam) U^T and a sign flip is exact, so LAPACK's raw
    columns give the same bits as the canonical ones without paying for
    them.
    """
    dec = eig_sym(c)
    w = dec.raw_values
    n = w.size
    r = int(np.count_nonzero(w > 0.0))  # ascending: the positive ones end it
    # descending and C-contiguous like the canonical columns: numpy 1.x runs
    # a product with a reversed view through its own loop instead of BLAS,
    # slower and summing in another order
    u = np.ascontiguousarray(dec.raw_vectors[:, n - r :][:, ::-1])
    x = (u * w[n - r :][::-1]) @ u.T
    return _symmetric_part(x), dec


def _project_psd_positive(c) -> tuple[np.ndarray, int]:
    """Projection onto the PSD cone from the positive eigenpairs alone.

    LAPACK ``dsyevx`` finds the eigenvalues in (0, inf) by bisection and
    their vectors by inverse iteration, after the same O(n^3) tridiagonal
    reduction as a full decomposition but without its O(n^3) eigenvector
    work; with r positive eigenvalues the rest costs O(n^2 r).  Same
    ingestion rule as :func:`eig_sym`.  Returns (projection, r).
    """
    msym = _symmetric_input(c)
    w, z, r, _, info = scipy.linalg.lapack.dsyevx(
        msym, range="V", vl=0.0, vu=np.inf
    )
    if info != 0:
        raise NumericalError(
            f"partial eigendecomposition failed for a {msym.shape[0]}x"
            f"{msym.shape[0]} matrix (||M||={np.linalg.norm(msym):.3e}): "
            f"LAPACK dsyevx info {info}"
        )
    u = z[:, :r]
    x = (u * w[:r]) @ u.T
    return _symmetric_part(x), r


# A PSD block of at least this order whose state holds the eigenbasis of an
# earlier full decomposition is projected from that basis (the warm route
# of _project_psd_warm) before any full decomposition is tried.  Measured
# on a 2-vCPU Intel Xeon (KVM) virtual machine with one OpenBLAS thread,
# along whole sweeps of solve_simple with the route forced at every order
# and the Jacobi steps stopped at the error the sweep allows
# (_WarmState.tol): Motzkin SOS of degree d at the benchmark's outer_tol
# 1e-5, theta of G(n, 0.3) with adapt_t at 1e-7, at most 3000 sweeps.
# Each input the partial route does not take is also projected by
# project_psd back to back.  Medians per call in µs, and the time of the
# routing (failures and back-off included) over that of project_psd on
# those inputs:
#
#     order  sweeps of      success  failure  project_psd  share
#     21     Motzkin d=5       59        9         48       1.38
#     28     Motzkin d=6       68       11         74       1.03
#     36     Motzkin d=7       82       14        119       0.78
#     45     Motzkin d=8      117       20        192       0.69
#     45     theta            132       23        248       0.61
#     55     Motzkin d=9      173       29        293       0.67
#     55     theta            228       33        383       0.64
#     66     Motzkin d=10     223       38        412       0.65
#     66     theta            255       49        521       0.61
#     84     theta            376       75        790       0.57
#     100    theta            455      136       1060       0.56
#     120    theta            630      337       1420       0.55
#
# So the route loses at order 21, does not win at 28 (whole d=6 runs of
# 10000 sweeps, 4 alternating pairs: 0.94-0.97 s routed against
# 0.91-0.94 s plain) and wins from 36 on; the threshold is the smallest
# order measured to win.  Most failures are a change of rank, which the
# kernel sees at once on diag(B) (66 of the 73 failures of Motzkin d=7).
# An attempt fails after _WARM_MAX_STEPS Jacobi steps, or as soon as a step
# fails to lower max |R|: on the benchmark's theta-gnp inputs (order 100)
# the routing ran 1.47-1.56x faster than project_psd with 6 steps,
# 1.60-1.64x with 8 and 1.62-1.63x with 10 (steps run to the floor).
_WARM_MIN_ORDER = 36
_WARM_MAX_STEPS = 8


class _WarmState:
    """One PSD block's memory of the earlier projections of one solve, and
    the one place where the block's route is chosen (:meth:`project`).

    A state is owned by one solve (``regsolver._sweep`` makes one per PSD
    block) and never shared.  :meth:`project` is its one writer: it
    updates every slot but ``tol`` in place at every projection of its
    block, and the kernels it calls only read the state.  ``rank`` is the
    number of positive eigenvalues at the previous projection (None
    before the first), the hint of the partial route.  ``basis`` is the
    eigenbasis V of the block's last full decomposition, positive side
    first, kept when the order is at least ``_WARM_MIN_ORDER`` and
    0 < rank < order (else None), and ``riccati`` the last Riccati
    solution Z relative to V.  ``failures`` counts consecutive failed warm
    attempts and ``wait`` the projections still to pass before the next
    attempt: after f consecutive failures the next attempt waits 2^f - 1
    projections, and a success clears the count.  A change of rank counts
    as a failure too.  Not counting it took the benchmark's
    theta-complement (seed 3) from 229 to 277 sweeps and from 0.253 to
    0.287 s (medians of 4 alternating pairs), and on Motzkin d=7 it cut
    the full decompositions from 173 to 94 but moved neither the 6269
    sweeps nor the time.

    ``tol`` is set by the owner: the Frobenius error that a warm
    projection of the block may make (0, the default, runs the Jacobi
    steps to their floor).  ``error`` is the bound on the error of the
    block's last projection: sqrt(2) ||R||_F after a warm one, which is
    at most ``tol`` or at the floor, and 0 after a full or partial one.
    """

    __slots__ = ("rank", "basis", "riccati", "failures", "wait", "tol", "error")

    def __init__(self):
        self.rank = None
        self.basis = None
        self.riccati = None
        self.failures = 0
        self.wait = 0
        self.tol = 0.0
        self.error = 0.0

    def project(self, m) -> tuple[np.ndarray, SpectralDecomp | None]:
        """Projection of the block ``m`` onto the PSD cone, and the full
        route's decomposition or None.  The route is, in this order:

        1. the positive eigenpairs alone (:func:`_project_psd_positive`)
           when the previous projection kept at most
           1/_PARTIAL_RANK_FRACTION of the order positive;
        2. the warm update of the basis (:func:`_project_psd_warm`) when
           one is held and no back-off is pending; a success keeps its Z
           and error bound, a failure sets the back-off;
        3. else, and when the warm route fails, the full decomposition of
           :func:`project_psd`, whose rank and (on a large enough block)
           basis the state takes, with Z restarting at zero.

        The full and partial routes give the projection up to rounding
        whatever the state: a stale one costs time, not accuracy.  So does
        the warm route at ``tol`` 0; with an allowed error ``tol`` it gives
        the exact projection of a matrix within ``error`` <= ``tol`` of the
        block, which is in the cone.
        """
        n = m.shape[0]
        self.error = 0.0
        if self.rank is not None and _PARTIAL_RANK_FRACTION * self.rank <= n:
            x, self.rank = _project_psd_positive(m)
            self.basis = None
            return x, None
        if self.basis is not None:
            if self.wait:
                self.wait -= 1
            else:
                m = _symmetric_input(m)
                out = _project_psd_warm(m, self)
                if out is not None:
                    x, self.riccati, self.error = out
                    self.failures = 0
                    return x, None
                self.failures += 1
                self.wait = 2**self.failures - 1
        x, dec = project_psd(m)
        w, z = dec.raw_values, dec.raw_vectors
        self.rank = r = int(np.count_nonzero(w > 0.0))  # ascending: positives last
        self.basis = None
        if n >= _WARM_MIN_ORDER and 0 < r < n:
            self.basis = np.concatenate((z[:, n - r :], z[:, : n - r]), axis=1)
            self.riccati = np.zeros((n - r, r))
        return x, dec


def _project_psd_warm(
    msym: np.ndarray, state: _WarmState
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Projection onto the PSD cone from the eigenbasis V of an earlier
    decomposition (Stewart, SIAM Review 15, 1973): (x, Z, sqrt(2) ||R||_F),
    or None when it cannot be certified.  ``msym`` must have passed
    :func:`_symmetric_input`.  The kernel reads ``state.basis``,
    ``state.rank``, ``state.riccati`` and ``state.tol`` and writes nothing:
    :meth:`_WarmState.project` keeps what it returns.

    With r = ``state.rank``, B = V'MV splits into blocks B11 (r x r, the
    previous positive side), B12 = B21' and B22.  The columns of
    [I; Z] span an invariant subspace of B when Z solves the Riccati
    equation R(Z) = B21 + B22 Z - Z B11 - Z B12 Z = 0; at most
    ``_WARM_MAX_STEPS`` Jacobi steps Z <- Z - R_ij / (d2_i - d1_j), with
    d1 and d2 the two parts of diag(B), start from the last solution and
    stop once sqrt(2) ||R||_F <= ``state.tol`` or max |R| <= 1e-15
    max |diag B|, whichever comes first.  Then
    Y1 = [I; Z] and Y2 = [-Z'; I] are orthogonal, and by congruence B is
    positive definite on span Y1 and negative definite on span Y2 exactly
    when LAPACK ``dpotrf`` accepts both S = Y1'BY1 and -Y2'BY2.  With
    I + Z'Z = L1 L1' and S = Ls Ls', U = V Y1 L1^{-T} is orthonormal,
    U'MU = L1^{-1} S L1^{-T}, and the projection U (U'MU) U' = T T' with
    T = V Y1 (L1 L1')^{-1} Ls.  Up to rounding it is the exact projection
    of a matrix within sqrt(2) ||R||_F of M: Y2'BY1 = R, so the coupling
    that it drops between span U and its complement has norm at most
    ||R||_F, and the projection is nonexpansive.  So the result is in the
    cone whatever the tolerance, and M minus it lies within
    sqrt(2) ||R||_F of the polar cone.

    The attempt gives up at once when diag(B) no longer splits as r
    positive entries then n - r negative ones, and fails when a step does
    not lower max |R| (which also stops a diverging iteration before it
    overflows), when the steps run out, or when a certificate is refused.
    """
    v, r = state.basis, state.rank
    b = v.T @ (msym @ v)
    diag = b.diagonal()
    d1, d2 = diag[:r], diag[r:]
    if not ((d1 > 0.0).all() and (d2 < 0.0).all()):
        return None
    lapack = scipy.linalg.lapack
    floor = 1e-15 * max(d1.max(), -d2.min())
    denom = np.subtract.outer(d2, d1)
    b1, b2 = b[:, :r], b[:, r:]
    z = state.riccati.copy()
    by1 = np.empty((b.shape[0], r))
    res = np.empty_like(z)
    last = math.inf
    # a diverging step can overflow before max |R| is seen to grow: the
    # test on it then meets an inf or NaN, and no warning is raised
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(_WARM_MAX_STEPS + 1):
            # B Y1 = [F; B21 + B22 Z] with F = B11 + B12 Z, so
            # R(Z) = (B Y1)_2 - Z F
            np.matmul(b2, z, out=by1)
            by1 += b1
            f = by1[:r]
            np.matmul(z, f, out=res)
            np.subtract(by1[r:], res, out=res)
            big = np.abs(res).max()
            if not big < last:  # also a NaN or inf
                return None
            error = math.sqrt(2.0 * np.vdot(res, res))
            if big <= floor or error <= state.tol:
                break
            if step == _WARM_MAX_STEPS:
                return None
            last = big
            res /= denom
            z -= res
    g = z.T @ z
    g.flat[:: r + 1] += 1.0  # I + Z'Z
    l1, info = lapack.dpotrf(g, lower=1, clean=0)
    if info:
        return None
    s = z.T @ by1[r:]
    s += f  # Y1'BY1
    ls, info = lapack.dpotrf(s, lower=1, clean=1)
    if info:
        return None
    by2 = b1 @ z.T
    np.subtract(b2, by2, out=by2)  # B Y2
    neg = z @ by2[:r]
    neg -= by2[r:]  # -Y2'BY2
    _, info = lapack.dpotrf(neg, lower=1, clean=0)
    if info:
        return None
    # (I + Z'Z)^{-1} Ls = L1^{-T} (L1^{-1} Ls)
    k, _ = lapack.dtrtrs(l1, ls, lower=1, overwrite_b=1)
    k, _ = lapack.dtrtrs(l1, k, lower=1, trans=1, overwrite_b=1)
    y = v[:, r:] @ z
    y += v[:, :r]  # V Y1
    t = y @ k
    return _symmetric_part(t @ t.T), z, error


def project_soc(x) -> np.ndarray:
    """Projection onto the second-order cone {(u, t): ||u|| <= t}.

    Closed form: the point itself inside the cone, the apex inside the polar
    cone, otherwise ((||u||+t)/2) * (u/||u||, 1).  A length-1 block reduces
    to max(x, 0).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InputError("second-order block must be a vector of length >= 1")
    if not np.all(np.isfinite(x)):
        raise InputError("second-order block has non-finite entries")
    if x.size == 1:
        return np.maximum(x, 0.0)
    u, t = x[:-1], x[-1]
    nu = float(np.linalg.norm(u))
    if nu <= t:
        return x.copy()
    if nu <= -t:
        return np.zeros_like(x)
    coef = (nu + t) / 2.0
    out = np.empty_like(x)
    out[:-1] = (coef / nu) * u
    out[-1] = coef
    return out


def _project_ambient(cone: ConeSpec, v: np.ndarray, states=None):
    """Blockwise projection of a raw ambient vector; the solver hot path.

    Returns (projected vector, per-block info).  Info entries are the
    pre-projection block for vector blocks and, for PSD blocks, the
    SpectralDecomp of the full route (:func:`project_psd`); they
    parametrize the generalized Jacobian at this point.

    ``states``, when given, holds one :class:`_WarmState` per PSD block, in
    block order, owned by the caller's solve and updated in place.  Each
    PSD block is then projected by :meth:`_WarmState.project`, which
    chooses its route, and its info is None unless that route was the
    full one.  Without ``states`` every PSD block takes the full route.
    """
    out = np.empty_like(v)
    infos = []
    psd = None if states is None else iter(states)
    for kind, d, sl in cone.blocks:
        part = v[sl]
        if kind == "psd":
            m = part.reshape(d, d)
            x, info = project_psd(m) if psd is None else next(psd).project(m)
            out[sl] = x.ravel()
        elif kind == "soc":
            out[sl] = project_soc(part)
            info = part.copy()
        else:
            np.maximum(part, 0.0, out=out[sl])
            info = part.copy()
        infos.append(info)
    return out, infos


def project_cone(cone: ConeSpec, x: BlockPoint) -> BlockPoint:
    """Projection onto the product cone, block by block."""
    if x.cone != cone:
        raise InputError("point does not conform to the cone spec")
    v, _ = _project_ambient(cone, x.ravel())
    return BlockPoint.from_vector(cone, v)


def project_polar(cone: ConeSpec, x: BlockPoint) -> BlockPoint:
    """Projection onto the polar cone K° = {s: <s,x> <= 0 for all x in K}.

    Uses the Moreau decomposition P_K(x) + P_K°(x) = x, so the identity
    holds exactly by construction.
    """
    return x - project_cone(cone, x)


# ---------------------------------------------------------------------------
# affine maps and the Gram factorization


def _csr_matvec(mat: sp.csr_matrix, v) -> np.ndarray:
    """mat @ v for a vector v, computed by scipy's CSR kernel on the
    matrix's own arrays into a fresh zeroed output: the same bits as
    ``mat @ v`` without the dispatch of the ``@`` operator, which costs
    about as much as the product on the small maps of the sweeps.  The
    kernel reads len(v) unchecked, so a vector of the wrong shape raises
    InputError (a ValueError, as scipy's own check raises) first."""
    rows, cols = mat.shape
    v = np.asarray(v, dtype=float)
    if v.shape != (cols,):
        raise InputError(f"vector shape {v.shape} != ({cols},)")
    out = np.zeros(rows)
    _sparsetools.csr_matvec(rows, cols, mat.indptr, mat.indices, mat.data, v, out)
    return out


class AffineMap:
    """m affine functionals x -> <A_i, x> with right-hand side b.

    Rows are stored as one sparse (m x ambient-dim) matrix acting on
    full-square vectorizations; rows must carry symmetric patterns on matrix
    blocks (an off-diagonal coefficient appears at both (i,j) and (j,i)).
    The transpose A^T is built as CSR on the first adjoint product and
    cached (``adjoint_matrix``), like the Gram factorization (``gram``).
    Every entry of A and b must be finite and at most sqrt(float max) /
    dim in magnitude, dim the ambient dimension, so that the residual
    norms of a problem on the map cannot overflow; else InputError.
    """

    def __init__(self, cone: ConeSpec, matrix, rhs, check: bool = True):
        self.cone = cone
        mat = sp.csr_matrix(matrix, dtype=float)
        if mat.shape[1] != cone.dim:
            raise InputError(
                f"constraint matrix has {mat.shape[1]} columns, ambient dim "
                f"is {cone.dim}"
            )
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.size != mat.shape[0]:
            raise InputError(
                f"rhs length {rhs.size} != number of rows {mat.shape[0]}"
            )
        _check_scale(mat.data, cone.dim, "constraint matrix")
        _check_scale(rhs, cone.dim, "right-hand side")
        if check:
            self._check_row_symmetry(cone, mat)
        mat.sort_indices()
        self.matrix = mat
        self.rhs = rhs
        self.rhs.setflags(write=False)

    @staticmethod
    def _check_row_symmetry(cone, mat):
        perm = np.arange(cone.dim)
        for kind, d, sl in cone.blocks:
            if kind != "psd":
                continue
            idx = np.arange(d * d).reshape(d, d)
            perm[sl] = sl.start + idx.T.ravel()
        diff = mat - mat[:, perm]
        if diff.nnz and np.max(np.abs(diff.data)) > 0:
            bad = int(np.unique(diff.tocoo().row)[0])
            raise InputError(
                f"constraint row {bad} is not symmetric on a matrix block"
            )

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: BlockPoint) -> np.ndarray:
        """A x, i.e. the vector of <A_i, x>."""
        return self.apply_vec(x.ravel())

    def apply_vec(self, v) -> np.ndarray:
        """A v for a raw ambient vector v."""
        return _csr_matvec(self.matrix, v)

    def adjoint_vec(self, y) -> np.ndarray:
        """A'y as a raw ambient vector."""
        return _csr_matvec(self.adjoint_matrix, y)

    @cached_property
    def adjoint_matrix(self) -> sp.csr_matrix:
        """A^T in CSR form, so each adjoint product is one row-wise pass."""
        return self.matrix.T.tocsr()

    @cached_property
    def gram(self) -> "GramFactorization":
        return GramFactorization(self)


class GramFactorization:
    """Factorization of AA^T supporting solves, with a diagonal fast path.

    Reports whether AA^T is exactly diagonal (as it is for the nearest
    correlation, theta and SOS assemblies) and exposes the diagonal entries
    when so.  Large non-diagonal systems fall back to a sparse LU instead
    of a dense Cholesky.  Rank deficiency raises naming the offending
    pivot on every path: a diagonal entry that is not positive, a pivot
    that LAPACK ``dpotrf`` rejects, or a Cholesky or LU pivot that is
    positive only through rounding (at most m eps max diag(AA^T)).
    """

    DENSE_LIMIT = 4000

    def __init__(self, amap: AffineMap):
        a = amap.matrix
        g = (a @ a.T).tocoo()
        off = g.row != g.col
        self.m = a.shape[0]
        self._splu = None
        self._chol = None
        if not np.any(off & (g.data != 0.0)):
            d = np.zeros(self.m)
            d[g.row[~off]] = g.data[~off]
            bad = np.nonzero(d <= 0.0)[0]
            if bad.size:
                raise FactorizationError(
                    f"AA^T is diagonal but entry {bad[0] + 1} is "
                    f"{d[bad[0]]:.3e} <= 0: rank-deficient rows",
                    pivot=int(bad[0]) + 1,
                )
            self.is_diagonal = True
            self.diagonal = d
            self.diagonal.setflags(write=False)
            return
        self.is_diagonal = False
        self.diagonal = None
        if self.m > self.DENSE_LIMIT:
            try:
                self._splu = scipy.sparse.linalg.splu(g.tocsc())
            except RuntimeError as exc:
                raise FactorizationError(
                    f"sparse AA^T factorization failed: {exc}"
                ) from exc
            # piv[k] = |U_jj| with j = perm_c[k]: the pivot of row k of AA^T
            piv = np.abs(self._splu.U.diagonal())[self._splu.perm_c]
        else:
            gd = np.asarray(g.todense())
            factor, info = scipy.linalg.lapack.dpotrf(gd, lower=1, clean=0)
            if info > 0:
                raise FactorizationError(
                    f"AA^T factorization failed at pivot {info}: rows of A "
                    f"are linearly dependent",
                    pivot=int(info),
                )
            self._chol = factor
            piv = np.diag(factor) ** 2
        # LAPACK and SuperLU accept pivots that are positive only through
        # rounding; flag those as rank deficiency too
        floor = self.m * np.finfo(float).eps * max(g.diagonal().max(), 1e-300)
        bad = np.nonzero(piv <= floor)[0]
        if bad.size:
            raise FactorizationError(
                f"AA^T is numerically rank deficient at pivot "
                f"{bad[0] + 1}: rows of A are linearly dependent",
                pivot=int(bad[0]) + 1,
            )

    def solve(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.is_diagonal:
            return r / self.diagonal
        if self._splu is not None:
            return self._splu.solve(r)
        # LAPACK directly: cho_solve would rescan the m x m factor for
        # non-finite entries on every solve
        x, _ = scipy.linalg.lapack.dpotrs(self._chol, r, lower=1)
        return x


def gram_factorize(amap: AffineMap) -> GramFactorization:
    """Factorize AA^T once (to be reused across iterations)."""
    return amap.gram


def _project_affine_vec(amap: AffineMap, v: np.ndarray) -> np.ndarray:
    """Raw-vector projection onto {x: Ax = b}: v - A^T [AA^T]^{-1} (Av - b)."""
    corr = amap.gram.solve(amap.apply_vec(v) - amap.rhs)
    return v - amap.adjoint_vec(corr)


def project_affine(amap: AffineMap, x: BlockPoint) -> BlockPoint:
    """Projection onto {x: Ax = b}: x - A^T [AA^T]^{-1} (Ax - b)."""
    return BlockPoint.from_vector(amap.cone, _project_affine_vec(amap, x.ravel()))


# ---------------------------------------------------------------------------
# generalized Jacobian of the cone projection


def psd_jacobian_apply(dec: SpectralDecomp, h) -> np.ndarray:
    """Apply one Clarke-Jacobian element of the PSD projection to ``h``.

    The element is V (Omega o (V^T H V)) V^T at the point whose
    decomposition is ``dec``, with alpha = {lam > 0} and beta = {lam <= 0}
    (zero eigenvalues go to beta): Omega is 1 on alpha x alpha, 0 on
    beta x beta and lam_i/(lam_i - lam_j) across.  When the spectrum nearly
    touches zero (gap below 1e-10 relative), the split is perturbed
    deterministically toward beta, matching the exact-tie rule.

    It is computed on the smaller side of the split, k = min(r, n - r) with
    r = |alpha|, in O(n^2 k) (Zhao-Sun-Toh 2010, Qi-Sun 2006): with
    r <= n - r, J(H) = W + W^T for W = V_a (Q o (V_a^T H V)) V^T, Q being
    1/2 on alpha x alpha and Omega on alpha x beta; otherwise
    J(H) = H - (W + W^T) with the same construction on beta and the
    weights 1 - Omega.  H is symmetrized first, so an asymmetric H gives
    the result for (H + H^T)/2.  The result is exactly symmetric, linear
    in H, and PSD as an operator.  The split and Q are
    ``dec.jacobian_weights``, computed once per decomposition; when the own
    side is empty (k = 0) the result is the zero matrix or sym(H) itself,
    without the four products.
    """
    h = np.asarray(h, dtype=float)
    n = dec.dim
    if h.shape != (n, n):
        raise InputError(f"direction shape {h.shape} != ({n}, {n})")
    hs = _symmetric_part(h)
    positive_side, v, q = dec.jacobian_weights
    if v.shape[1] == 0:  # empty own side: J is 0 (r = 0) or the identity
        return np.zeros((n, n)) if positive_side else hs
    u = dec.eigenvectors
    w = v @ ((q * (v.T @ hs @ u)) @ u.T)
    jac = w + w.T
    return jac if positive_side else hs - jac


def soc_jacobian_apply(x, h) -> np.ndarray:
    """Apply the (Clarke) Jacobian of the second-order cone projection at
    pre-projection point ``x`` to ``h``; ties at the boundary take the
    smooth branch nearest the interior."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.shape != h.shape or x.ndim != 1:
        raise InputError("SOC Jacobian shape mismatch")
    if x.size == 1:
        return h * (x > 0.0)
    u, t = x[:-1], x[-1]
    nu = float(np.linalg.norm(u))
    if nu <= t:
        return h.copy()
    if nu <= -t:
        return np.zeros_like(h)
    ub = u / nu
    a = t / nu
    hu, ht = h[:-1], h[-1]
    uh = float(ub @ hu)
    out = np.empty_like(h)
    out[:-1] = 0.5 * ((1.0 + a) * hu - a * uh * ub + ht * ub)
    out[-1] = 0.5 * (uh + ht)
    return out


def cone_jacobian_apply(cone: ConeSpec, infos, h: np.ndarray) -> np.ndarray:
    """Blockwise generalized Jacobian of the cone projection (raw vectors).

    ``infos`` is the per-block info returned by the projection at the base
    point (SpectralDecomp for PSD blocks, pre-projection vectors otherwise).
    """
    out = np.empty_like(h)
    for (kind, d, sl), info in zip(cone.blocks, infos):
        if kind == "psd":
            out[sl] = psd_jacobian_apply(info, h[sl].reshape(d, d)).ravel()
        elif kind == "soc":
            out[sl] = soc_jacobian_apply(info, h[sl])
        else:
            out[sl] = h[sl] * (info > 0.0)
    return out
