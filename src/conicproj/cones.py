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
so everything is safe to call concurrently.  The one cache on a value type,
``SpectralDecomp.jacobian_weights``, holds read-only arrays derived
deterministically from the spectrum; two threads that race to fill it
compute the same arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

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

    ``eigenvalues`` sorted descending, ``eigenvectors`` the matching
    orthonormal columns.  Column signs are canonicalized (largest-magnitude
    entry positive) for reproducibility.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

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
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    if m.ndim == 2 and np.array_equal(m, m.T):
        return m
    return symmetrize(m)


def eig_sym(m) -> SpectralDecomp:
    """Spectral decomposition with descending eigenvalues.

    The input is symmetrized on ingestion (with a warning beyond the 1e-12
    relative tolerance) unless it is exactly symmetric already; non-finite
    entries and LAPACK failures raise.
    """
    msym = _symmetric_input(m)
    try:
        w, u = np.linalg.eigh(msym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(
            f"eigendecomposition failed for a {msym.shape[0]}x{msym.shape[0]} "
            f"matrix (||M||={np.linalg.norm(msym):.3e}): {exc}"
        ) from exc
    w = w[::-1].copy()
    u = u[:, ::-1]
    # canonical column signs: largest-magnitude entry of each vector positive
    pick = np.abs(u).argmax(axis=0)
    signs = np.sign(u[pick, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = np.ascontiguousarray(u * signs)
    w.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomp(w, u)


# ---------------------------------------------------------------------------
# blockwise projections

# A PSD block whose previous projection kept at most n/8 positive
# eigenvalues is projected from those eigenpairs alone.  Measured with one
# BLAS thread, the partial route wins below that line at every order
# tried from 1 to 150 (at order 100: 0.35-0.40 ms at 0-2 positive eigenvalues and
# 1.0 ms at 12, against 1.3-1.7 ms for the full decomposition); the two
# break even between n/5 and n/4, and at n/4 and above the full
# decomposition is faster (2.7 ms against 1.6 ms at order 100, r = 36).
_PARTIAL_RANK_FRACTION = 8


def project_psd(c) -> tuple[np.ndarray, SpectralDecomp]:
    """Projection onto the PSD cone via the spectral decomposition.

    Returns the projection together with the decomposition of the input so
    that callers can reuse it for generalized Jacobians.  Only the positive
    eigenpairs (a prefix, eigenvalues being descending) enter the
    reconstruction.
    """
    dec = eig_sym(c)
    r = int(np.count_nonzero(dec.eigenvalues > 0.0))
    u = dec.eigenvectors[:, :r]
    x = (u * dec.eigenvalues[:r]) @ u.T
    return (x + x.T) / 2.0, dec


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
    return (x + x.T) / 2.0, r


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


def _project_ambient(
    cone: ConeSpec, v: np.ndarray, want_info: bool = False, ranks=None
):
    """Blockwise projection of a raw ambient vector; the solver hot path.

    Returns (projected vector, per-block info).  Info entries are the
    SpectralDecomp for PSD blocks and the pre-projection block for vector
    blocks; they parametrize the generalized Jacobian at this point.

    ``ranks``, when given, holds one entry per block of ``cone.blocks``:
    the number of positive eigenvalues each PSD block had at the caller's
    previous projection (None before the first).  It is updated in place.
    A PSD block whose entry is at most 1/_PARTIAL_RANK_FRACTION of its
    order is projected from its positive eigenpairs alone
    (:func:`_project_psd_positive`); every other block, and every block
    when ``want_info`` is set, takes the full decomposition.  Both routes
    return the same projection up to rounding, whatever the entry: a stale
    one costs time, not accuracy.
    """
    out = np.empty_like(v)
    infos = [] if want_info else None
    for i, (kind, d, sl) in enumerate(cone.blocks):
        part = v[sl]
        if kind == "psd":
            hint = None if ranks is None else ranks[i]
            if (
                hint is not None
                and not want_info
                and _PARTIAL_RANK_FRACTION * hint <= d
            ):
                x, ranks[i] = _project_psd_positive(part.reshape(d, d))
            else:
                x, dec = project_psd(part.reshape(d, d))
                if want_info:
                    infos.append(dec)
                if ranks is not None:
                    ranks[i] = int(np.count_nonzero(dec.eigenvalues > 0.0))
            out[sl] = x.ravel()
        elif kind == "soc":
            out[sl] = project_soc(part)
            if want_info:
                infos.append(part.copy())
        else:
            np.maximum(part, 0.0, out=out[sl])
            if want_info:
                infos.append(part.copy())
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


class AffineMap:
    """m affine functionals x -> <A_i, x> with right-hand side b.

    Rows are stored as one sparse (m x ambient-dim) matrix acting on
    full-square vectorizations; rows must carry symmetric patterns on matrix
    blocks (an off-diagonal coefficient appears at both (i,j) and (j,i)).
    The transpose A^T is built as CSR on the first adjoint product and
    cached (``adjoint_matrix``), like the Gram factorization (``gram``).
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
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(mat.data))):
            raise InputError("affine map has non-finite entries")
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
        return self.matrix @ x.ravel()

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def adjoint_vec(self, y) -> np.ndarray:
        return self.adjoint_matrix @ np.asarray(y, dtype=float)

    def residual(self, x: BlockPoint) -> np.ndarray:
        return self.apply(x) - self.rhs

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
    when so.  Rank deficiency raises naming the offending pivot.  Large
    non-diagonal systems fall back to a sparse LU instead of a dense
    Cholesky.
    """

    DENSE_LIMIT = 4000

    def __init__(self, amap: AffineMap):
        a = amap.matrix
        g = (a @ a.T).tocoo()
        off = g.row != g.col
        self.m = a.shape[0]
        self._splu = None
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
            self._chol = None
        elif self.m > self.DENSE_LIMIT:
            self.is_diagonal = False
            self.diagonal = None
            self._chol = None
            try:
                self._splu = scipy.sparse.linalg.splu(g.tocsc())
            except RuntimeError as exc:
                raise FactorizationError(
                    f"sparse AA^T factorization failed: {exc}"
                ) from exc
        else:
            self.is_diagonal = False
            self.diagonal = None
            gd = np.asarray(g.todense())
            try:
                self._chol = scipy.linalg.cho_factor(gd, lower=True)
            except scipy.linalg.LinAlgError as exc:
                pivot = _leading_minor_index(exc)
                raise FactorizationError(
                    f"AA^T factorization failed at pivot {pivot}: rows of A "
                    f"are linearly dependent",
                    pivot=pivot,
                ) from exc
            # LAPACK accepts pivots that are positive only through rounding;
            # flag those as rank deficiency too
            piv = np.diag(self._chol[0])
            floor = self.m * np.finfo(float).eps * max(np.max(np.diag(gd)), 1e-300)
            bad = np.nonzero(piv**2 <= floor)[0]
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
        return scipy.linalg.cho_solve(self._chol, r)


def _leading_minor_index(exc) -> int | None:
    import re

    m = re.search(r"(\d+)-th leading minor", str(exc))
    return int(m.group(1)) if m else None


def gram_factorize(amap: AffineMap) -> GramFactorization:
    """Factorize AA^T once (to be reused across iterations)."""
    return amap.gram


def project_affine(
    amap: AffineMap, x: BlockPoint, fact: GramFactorization | None = None
) -> BlockPoint:
    """Projection onto {x: Ax = b}: x - A^T [AA^T]^{-1} (Ax - b)."""
    if fact is None:
        fact = amap.gram
    corr = fact.solve(amap.residual(x))
    return BlockPoint.from_vector(
        amap.cone, x.ravel() - amap.adjoint_vec(corr)
    )


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
    # (H + H^T)/2, bitwise; adding into a copied transpose runs about twice
    # as fast as h + h.T
    hs = h.T.copy()
    hs += h
    hs *= 0.5
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
