"""Problem builders: SOS Gram systems, polynomial minimization relaxations,
Lovasz theta SDPs, nearest-correlation data, and random test generators.

A polynomial p(v) = sum_{|alpha| <= 2d} p_alpha v^alpha of N variables is a
sum of squares iff p(v) = pi(v)' X pi(v) for some PSD Gram matrix X, with
pi the vector of monomials of degree <= d.  Identifying coefficients gives
one linear equation <A_alpha, X> = p_alpha per monomial alpha, where
A_alpha has a one in entry (beta, gamma) iff beta + gamma = alpha.  The
rows of distinct alpha have disjoint supports, so AA^T is diagonal with
positive integer entries (the number of such (beta, gamma) splits).

Random generators use numpy's PCG64 bit generator; seeds are mandatory and
streams are deterministic per seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .cones import AffineMap, BlockPoint, ConeSpec, InputError, eig_sym
from .dualproj import ProjectionProblem, correlation_problem
from .regsolver import LinearConicProblem

__all__ = [
    "Polynomial",
    "MonomialBasis",
    "Graph",
    "monomials_upto",
    "build_sos_feasibility",
    "build_polymin",
    "build_theta",
    "build_nearcorr",
    "motzkin",
    "random_sos_instance",
    "random_polymin_instance",
    "structured_polymin_instance",
    "extract_certificate",
    "expand_gram",
]

SIZE_CAP = 500_000  # guard on C(N+d, N) style counts


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial: exponent multi-index -> coefficient.

    Zero coefficients are dropped on construction; exponents are tuples of
    ``num_vars`` nonnegative ints.
    """

    num_vars: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for alpha, coeff in self.terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.num_vars or any(e < 0 for e in alpha):
                raise InputError(f"bad exponent {alpha} for {self.num_vars} vars")
            c = float(coeff)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        clean = {a: c for a, c in clean.items() if c != 0.0}
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def coefficient_norm(self) -> float:
        return float(np.linalg.norm(list(self.terms.values()) or [0.0]))

    def __call__(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_vars,):
            raise InputError(f"point must have {self.num_vars} coordinates")
        total = 0.0
        for alpha, coeff in self.terms.items():
            total += coeff * float(np.prod(v ** np.array(alpha)))
        return total

    def _binop(self, other, sign):
        if isinstance(other, (int, float)):
            other = Polynomial(self.num_vars, {(0,) * self.num_vars: other})
        if other.num_vars != self.num_vars:
            raise InputError("polynomial arities differ")
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + sign * c
        return Polynomial(self.num_vars, terms)

    def __add__(self, other):
        return self._binop(other, 1.0)

    def __sub__(self, other):
        return self._binop(other, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(
                self.num_vars, {a: c * other for a, c in self.terms.items()}
            )
        if other.num_vars != self.num_vars:
            raise InputError("polynomial arities differ")
        terms: dict = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Polynomial(self.num_vars, terms)

    __rmul__ = __mul__

    def constant_term(self) -> float:
        return self.terms.get((0,) * self.num_vars, 0.0)


def _compositions(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, nvars - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """All exponents with |alpha| <= d in graded lexicographic order
    (ascending total degree, then ascending lexicographic tuple order)."""

    num_vars: int
    degree: int
    exponents: tuple

    @cached_property
    def index(self) -> dict:
        return {a: i for i, a in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)

    def evaluate(self, v) -> np.ndarray:
        """The monomial vector pi(v)."""
        v = np.asarray(v, dtype=float)
        return np.array(
            [float(np.prod(v ** np.array(a))) for a in self.exponents]
        )


def monomials_upto(num_vars: int, degree: int) -> MonomialBasis:
    """Monomial basis of total degree <= degree; C(N+d, N) exponents."""
    if num_vars < 1 or degree < 0:
        raise InputError("need num_vars >= 1 and degree >= 0")
    count = math.comb(num_vars + degree, num_vars)
    if count > SIZE_CAP:
        raise InputError(
            f"basis size C({num_vars + degree},{num_vars}) = {count} exceeds "
            f"the cap {SIZE_CAP}"
        )
    exps = []
    for total in range(degree + 1):
        exps.extend(_compositions(total, num_vars))
    return MonomialBasis(num_vars, degree, tuple(exps))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    num_vertices: int
    edges: frozenset

    def __post_init__(self):
        n = self.num_vertices
        if n < 1:
            raise InputError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge {e} out of range for {n} vertices")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)


# ---------------------------------------------------------------------------
# SOS Gram assembly


def _sos_system(num_vars: int, d: int):
    """Cone, bases and the constraint matrix A of the Gram identification
    p_alpha = <A_alpha, X>; one row per |alpha| <= 2d, columns indexing the
    full-square vectorization of the n x n Gram matrix."""
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


def build_sos_feasibility(p: Polynomial, d: int) -> LinearConicProblem:
    """Feasibility SDP for 'p is a sum of squares' in the degree-d basis:
    zero objective, one row per monomial of degree <= 2d with rhs p_alpha.
    """
    if p.degree > 2 * d:
        raise InputError(
            f"polynomial degree {p.degree} exceeds 2d = {2 * d}"
        )
    cone, basis, basis2, mat = _sos_system(p.num_vars, d)
    b = np.zeros(len(basis2))
    for alpha, coeff in p.terms.items():
        b[basis2.index[alpha]] = coeff
    amap = AffineMap(cone, mat, b, check=False)
    return LinearConicProblem(c=BlockPoint.zeros(cone), a=amap, cone=cone)


def build_polymin(p: Polynomial):
    """SDP relaxation of unconstrained minimization of an even-degree p.

    Maximizing a lower bound r with p - r a sum of squares; the free scalar
    r is eliminated through the constant-monomial row, leaving

        min <A_0, X>  s.t.  <A_alpha, X> = p_alpha  (alpha != 0),  X PSD,

    and the bound is recovered as offset - objective with offset = p_0.
    With N variables and degree 2d the Gram matrix has order C(N+d, N) and
    there are m = C(N+2d, N) - 1 rows, one per nonconstant monomial of
    degree <= 2d: the constant row has been used to eliminate r.
    Returns (problem, offset).
    """
    deg = p.degree
    if deg % 2 != 0 or deg == 0:
        raise InputError(f"polynomial degree must be even positive, got {deg}")
    d = deg // 2
    cone, basis, basis2, mat = _sos_system(p.num_vars, d)
    b = np.zeros(len(basis2))
    for alpha, coeff in p.terms.items():
        b[basis2.index[alpha]] = coeff
    # row 0 is the constant monomial by the graded-lex order
    amap = AffineMap(cone, mat[1:], b[1:], check=False)
    n = len(basis)
    cvec = np.zeros(cone.dim)
    cvec[0] = 1.0  # <A_0, X> touches only the (constant, constant) entry
    c = BlockPoint.from_vector(cone, cvec)
    problem = LinearConicProblem(c=c, a=amap, cone=cone)
    return problem, p.constant_term()


def build_theta(graph: Graph) -> LinearConicProblem:
    """Lovasz theta SDP, stored as a minimization:

        min <-J, X>  s.t.  trace X = 1,  X_ij = 0 on edges,  X PSD,

    so theta(G) = -objective.  The trace row and the edge rows have
    disjoint supports: AA^T = diag(n, 2, ..., 2).
    """
    n = graph.num_vertices
    cone = ConeSpec(psd_dims=(n,))
    edges = graph.sorted_edges()
    m = len(edges) + 1
    rows, cols, vals = [], [], []
    for j in range(n):
        rows.append(0)
        cols.append(j * n + j)
        vals.append(1.0)
    for k, (i, j) in enumerate(edges, start=1):
        rows.extend([k, k])
        cols.extend([i * n + j, j * n + i])
        vals.extend([1.0, 1.0])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(m, n * n))
    b = np.zeros(m)
    b[0] = 1.0
    amap = AffineMap(cone, mat, b, check=False)
    c = BlockPoint(cone, [-np.ones((n, n))])
    return LinearConicProblem(c=c, a=amap, cone=cone)


def build_nearcorr(c) -> ProjectionProblem:
    """Nearest-correlation projection problem (A_i = e_i e_i^T, b = 1)."""
    return correlation_problem(c)


# ---------------------------------------------------------------------------
# named and random instances


def motzkin() -> Polynomial:
    """The Motzkin polynomial 1 + v1^2 v2^2 (v1^2 + v2^2 - 3): nonnegative,
    vanishing at (±1, ±1), and not a sum of squares."""
    return Polynomial(
        2, {(0, 0): 1.0, (4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0}
    )


def _rng(seed) -> np.random.Generator:
    if seed is None:
        raise InputError("a seed is mandatory for the random generators")
    return np.random.Generator(np.random.PCG64(int(seed)))


def random_sos_instance(num_vars: int, d: int, rank: str = "full", seed=None):
    """Random SOS feasibility instance with a planted Gram matrix.

    ``rank='full'``: plants X = Q diag(uniform(0.5, 1.5)) Q' with Q a random
    orthonormal matrix, a well-conditioned interior point.  ``rank='one'``:
    plants X = q q' with a random unit vector (no interior point; solvers
    are expected to lose accuracy here).  b = A vec(X) exactly.
    Returns (problem, planted_X).
    """
    rng = _rng(seed)
    cone, basis, basis2, mat = _sos_system(num_vars, d)
    n = len(basis)
    if rank == "full":
        g = rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        lam = rng.uniform(0.5, 1.5, size=n)
        x = (q * lam) @ q.T
        x = (x + x.T) / 2.0
    elif rank == "one":
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        x = np.outer(q, q)
    else:
        raise InputError(f"rank must be 'full' or 'one', got {rank!r}")
    b = mat @ x.ravel()
    amap = AffineMap(cone, mat, b, check=False)
    problem = LinearConicProblem(c=BlockPoint.zeros(cone), a=amap, cone=cone)
    return problem, x


def random_polymin_instance(num_vars: int, d: int, seed=None) -> Polynomial:
    """Random coercive minimization instance: a unit-norm random polynomial
    of total degree < 2d plus the leading terms sum_i v_i^{2d}."""
    rng = _rng(seed)
    lower = monomials_upto(num_vars, 2 * d - 1)
    coeffs = rng.standard_normal(len(lower))
    coeffs /= np.linalg.norm(coeffs)
    terms = {a: c for a, c in zip(lower.exponents, coeffs)}
    for i in range(num_vars):
        alpha = [0] * num_vars
        alpha[i] = 2 * d
        terms[tuple(alpha)] = terms.get(tuple(alpha), 0.0) + 1.0
    return Polynomial(num_vars, terms)


def structured_polymin_instance(num_vars: int) -> Polynomial:
    """The structured degree-6 minimization family

        p(v) = sum_i (1 - sum_{j<=i} (v_j + v_j^2))^2
             + (1 - sum_j (v_j + v_j^3))^2.
    """
    zero = (0,) * num_vars

    def unit(j, power):
        a = [0] * num_vars
        a[j] = power
        return tuple(a)

    total = Polynomial(num_vars, {})
    inner = Polynomial(num_vars, {zero: 1.0})
    for i in range(num_vars):
        inner = inner - Polynomial(
            num_vars, {unit(i, 1): 1.0, unit(i, 2): 1.0}
        )
        total = total + inner * inner
    last = Polynomial(num_vars, {zero: 1.0})
    for j in range(num_vars):
        last = last - Polynomial(num_vars, {unit(j, 1): 1.0, unit(j, 3): 1.0})
    return total + last * last


# ---------------------------------------------------------------------------
# certificates


def expand_gram(x, basis: MonomialBasis) -> Polynomial:
    """The polynomial pi(v)' X pi(v) with coefficients collected by monomial."""
    x = np.asarray(x, dtype=float)
    n = len(basis)
    if x.shape != (n, n):
        raise InputError(f"Gram matrix shape {x.shape} != ({n}, {n})")
    terms: dict = {}
    for i, beta in enumerate(basis.exponents):
        for j, gamma in enumerate(basis.exponents):
            key = tuple(b + g for b, g in zip(beta, gamma))
            terms[key] = terms.get(key, 0.0) + x[i, j]
    return Polynomial(basis.num_vars, terms)


def extract_certificate(x, basis: MonomialBasis) -> list:
    """Sum-of-squares factors q_k with sum_k q_k^2 = pi' X pi.

    Spectral factorization X = sum_k lam_k u_k u_k', q_k = sqrt(lam_k) u_k'pi.
    Slightly negative eigenvalues (within 1e-8 ||X||) are clamped with a
    warning; anything below that raises.
    """
    x = np.asarray(x, dtype=float)
    dec = eig_sym(x)
    lam = dec.eigenvalues
    scale = max(float(np.linalg.norm(x)), 1e-300)
    if lam[-1] < -1e-8 * scale:
        raise InputError(
            f"Gram matrix is significantly indefinite: lambda_min = "
            f"{lam[-1]:.3e} vs -1e-8 * ||X|| = {-1e-8 * scale:.3e}"
        )
    if lam[-1] < 0:
        warnings.warn(
            "clamped %d slightly negative eigenvalues (worst %.3e)"
            % (int(np.sum(lam < 0)), float(lam[-1])),
            stacklevel=2,
        )
    lam = np.maximum(lam, 0.0)
    out = []
    for k in range(lam.size):
        if lam[k] <= 0.0:
            continue
        coeffs = np.sqrt(lam[k]) * dec.eigenvectors[:, k]
        terms = {
            alpha: c for alpha, c in zip(basis.exponents, coeffs) if c != 0.0
        }
        out.append(Polynomial(basis.num_vars, terms))
    return out
