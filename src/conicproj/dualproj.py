"""Dual projection methods for conic least squares.

The problem is the projection of a point c onto the intersection of a
product cone K with affine equalities A_E x = b_E (and optional affine
inequalities, stored in the sign convention A_I x >= b_I that makes the
multipliers below nonnegative; encode upper bounds by negating rows):

    min 1/2 ||x - c||^2   s.t.  A_E x = b_E,  A_I x >= b_I,  x in K.

Dualizing the affine constraints only gives a concave, differentiable dual
function

    theta(y, z) = b_E'y + b_I'z + (||c||^2 - ||x(y,z)||^2) / 2,
    x(y, z)     = P_K(c + A_E'y + A_I'z),
    grad theta  = b - A x(y, z),

to be maximized over y free and z >= 0.  Three engines are provided: a
fixed-metric gradient ascent with W = [AA^T]^{-1} (iterate-for-iterate
equal to Dykstra's alternating projections), a limited-memory quasi-Newton
method with weak Wolfe line search, and a semismooth Newton-CG method using
one element of the Clarke generalized Jacobian of the cone projection, its
CG preconditioned by [AA^T]^{-1}.  All three run on one loop, ``_ascend``;
each engine supplies only its evaluation of theta and its step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import altschemes
from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    _check_scale,
    _project_ambient,
    cone_jacobian_apply,
    symmetrize,
)
from .report import CONVERGED, NUMERICAL_FAILURE, SolveReport

__all__ = [
    "ProjectionProblem",
    "DualPoint",
    "DualEval",
    "eval_theta",
    "solve_fixed_metric",
    "solve_quasi_newton",
    "solve_ssnewton",
    "solve_projection",
    "nearest_correlation",
    "correlation_problem",
    "rescale_correlation",
]


@dataclass(frozen=True)
class ProjectionProblem:
    """Data of the conic least-squares problem.

    ``c`` is the point being projected, ``eq`` the equality rows and
    ``ineq`` optional inequality rows in the >= orientation.  Every entry
    of ``c`` must be finite and at most sqrt(float max) / dim in
    magnitude, as :class:`AffineMap` requires of the rows; else
    InputError.
    """

    c: BlockPoint
    eq: AffineMap
    cone: ConeSpec
    ineq: AffineMap | None = None

    def __post_init__(self):
        if self.c.cone != self.cone or self.eq.cone != self.cone:
            raise InputError("problem blocks do not conform to the cone spec")
        if self.ineq is not None and self.ineq.cone != self.cone:
            raise InputError("inequality rows do not conform to the cone spec")
        if self.eq.m + self.m_ineq < 1:
            raise InputError("problem has no affine constraints")
        _check_scale(self.c.ravel(), self.cone.dim, "center")

    @property
    def m_eq(self) -> int:
        return self.eq.m

    @property
    def m_ineq(self) -> int:
        return self.ineq.m if self.ineq is not None else 0

    def default_tol(self) -> float:
        """Gradient-norm tolerance 1e-7 * (total conic order)."""
        return 1e-7 * self.cone.order


@dataclass(frozen=True)
class DualPoint:
    """Dual variable (y, z) with z componentwise nonnegative."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.z.size and np.min(self.z) < 0:
            raise InputError("inequality multipliers must be nonnegative")


@dataclass(frozen=True)
class DualEval:
    """theta, its gradient, and the primal candidate x(y, z) in K."""

    theta: float
    grad_y: np.ndarray
    grad_z: np.ndarray
    x: BlockPoint


class _Workspace:
    """Raw-vector view of a ProjectionProblem for the solver hot paths."""

    def __init__(self, problem: ProjectionProblem):
        self.cone = problem.cone
        self.c_vec = problem.c.ravel()
        self.c_sq = float(self.c_vec @ self.c_vec)
        self.eq = problem.eq
        self.ineq = problem.ineq
        self.b_eq = problem.eq.rhs
        self.b_ineq = problem.ineq.rhs if problem.ineq is not None else None

    def eval(self, y, z=None, want_info=False):
        s = self.eq.adjoint_vec(y)
        if z is not None and self.ineq is not None:
            s = s + self.ineq.adjoint_vec(z)
        x, infos = _project_ambient(self.cone, self.c_vec + s, want_info)
        theta = float(self.b_eq @ y)
        if z is not None and self.b_ineq is not None:
            theta += float(self.b_ineq @ z)
        theta += (self.c_sq - float(x @ x)) / 2.0
        gy = self.b_eq - self.eq.apply_vec(x)
        gz = (
            self.b_ineq - self.ineq.apply_vec(x)
            if z is not None and self.ineq is not None
            else None
        )
        return theta, gy, gz, x, infos


def eval_theta(problem: ProjectionProblem, d: DualPoint) -> DualEval:
    """Evaluate the dual function, its gradient and the primal candidate."""
    ws = _Workspace(problem)
    y = np.asarray(d.y, dtype=float)
    z = np.asarray(d.z, dtype=float) if problem.ineq is not None else None
    if y.size != problem.m_eq:
        raise InputError(f"y has length {y.size}, expected {problem.m_eq}")
    if problem.ineq is not None and z.size != problem.m_ineq:
        raise InputError(f"z has length {z.size}, expected {problem.m_ineq}")
    if not np.all(np.isfinite(y)) or (z is not None and not np.all(np.isfinite(z))):
        raise InputError("dual point has non-finite entries")
    theta, gy, gz, x, _ = ws.eval(y, z)
    return DualEval(
        theta=theta,
        grad_y=gy,
        grad_z=gz if gz is not None else np.zeros(0),
        x=BlockPoint.from_vector(problem.cone, x),
    )


# ---------------------------------------------------------------------------
# weak Wolfe line search (shared by quasi-Newton and semismooth Newton)

_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_WOLFE_TRIALS = 40


def _wolfe(phi, f0, slope0, gnorm0):
    """Weak Wolfe search on a descent direction by expansion + bisection.

    ``phi(alpha)`` returns (f, slope, gnorm, payload), gnorm being the
    gradient norm at the trial.  Returns (alpha, payload, ok, fallback).
    When the search fails, which happens at the floating-point floor of f
    where the Armijo test turns into coin flipping, it falls back to the
    trial of lowest f if that is below f0, else to the trial of lowest
    gradient norm if that is below ``gnorm0`` and gives back no more than
    rounding noise in f; ``fallback`` is then True.  ``ok`` is False when
    neither exists.  The search stops early at that floor: once a trial
    step predicts a change in f, alpha * |slope0|, of no more than the
    rounding noise 1e-12 (1 + |f0|) and some trial already qualifies for
    the fallback, the remaining trials could only flip coins, so it
    returns the fallback at once.
    """
    noise = 1e-12 * (1.0 + abs(f0))
    lo, hi = 0.0, np.inf
    alpha = 1.0
    best = None  # lowest f: (f, alpha, payload)
    lowest_grad = None  # lowest gradient norm: (gnorm, f, alpha, payload)

    def fallback():
        if best is not None and best[0] < f0:
            return best[1], best[2], True, True
        if (
            lowest_grad is not None
            and lowest_grad[0] < gnorm0
            and lowest_grad[1] <= f0 + noise
        ):
            return lowest_grad[2], lowest_grad[3], True, True
        return None, None, False, False

    for _ in range(_WOLFE_TRIALS):
        f, slope, gnorm, payload = phi(alpha)
        if np.isfinite(f) and (best is None or f < best[0]):
            best = (f, alpha, payload)
        if lowest_grad is None or gnorm < lowest_grad[0]:
            lowest_grad = (gnorm, f, alpha, payload)
        if not np.isfinite(f) or f > f0 + _WOLFE_C1 * alpha * slope0:
            hi = alpha
        elif slope < _WOLFE_C2 * slope0:
            lo = alpha
        else:
            return alpha, payload, True, False
        if alpha * abs(slope0) <= noise and fallback()[2]:
            break
        alpha = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
        if alpha == 0.0:
            break
    return fallback()


def _line_search(point, v, d, at):
    """Weak Wolfe search on f = -theta from v, where ``at`` = point(v),
    along the ascent direction d.  Returns (v + alpha d, its point,
    fallback) for the step ``_wolfe`` accepts, or None when it fails."""

    def phi(alpha):
        trial = point(v + alpha * d)
        return (
            -trial.theta,
            float(-trial.grad @ d),
            float(np.linalg.norm(trial.grad)),
            trial,
        )

    alpha, trial, ok, fallback = _wolfe(
        phi, -at.theta, float(-at.grad @ d), float(np.linalg.norm(at.grad))
    )
    return (v + alpha * d, trial, fallback) if ok else None


# ---------------------------------------------------------------------------
# the ascent loop shared by the three engines


class _Point(NamedTuple):
    """theta at one dual vector, with the engine's stopping residual, the
    primal candidate x, the gradient and (for Newton) the Jacobian infos."""

    theta: float
    residual: float
    x: np.ndarray
    grad: np.ndarray
    infos: list | None = None


def _ascend(problem, tol, max_iter, v, point, step, record_iterates=False):
    """Maximize theta from the dual vector v: the loop of every engine here.

    ``point(v)`` evaluates theta at v; ``step(v, at)``, with at = point(v),
    makes one ascent step and returns the next (v, point), or None when its
    line search fails.  Stops when the residual is at most ``tol`` (default
    ``problem.default_tol()``), the start point included, or after
    ``max_iter >= 0`` steps; 0 evaluates theta at the start only.  Returns
    (v, point, report) with the status, iterations, primal residual,
    objective, wall time and, if ``record_iterates``, every x visited.
    """
    if max_iter < 0:
        raise InputError(f"max_iter must be nonnegative, got {max_iter}")
    tol = problem.default_tol() if tol is None else float(tol)
    report = SolveReport()
    start = time.perf_counter()
    at = point(v)
    for k in range(max_iter + 1):
        if record_iterates:
            report.iterate_history.append(
                BlockPoint.from_vector(problem.cone, at.x)
            )
        report.iterations = k
        if at.residual <= tol:
            report.status = CONVERGED
            break
        if k == max_iter:
            break
        taken = step(v, at)
        if taken is None:
            report.status = NUMERICAL_FAILURE
            report.message = "Wolfe line search failed to make progress"
            break
        v, at = taken
    report.primal_residual = at.residual
    report.objective = at.theta
    report.wall_time = time.perf_counter() - start
    return v, at, report


# ---------------------------------------------------------------------------
# fixed-metric gradient ascent (the dual face of Dykstra)


def solve_fixed_metric(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 5000,
    y0=None,
    record_iterates: bool = False,
):
    """Gradient ascent on theta in the metric W = [AA^T]^{-1} with unit step.

    Equality constraints only.  The primal iterates x_k = P_K(c + A'y_k)
    coincide iterate for iterate with Dykstra's corrected alternating
    projections.  Stops when ||grad theta|| = ||A x - b|| <= tol or after
    ``max_iter`` steps; ``max_iter = 0`` evaluates theta at y0 only.
    """
    if problem.m_ineq:
        raise InputError("fixed-metric solver handles equality constraints only")
    ws = _Workspace(problem)
    fact = problem.eq.gram

    def point(y):
        theta, g, _, x, _ = ws.eval(y)
        return _Point(theta, float(np.linalg.norm(g)), x, g)

    def step(y, at):
        y = y + fact.solve(at.grad)
        return y, point(y)

    y = np.zeros(problem.m_eq) if y0 is None else np.array(y0, dtype=float)
    y, at, report = _ascend(
        problem, tol, max_iter, y, point, step, record_iterates
    )
    report.inner_iterations = report.iterations
    xbp = BlockPoint.from_vector(problem.cone, at.x)
    return xbp, DualPoint(y, np.zeros(0)), report


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton


_LBFGS_MEMORY = 10


class _Lbfgs:
    """Two-loop recursion over at most ``_LBFGS_MEMORY`` curvature pairs."""

    def __init__(self, pairs=None):
        self.pairs = list(pairs) if pairs else []

    def push(self, s, yv):
        sy = float(s @ yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            self.pairs.append((s, yv, sy))
            if len(self.pairs) > _LBFGS_MEMORY:
                self.pairs.pop(0)

    def direction(self, grad):
        q = -grad.copy()
        if not self.pairs:
            return q
        alphas = []
        for s, yv, sy in reversed(self.pairs):
            a = (s @ q) / sy
            q -= a * yv
            alphas.append(a)
        s, yv, sy = self.pairs[-1]
        q *= sy / float(yv @ yv)
        for (s, yv, sy), a in zip(self.pairs, reversed(alphas)):
            b = (yv @ q) / sy
            q += (a - b) * s
        return q


def _kkt_residual(gy, gz, z):
    if gz is None or gz.size == 0:
        return float(np.linalg.norm(gy))
    # projected-gradient residual on the nonnegative multipliers
    zres = z - np.maximum(z + gz, 0.0)
    return float(np.sqrt(np.linalg.norm(gy) ** 2 + np.linalg.norm(zres) ** 2))


def solve_quasi_newton(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 1000,
    y0=None,
    carry_state: dict | None = None,
):
    """Maximize theta by limited-memory BFGS with a weak Wolfe search.

    Inequality multipliers are kept feasible by clamping z to the orthant
    after each accepted step, starting from z = 0; curvature pairs are
    skipped whenever the clamp activates.  ``carry_state`` lets an outer
    loop retain curvature pairs between restarts.
    """
    ws = _Workspace(problem)
    me, mi = problem.m_eq, problem.m_ineq
    model = _Lbfgs(carry_state.get("pairs") if carry_state else None)
    evals = 0

    def point(v):
        nonlocal evals
        evals += 1
        z = v[me:] if mi else None
        theta, gy, gz, x, _ = ws.eval(v[:me], z)
        g = np.concatenate([gy, gz]) if mi else gy
        return _Point(theta, _kkt_residual(gy, gz, z), x, g)

    def step(v, at):
        nonlocal model
        gf = -at.grad  # the gradient of f = -theta, which the model minimizes
        d = model.direction(gf)
        if float(gf @ d) >= 0.0:  # stale curvature; restart from steepest ascent
            model = _Lbfgs()
            d = -gf
        found = _line_search(point, v, d, at)
        if found is None:
            return None
        v_new, new, fallback = found
        if fallback:
            model = _Lbfgs()
        if mi:
            zc = np.maximum(v_new[me:], 0.0)
            if np.any(zc != v_new[me:]):
                v_new = np.concatenate([v_new[:me], zc])
                return v_new, point(v_new)
        model.push(v_new - v, -new.grad - gf)
        return v_new, new

    v = np.zeros(me + mi)
    if y0 is not None:
        v[:me] = np.asarray(y0, dtype=float)
    v, at, report = _ascend(problem, tol, max_iter, v, point, step)
    if carry_state is not None:
        carry_state["pairs"] = model.pairs
    report.inner_iterations = evals
    xbp = BlockPoint.from_vector(problem.cone, at.x)
    dp = DualPoint(v[:me], np.maximum(v[me:], 0.0) if mi else np.zeros(0))
    return xbp, dp, report


# ---------------------------------------------------------------------------
# semismooth Newton-CG


def _pcg(apply_h, g, eta, cap, precond):
    """Preconditioned CG on H d = g for PSD H; stops at ||Hd - g|| <= eta||g||.

    ``precond`` maps a residual r to M r for a symmetric positive definite
    M approximating H^{-1}; with the identity the iterates are those of
    plain CG, bitwise.  Returns (d, iterations, breakdown).  On curvature
    breakdown the current iterate (or the normalized search direction on
    the first pass) is returned, mirroring standard practice in truncated
    Newton codes.  The name is kept because the benchmark's tracer binds
    ``dualproj._pcg``.
    """
    m = g.size
    d = np.zeros(m)
    r = g.copy()
    gnorm = np.linalg.norm(g)
    target = eta * gnorm
    p = np.array(precond(r))  # a copy: r is updated in place below
    rz = float(r @ p)
    for it in range(cap):
        hp = apply_h(p)
        curve = float(p @ hp)
        if curve <= 1e-14 * float(p @ p):
            if it == 0:
                return p / max(np.linalg.norm(p), 1e-300), it + 1, True
            return d, it + 1, True
        alpha = rz / curve
        d += alpha * p
        r -= alpha * hp
        if np.linalg.norm(r) <= target:
            return d, it + 1, False
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return d, cap, False


def solve_ssnewton(
    problem: ProjectionProblem,
    tol: float | None = None,
    max_iter: int = 200,
    y0=None,
):
    """Semismooth Newton-CG ascent on theta (equality constraints only).

    The generalized Hessian element H = A (dP_K) A^T is accessed only
    through products H d via the cone-projection Jacobian; the Newton system
    H d = grad theta is solved inexactly by CG with forcing sequence
    eta = min(0.1, sqrt(||grad||)), preconditioned by (AA^T)^{-1} from the
    cached factorization: since 0 <= dP_K <= I, H <= AA^T, with equality
    where the projection is the identity, and on assemblies whose AA^T is
    diagonal this scales each row by its Gram entry.  Steps are
    safeguarded by a weak Wolfe search, falling back to a gradient step when
    CG returns a non-ascent direction.
    """
    if problem.m_ineq:
        raise InputError("semismooth Newton handles equality constraints only")
    ws = _Workspace(problem)
    m = problem.m_eq
    evals = cg_iters = fallbacks = 0

    def point(y):
        nonlocal evals
        evals += 1
        theta, g, _, x, infos = ws.eval(y, want_info=True)
        return _Point(theta, float(np.linalg.norm(g)), x, g, infos)

    def step(y, at):
        nonlocal cg_iters, fallbacks

        def apply_h(dvec):
            lifted = ws.eq.adjoint_vec(dvec)
            jac = cone_jacobian_apply(ws.cone, at.infos, lifted)
            return ws.eq.apply_vec(jac)

        g, gnorm = at.grad, at.residual
        eta = min(0.1, np.sqrt(gnorm))
        d, iters, breakdown = _pcg(apply_h, g, eta, 2 * m, ws.eq.gram.solve)
        cg_iters += iters
        if breakdown:
            fallbacks += 1
        if float(g @ d) <= 1e-14 * gnorm * max(np.linalg.norm(d), 1e-300):
            d = g
            fallbacks += 1
        found = _line_search(point, y, d, at)
        return None if found is None else found[:2]

    y = np.zeros(m) if y0 is None else np.array(y0, dtype=float)
    y, at, report = _ascend(problem, tol, max_iter, y, point, step)
    report.inner_iterations = cg_iters or evals  # evals if no CG pass ran
    report.gradient_fallbacks = fallbacks
    xbp = BlockPoint.from_vector(problem.cone, at.x)
    return xbp, DualPoint(y, np.zeros(0)), report


# ---------------------------------------------------------------------------
# nearest correlation matrix


def correlation_problem(c) -> ProjectionProblem:
    """Projection problem for the nearest correlation matrix to ``c``:
    unit diagonal rows A_i = e_i e_i^T (so AA^T = I) over the PSD cone."""
    c = symmetrize(np.asarray(c, dtype=float))
    n = c.shape[0]
    cone = ConeSpec(psd_dims=(n,))
    import scipy.sparse as sp

    diag_flat = np.arange(n) * n + np.arange(n)
    mat = sp.csr_matrix(
        (np.ones(n), (np.arange(n), diag_flat)), shape=(n, n * n)
    )
    amap = AffineMap(cone, mat, np.ones(n))
    return ProjectionProblem(
        c=BlockPoint(cone, [c]), eq=amap, cone=cone
    )


# the one table of dual engines: regsolver and the CLI take the engine names
# from it, and solve_projection looks engines up in it at call time
_SOLVERS = {
    "fixed_metric": solve_fixed_metric,
    "quasi_newton": solve_quasi_newton,
    "ssnewton": solve_ssnewton,
}
PROJECTION_METHODS = (*_SOLVERS, "dykstra", "admm", "alternating")


def solve_projection(
    problem: ProjectionProblem,
    method: str,
    tol: float | None = None,
    max_iter: int | None = None,
    beta: float = 1.0,
):
    """Project by one of ``PROJECTION_METHODS``: a dual engine, or a
    geometric scheme (``beta`` is the ADM splitting parameter).

    ``tol`` (default: ``problem.default_tol()``) must be finite and
    positive, ``max_iter`` (default: the engine's own) at least 1.  Returns
    (x, dual point, report); the dual point is None for the geometric
    schemes, which carry no multipliers.
    """
    tol = problem.default_tol() if tol is None else tol
    if not (np.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be finite and positive, got {tol}")
    kwargs = {"tol": tol}
    if max_iter is not None:
        if max_iter < 1:
            raise InputError("max_iter must be at least 1")
        kwargs["max_iter"] = max_iter
    if method in _SOLVERS:
        return _SOLVERS[method](problem, **kwargs)
    if method not in PROJECTION_METHODS:
        raise InputError(f"unknown projection method {method!r}")
    two = altschemes.TwoSetProblem.from_projection(problem)
    if method == "dykstra":
        x, rep = altschemes.dykstra(two, **kwargs)
    elif method == "admm":
        x, rep = altschemes.admm_projection(two, beta=beta, **kwargs)
    else:
        x, rep = altschemes.alternating_projections(two, **kwargs)
    return x, None, rep


def nearest_correlation(
    c,
    method: str = "ssnewton",
    tol: float | None = None,
    max_iter: int | None = None,
):
    """Nearest correlation matrix to ``c`` (unit diagonal, PSD).

    ``method`` is one of ``PROJECTION_METHODS``: fixed_metric /
    quasi_newton / ssnewton (dual engines) or dykstra / admm / alternating
    (geometric schemes).  Default tolerance is the ||grad theta|| <= 1e-7 n
    rule.  Returns the projected matrix and the solve report; apply
    :func:`rescale_correlation` when an exactly-unit diagonal is required.
    """
    problem = correlation_problem(c)
    x, _, rep = solve_projection(problem, method, tol, max_iter)
    return np.array(x.blocks[0]), rep


def rescale_correlation(x) -> np.ndarray:
    """Exact-unit-diagonal post treatment D^{-1/2} X D^{-1/2}, D = diag(X)."""
    x = np.asarray(x, dtype=float)
    d = np.diag(x)
    if np.any(d <= 0):
        bad = int(np.argmax(d <= 0))
        raise InputError(f"diagonal entry {bad} is {d[bad]:.3e}, must be > 0")
    scale = 1.0 / np.sqrt(d)
    out = x * np.outer(scale, scale)
    np.fill_diagonal(out, 1.0)
    return (out + out.T) / 2.0
