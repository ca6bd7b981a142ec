"""Regularization (proximal / dual augmented Lagrangian) methods for
standard-form linear conic programs

    min <c, x>   s.t.  A x = b,  x in K,

with dual  max b'y  s.t.  A'y - u - c = 0, u in K°.

The outer loop is the proximal iteration p_{k+1} ~ prox(p_k), each prox
point being the solution of a conic least-squares subproblem handled by the
dual projection engines; equivalently, a dual augmented Lagrangian method.
Conic feasibility p in K, u in K° and complementarity <p, u> = 0 hold at
every outer iterate by construction (they come out of one cone projection),
so the overall stopping test is the pair of scaled infeasibilities

    max{ ||A p - b|| / (1 + ||b||),  ||A'y - u - c|| / (1 + ||c||) }.

Both solvers run one outer loop and differ only in its step.
``solve_regularized`` steps by ``prox_eval`` with a dual engine as inner
solver; ``solve_simple`` is the one-inner-iteration scheme, whose step is
the exact y-step maximizing the augmented dual Lagrangian (AA^T factorized
once) followed by one cone projection that yields the new p and u as
by-products.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    GramFactorization,
    InputError,
    _project_ambient,
    gram_factorize,
)
from .dualproj import (
    _SOLVERS,
    ProjectionProblem,
    solve_fixed_metric,
    solve_quasi_newton,
    solve_ssnewton,
)
from .report import (
    CONVERGED,
    ITERATION_LIMIT,
    NUMERICAL_FAILURE,
    SUSPECTED_INFEASIBLE,
    SolveReport,
)

__all__ = [
    "LinearConicProblem",
    "RegParams",
    "IterateTriple",
    "prox_eval",
    "solve_regularized",
    "solve_simple",
    "residuals",
    "gram_factorize",
]

INNER_SOLVERS = (*_SOLVERS, "one_iteration")

# prox-parameter balancing (``adapt_t``): when one scaled residual exceeds
# _T_BAND times the other, t is divided (primal dominates) or multiplied
# (dual dominates) by _T_SCALE and clamped to [_T_MIN, _T_MAX]; the first
# change may come after _T_PERIOD outer iterations, and the waiting period
# doubles after each change
_T_BAND = 10.0
_T_SCALE = 2.0
_T_MIN = 1e-4
_T_MAX = 1e4
_T_PERIOD = 10

# divergence rule: every _DIVERGE_PERIOD outer iterations, report
# suspected_infeasible when ||y|| exceeds _DIVERGE_BOUND while the primal
# residual has not fallen below 0.9 times its value at the previous check
_DIVERGE_PERIOD = 500
_DIVERGE_BOUND = 1e6


@dataclass(frozen=True)
class LinearConicProblem:
    """Objective c, constraints A x = b (rhs stored on the map), cone K.

    Minimization sense throughout.  Every entry of c must be finite, as
    :class:`AffineMap` requires of A and b.
    """

    c: BlockPoint
    a: AffineMap
    cone: ConeSpec

    def __post_init__(self):
        if self.c.cone != self.cone or self.a.cone != self.cone:
            raise InputError("problem blocks do not conform to the cone spec")
        for i, ((kind, _, _), blk) in enumerate(
            zip(self.cone.blocks, self.c.blocks)
        ):
            if not np.all(np.isfinite(blk)):
                raise InputError(
                    f"objective has non-finite entries in block {i} ({kind})"
                )
        if self.a.m < 1:
            raise InputError("problem needs at least one constraint")

    @property
    def b(self) -> np.ndarray:
        return self.a.rhs

    @property
    def m(self) -> int:
        return self.a.m


@dataclass
class RegParams:
    """Tuning knobs of the regularization solvers; the CLI takes its
    defaults from here.

    ``eps0``/``decay`` define the summable inner tolerance schedule
    eps_k = max(outer_tol/10, eps0 / k^decay), decay > 1.  The optional
    prox-parameter balancing ``adapt_t`` (off by default) shrinks t when
    the primal residual dominates and grows it when the dual residual does
    (t multiplies the dual-infeasibility penalty, and the dual residual
    itself scales like 1/t, so the opposite direction self-amplifies); its
    fixed band, factor, clamp and waiting period are the ``_T_*``
    constants of this module.
    """

    t0: float = 1.0
    inner: str = "quasi_newton"
    eps0: float = 1e-4
    decay: float = 3.0
    outer_tol: float = 1e-7
    max_outer: int = 1000
    max_inner: int = 300
    adapt_t: bool = False

    def __post_init__(self):
        for name in ("t0", "outer_tol", "eps0"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InputError(
                    f"{name} must be finite and positive, got {value}"
                )
        if not self.decay > 1:
            raise InputError(
                "decay must exceed 1: the inner tolerance series must be summable"
            )
        if self.inner not in INNER_SOLVERS:
            raise InputError(f"unknown inner solver {self.inner!r}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise InputError(
                f"max_outer ({self.max_outer}) and max_inner "
                f"({self.max_inner}) must be at least 1"
            )

    def inner_tol(self, k: int) -> float:
        """Scaled inner tolerance at outer iteration k (1-based)."""
        return max(self.outer_tol / 10.0, self.eps0 / k**self.decay)


@dataclass(frozen=True)
class IterateTriple:
    """Primal-dual outer iterate (p, y, u) in K x R^m x K°."""

    p: BlockPoint
    y: np.ndarray
    u: BlockPoint


def _residuals_vec(problem, ap, aty, u_vec, c_vec, b_scale, c_scale):
    """Scaled residuals from the products ``ap`` = A p and ``aty`` = A'y."""
    rp = float(np.linalg.norm(ap - problem.a.rhs)) / b_scale
    rd = float(np.linalg.norm(aty - u_vec - c_vec)) / c_scale
    return rp, rd


def residuals(problem: LinearConicProblem, triple: IterateTriple):
    """Scaled primal/dual infeasibilities of an outer iterate:
    (||Ap - b||/(1+||b||), ||A'y - u - c||/(1+||c||))."""
    a = problem.a
    b_scale = 1.0 + float(np.linalg.norm(problem.b))
    c_scale = 1.0 + problem.c.norm()
    return _residuals_vec(
        problem,
        a.apply_vec(triple.p.ravel()),
        a.adjoint_vec(triple.y),
        triple.u.ravel(),
        problem.c.ravel(),
        b_scale,
        c_scale,
    )


def prox_eval(
    problem: LinearConicProblem,
    p: BlockPoint,
    t: float,
    inner: str = RegParams.inner,
    inner_tol: float = 1e-8,
    max_inner: int = RegParams.max_inner,
    y0=None,
    carry_state: dict | None = None,
):
    """One (truncated) proximal step: approximately minimize
    <c, x> + ||x - p||^2 / (2t) over the intersection, via its dual.

    Returns (x, y, u, inner_report) with u recovered from the final cone
    projection, so p + t(A'y - c) = t u + x holds exactly.
    ``inner_tol`` is an absolute bound on ||A x - b||; ``t`` must be
    finite and positive.
    """
    sub = ProjectionProblem(
        c=p, eq=problem.a, cone=problem.cone, scale=t, tilt=problem.c
    )
    if inner == "fixed_metric":
        x, d, rep = solve_fixed_metric(
            sub, tol=inner_tol, max_iter=max_inner, y0=y0
        )
    elif inner == "quasi_newton":
        x, d, rep = solve_quasi_newton(
            sub,
            tol=inner_tol,
            max_iter=max_inner,
            y0=y0,
            carry_state=carry_state,
        )
    elif inner == "ssnewton":
        x, d, rep = solve_ssnewton(
            sub, tol=inner_tol, max_iter=max_inner, y0=y0
        )
    else:
        raise InputError(f"unknown inner solver {inner!r}")
    x_vec = x.ravel()
    w = p.ravel() + t * (problem.a.adjoint_vec(d.y) - problem.c.ravel())
    u_vec = (w - x_vec) / t
    u = BlockPoint.from_vector(problem.cone, u_vec)
    return x, d.y, u, rep


def _outer_loop(problem, params, step, c_scale):
    """The proximal outer loop shared by both solvers.

    ``step(k, t, p, y, u, ap)`` maps the raw-vector iterate, with ``ap`` =
    A p, to the one of outer iteration k and returns (p, y, u, A p, A'y,
    inner_iterations, gradient_fallbacks); the two products serve the
    residual check and, for the next step, A p.  ``c_scale`` = 1 + ||c||
    comes from the caller because the two solvers compute ||c||
    differently (block by block, or in one piece), and the two sums can
    differ in the last bit.  The loop starts at p = y = u = 0 and stops on
    convergence, a non-finite residual, the divergence rule of the
    ``_DIVERGE_*`` constants, or ``params.max_outer``.
    """
    cone = problem.cone
    a = problem.a
    c_vec = problem.c.ravel()
    b_scale = 1.0 + float(np.linalg.norm(problem.b))
    t = params.t0
    p = np.zeros(cone.dim)
    u = np.zeros(cone.dim)
    y = np.zeros(problem.m)
    report = SolveReport()
    start = time.perf_counter()
    status = ITERATION_LIMIT
    ap = a.apply_vec(p)
    rp, rd = _residuals_vec(
        problem, ap, a.adjoint_vec(y), u, c_vec, b_scale, c_scale
    )
    rp_checked = rp
    last_adapt = 0
    adapt_wait = _T_PERIOD
    for k in range(1, params.max_outer + 1):
        p, y, u, ap, aty, inner, fallbacks = step(k, t, p, y, u, ap)
        report.inner_iterations += inner
        report.gradient_fallbacks += fallbacks
        rp, rd = _residuals_vec(problem, ap, aty, u, c_vec, b_scale, c_scale)
        # max() drops a NaN second argument, so a NaN rd must not reach it
        finite = math.isfinite(rp) and math.isfinite(rd)
        worst = max(rp, rd) if finite else math.nan
        report.iterations = k
        if math.isnan(worst):
            status = NUMERICAL_FAILURE
            report.message = "non-finite residual"
            break
        if worst <= params.outer_tol:
            status = CONVERGED
            break
        if k % _DIVERGE_PERIOD == 0:
            stalled = rp > 0.9 * rp_checked
            rp_checked = rp
            if stalled and float(np.linalg.norm(y)) > _DIVERGE_BOUND:
                status = SUSPECTED_INFEASIBLE
                report.message = (
                    "dual variable diverging while primal residual stagnates"
                )
                break
        if (
            params.adapt_t
            and k - last_adapt >= adapt_wait
            and worst > 100.0 * params.outer_tol
        ):
            # every change of t restarts the fixed-point contraction, so the
            # waiting period doubles after each adaptation: finitely many
            # changes, balancing confined to the transient
            if rp > _T_BAND * rd:
                t = max(t / _T_SCALE, _T_MIN)
                last_adapt = k
                adapt_wait *= 2
            elif rd > _T_BAND * rp:
                t = min(t * _T_SCALE, _T_MAX)
                last_adapt = k
                adapt_wait *= 2
    report.status = status
    report.primal_residual = rp
    report.dual_residual = rd
    p_bp = BlockPoint.from_vector(cone, p)
    u_bp = BlockPoint.from_vector(cone, u)
    report.objective = problem.c.dot(p_bp)
    report.wall_time = time.perf_counter() - start
    return IterateTriple(p=p_bp, y=y, u=u_bp), report


def solve_regularized(problem: LinearConicProblem, params: RegParams | None = None):
    """Proximal outer loop with a dual projection method as inner solver.

    The inner solve at outer iteration k is stopped at
    ||A x - b|| <= eps_k (1 + ||b||) with the summable schedule from
    ``params``; the inner dual vector (and the quasi-Newton curvature
    pairs) restart from the previous outer iteration.  Stops when both
    scaled residuals fall below ``params.outer_tol``.
    """
    params = RegParams() if params is None else params
    if params.inner == "one_iteration":
        return solve_simple(problem, params)
    cone = problem.cone
    a = problem.a
    b_scale = 1.0 + float(np.linalg.norm(problem.b))
    carry: dict = {}

    def prox_step(k, t, p, y, u, ap):
        x, y, u, rep = prox_eval(
            problem,
            BlockPoint.from_vector(cone, p),
            t,
            inner=params.inner,
            inner_tol=params.inner_tol(k) * b_scale,
            max_inner=params.max_inner,
            y0=y,
            carry_state=carry,
        )
        x = x.ravel()
        return (
            x,
            y,
            u.ravel(),
            a.apply_vec(x),
            a.adjoint_vec(y),
            rep.inner_iterations,
            rep.gradient_fallbacks,
        )

    return _outer_loop(problem, params, prox_step, 1.0 + problem.c.norm())


def solve_simple(problem: LinearConicProblem, params: RegParams | None = None):
    """One-inner-iteration regularization (boundary-point style) scheme.

    AA^T is factorized once.  Each sweep maximizes the augmented dual
    Lagrangian exactly in y,

        y_{k+1} = [AA^T]^{-1} (A(u_k + c) + (b - A p_k) / t_k),

    then projects w = p_k + t_k (A'y_{k+1} - c) onto the cone, which yields
    p_{k+1} = P_K(w) and the polar part u_{k+1} = P_K°(w)/t_k as by-products
    of the same decomposition.  A sweep costs that decomposition and three
    sparse products: A(u_k + c), A'y_{k+1} and A p_{k+1}, the last two
    shared with the residual check and A p_{k+1} also with the next sweep.
    A PSD block whose projection at the previous sweep kept few positive
    eigenvalues (at most an eighth of its order) is projected from those
    eigenpairs alone; see ``cones._project_ambient``.
    ``params.inner`` is ignored.
    """
    params = (
        RegParams(max_outer=200000, inner="one_iteration")
        if params is None
        else params
    )
    cone = problem.cone
    a = problem.a
    fact = gram_factorize(a)
    c_vec = problem.c.ravel()
    b = a.rhs
    ranks = [None] * len(cone.blocks)

    def sweep(k, t, p, y, u, ap):
        y = fact.solve(a.apply_vec(u + c_vec) + (b - ap) / t)
        aty = a.adjoint_vec(y)
        w = p + t * (aty - c_vec)
        p, _ = _project_ambient(cone, w, ranks=ranks)
        return p, y, (w - p) / t, a.apply_vec(p), aty, 1, 0

    return _outer_loop(
        problem, params, sweep, 1.0 + float(np.linalg.norm(c_vec))
    )
