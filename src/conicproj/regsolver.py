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

The one exception is a sweep whose PSD projection took the warm route
with an allowed error: p is still in K, but u lies within a known bound
of K° (see ``_sweep``), and the loop declares convergence only when that
bound is within the tolerance as well.

Both solvers run one outer loop and differ only in its step.
``solve_simple`` is the one-inner-iteration scheme, whose step (the sweep)
is the exact y-step maximizing the augmented dual Lagrangian (AA^T
factorized once) followed by one cone projection that yields the new p and
u as by-products.  ``solve_regularized`` sweeps until the residual pair
reaches ``_PHASE1_TOL`` (or half its outer budget is spent), then steps by
``prox_eval`` with a dual engine as inner solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    FactorizationError,
    GramFactorization,
    InputError,
    _check_cap,
    _check_scale,
    _project_ambient,
    _WarmState,
    gram_factorize,
)
# solve_ssnewton stays bound here, uncalled: bench/selftest.py checks that
# its tracer patches this binding
from .dualproj import _SOLVERS, ProjectionProblem, solve_ssnewton  # noqa: F401
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

# prox-parameter balancing (``adapt_t``) by the residual ratio, as in the
# boundary-point method (Malick-Povh-Rendl-Wiegele, SIAM J. Optim. 2009,
# after He-Yang-Wang, JOTA 2000): when one scaled residual exceeds _T_BAND
# times the other, t is divided (primal dominates) or multiplied (dual
# dominates) by the square root of their ratio, at most _T_CAP (the cap
# also when the weaker residual is exactly 0), and clamped to
# [_T_MIN, _T_MAX].  The first change may come after _T_PERIOD outer
# iterations, and the waiting period doubles after each change, so t
# changes finitely often and ADMM with a varying penalty still converges.
# Band 3 and cap 100 solved the theta benchmark faster than band 3 with
# cap 10 and band 2 with cap 100 (alternating runs)
_T_BAND = 3.0
_T_CAP = 100.0
_T_MIN = 1e-4
_T_MAX = 1e4
_T_PERIOD = 10

# safeguarded Anderson acceleration of the sweep (with ``adapt_t``): the
# number of stored differences, the Tikhonov factor of the small system
# relative to the trace of its Gram matrix, and the bound on ||gamma||_1
# beyond which an extrapolation is refused (without it, rounding alone
# decided whether theta on G(100, 0.3) diverged)
_AA_MEMORY = 5
_AA_REG = 1e-8
_AA_GAMMA_MAX = 100.0

# inexact proximal-point criterion (Rockafellar 1976, as SDPNAL applies it,
# Zhao-Sun-Toh 2010): the inner tolerance of each prox step is at most
# _INNER_KAPPA times the previous outer iterate's worst scaled residual, so
# a warm start that already meets the schedule still has to move y
_INNER_KAPPA = 0.1

# two-phase regularized solve: solve_regularized sweeps (the step of
# solve_simple) while the previous outer iterate's max(rp, rd) exceeds
# _PHASE1_TOL and at most max_outer // 2 sweeps have run, then takes prox
# steps from the sweep's (p, y, u) for good, as SDPNAL+ warm-starts its
# Newton-CG phase from ADMM (Yang-Sun-Toh, Math. Prog. Comp. 2015).  A
# looser switch is a trap: handed over at 1e-2, before the rank of the
# rank-one criterion-8 instance N=5 had settled, Newton took 2912 CG
# iterations on it, against 781 from zero and 18 from 1e-3
_PHASE1_TOL = 1e-3

# divergence rule: every _DIVERGE_PERIOD outer iterations, report
# suspected_infeasible when ||y|| exceeds _DIVERGE_BOUND while the primal
# residual has not fallen below 0.9 times its value at the previous check
_DIVERGE_PERIOD = 500
_DIVERGE_BOUND = 1e6


@dataclass(frozen=True)
class LinearConicProblem:
    """Objective c, constraints A x = b (rhs stored on the map), cone K.

    Minimization sense throughout.  Every entry of c must be finite and at
    most sqrt(float max) / dim in magnitude, dim the ambient dimension, as
    :class:`AffineMap` bounds A and b, so that the residual norms cannot
    overflow; else InputError naming the block.
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
            _check_scale(blk, self.cone.dim, f"objective block {i} ({kind})")
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
    eps0 / k^decay, decay > 1.  The inner tolerance of prox step k is
    eps_k = max(outer_tol/10, min(eps0 / k^decay, kappa max(rp, rd))),
    with (rp, rd) the previous outer iterate's scaled residuals and kappa
    the module constant ``_INNER_KAPPA``.  The optional
    prox-parameter balancing ``adapt_t`` (off by default) shrinks t when
    the primal residual dominates and grows it when the dual residual does
    (t multiplies the dual-infeasibility penalty, and the dual residual
    itself scales like 1/t, so the opposite direction self-amplifies), by
    the square root of the residual ratio; its band, cap, clamp and
    waiting period are the ``_T_*`` constants of this module.
    ``max_outer`` counts every outer
    iteration: in ``solve_regularized`` the sweeps of its first phase (at
    most ``max_outer // 2`` of them) as well as its prox steps.  In
    ``solve_simple``, ``adapt_t`` also runs
    the sweep as a safeguarded Anderson step (memory, regularization and
    weight bound are the ``_AA_*`` constants): on the benchmark's
    G(100, 0.3) theta instance (seed 1) the solve takes 287 cone projections
    (285 sweeps, 2 rejected extrapolations) against 650 with the
    rebalancing alone.  How the sweep projects a PSD block (partial
    spectrum, warm basis or full decomposition) has no knob here: the
    thresholds are the measured module constants of ``cones``, and the
    warm route's error is tied to the residual (see ``_sweep``).
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
        below = (
            f"max_outer ({self.max_outer}) and max_inner "
            f"({self.max_inner}) must be at least 1"
        )
        self.max_outer = _check_cap(self.max_outer, "max_outer", 1, below)
        self.max_inner = _check_cap(self.max_inner, "max_inner", 1, below)

    def inner_tol(self, k: int, residual: float = math.inf) -> float:
        """Scaled inner tolerance of prox step k (1-based), given the
        worst scaled residual max(rp, rd) of the previous outer iterate;
        the default ``inf`` gives the plain schedule.  Never above the
        schedule, so the tolerances stay summable.  A k^decay beyond the
        float range makes the schedule 0, so the floor applies."""
        try:
            schedule = self.eps0 / k**self.decay
        except OverflowError:
            schedule = 0.0
        return max(self.outer_tol / 10.0, min(schedule, _INNER_KAPPA * residual))


@dataclass(frozen=True)
class IterateTriple:
    """Primal-dual outer iterate (p, y, u) in K x R^m x K°."""

    p: BlockPoint
    y: np.ndarray
    u: BlockPoint


def _scales(problem):
    """(1 + ||b||, 1 + ||c||), the divisors of the scaled residuals."""
    return 1.0 + float(np.linalg.norm(problem.b)), 1.0 + problem.c.norm()


def _residuals_vec(problem, ap, aty, u_vec, c_vec, b_scale, c_scale):
    """Scaled residuals from the products ``ap`` = A p and ``aty`` = A'y."""
    r = ap - problem.a.rhs
    rp = math.sqrt(r @ r) / b_scale  # bitwise np.linalg.norm(r)
    r = aty - u_vec
    r -= c_vec
    rd = math.sqrt(r @ r) / c_scale
    return rp, rd


def residuals(problem: LinearConicProblem, triple: IterateTriple):
    """Scaled primal/dual infeasibilities of an outer iterate:
    (||Ap - b||/(1+||b||), ||A'y - u - c||/(1+||c||))."""
    a = problem.a
    return _residuals_vec(
        problem,
        a.apply_vec(triple.p.ravel()),
        a.adjoint_vec(triple.y),
        triple.u.ravel(),
        problem.c.ravel(),
        *_scales(problem),
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

    Times t, the objective is ||x - (p - t c)||^2 / 2 plus a constant: the
    step is the plain projection of p - t c onto the intersection, whose
    multiplier is t y (Malick-Povh-Rendl-Wiegele, SIAM J. Optim. 2009).
    The dual engine solves that projection, warm-started at t y0.
    Returns (x, y, u, inner_report) with u recovered from the final cone
    projection, so p + t(A'y - c) = t u + x holds exactly.
    ``inner_tol`` is an absolute bound on ||A x - b||; ``t`` must be
    finite and positive.
    """
    if inner not in _SOLVERS:
        raise InputError(f"unknown inner solver {inner!r}")
    if not (np.isfinite(t) and t > 0):
        raise InputError(f"t must be finite and positive, got {t}")
    center = p - t * problem.c  # bounded here, so that an error names it
    _check_scale(center.ravel(), problem.cone.dim, f"prox center p - t c at t = {t:g}")
    sub = ProjectionProblem(c=center, eq=problem.a, cone=problem.cone)
    if y0 is not None:
        y0 = t * np.asarray(y0, dtype=float)
    # only the quasi-Newton engine keeps state across outer iterations
    carry = {"carry_state": carry_state} if inner == "quasi_newton" else {}
    x, d, rep = _SOLVERS[inner](
        sub, tol=inner_tol, max_iter=max_inner, y0=y0, **carry
    )
    u_vec = (sub.c.ravel() + problem.a.adjoint_vec(d.y) - x.ravel()) / t
    u = BlockPoint.from_vector(problem.cone, u_vec)
    return x, d.y / t, u, rep


def _t_factor(strong, weak):
    """The factor of one change of t: sqrt(strong / weak) for the scaled
    residuals ``strong`` > _T_BAND ``weak`` >= 0, at most _T_CAP, which a
    zero ``weak`` gets without dividing by it."""
    if strong >= _T_CAP * _T_CAP * weak:
        return _T_CAP
    return math.sqrt(strong / weak)


class _Step(NamedTuple):
    """One outer iterate as a step of :func:`_outer_loop` returns it: the
    raw vectors (p, y, u), the products ``ap`` = A p and ``aty`` = A'y (for
    the residual check, and ``ap`` for the next step), the ``inner``
    iterations and gradient ``fallbacks`` the step spent, and ``polar``, a
    bound on the distance of u from K° scaled by 1 + ||c||, which the
    residuals do not see (0 when u is in K° up to rounding)."""

    p: np.ndarray
    y: np.ndarray
    u: np.ndarray
    ap: np.ndarray
    aty: np.ndarray
    inner: int = 1
    fallbacks: int = 0
    polar: float = 0.0


class _Diverged(Exception):
    """Raised by an outer step whose iterate has left the range that the
    data were checked for: :func:`_outer_loop` ends in numerical_failure
    with this message, keeping the previous iterate."""


def _outer_loop(problem, params, step):
    """The proximal outer loop shared by both solvers.

    ``step(k, t, at, worst)`` maps the :class:`_Step` record ``at`` of the
    previous outer iteration, with ``worst`` = max(rp, rd) its scaled
    residuals, to the record of outer iteration k.  The prox step sets its
    inner tolerance from ``worst``, and the sweep the error it allows its
    cone projection.  The residuals are scaled as in :func:`residuals`.
    The loop starts from the record of p = y = u = 0 (k = 1 sees the
    residuals of that start) and stops on convergence (both residuals and
    ``polar`` at most ``params.outer_tol``), a non-finite residual or a step
    that raises :class:`_Diverged` (both numerical failures), the
    divergence rule of the ``_DIVERGE_*`` constants, or ``params.max_outer``.
    """
    cone = problem.cone
    a = problem.a
    c_vec = problem.c.ravel()
    b_scale, c_scale = _scales(problem)
    t = params.t0
    zero, y = np.zeros(cone.dim), np.zeros(problem.m)
    at = _Step(zero, y, zero, a.apply_vec(zero), a.adjoint_vec(y))
    report = SolveReport()
    start = time.perf_counter()
    status = ITERATION_LIMIT
    rp, rd = _residuals_vec(problem, at.ap, at.aty, at.u, c_vec, b_scale, c_scale)
    worst = max(rp, rd)
    rp_checked = rp
    last_adapt = 0
    adapt_wait = _T_PERIOD
    for k in range(1, params.max_outer + 1):
        try:
            at = step(k, t, at, worst)
        except _Diverged as exc:
            status = NUMERICAL_FAILURE
            report.message = str(exc)
            break
        report.inner_iterations += at.inner
        report.gradient_fallbacks += at.fallbacks
        rp, rd = _residuals_vec(problem, at.ap, at.aty, at.u, c_vec, b_scale, c_scale)
        # max() drops a NaN second argument, so a NaN rd must not reach it
        finite = math.isfinite(rp) and math.isfinite(rd)
        worst = max(rp, rd) if finite else math.nan
        report.iterations = k
        if math.isnan(worst):
            status = NUMERICAL_FAILURE
            report.message = "non-finite residual"
            break
        if worst <= params.outer_tol and at.polar <= params.outer_tol:
            status = CONVERGED
            break
        if k % _DIVERGE_PERIOD == 0:
            stalled = rp > 0.9 * rp_checked
            rp_checked = rp
            if stalled and float(np.linalg.norm(at.y)) > _DIVERGE_BOUND:
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
                t = max(t / _t_factor(rp, rd), _T_MIN)
                last_adapt = k
                adapt_wait *= 2
            elif rd > _T_BAND * rp:
                t = min(t * _t_factor(rd, rp), _T_MAX)
                last_adapt = k
                adapt_wait *= 2
    report.status = status
    report.primal_residual = rp
    report.dual_residual = rd
    p_bp = BlockPoint.from_vector(cone, at.p)
    u_bp = BlockPoint.from_vector(cone, at.u)
    report.objective = problem.c.dot(p_bp)
    report.wall_time = time.perf_counter() - start
    return IterateTriple(p=p_bp, y=at.y, u=u_bp), report


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map
    z -> T(z) on R^dim (Walker-Ni, SIAM J. Numer. Anal. 2011; the
    safeguard after Zhang-O'Donoghue-Boyd, SIAM J. Optim. 2020).

    A point is held as x = (z, L z), L a linear map whose image the
    caller needs at every point: the extrapolation carries it along, so
    L is never applied to an extrapolated point.  ``evaluate(x)`` returns
    (x', out) with x' = (T(z), L T(z)) and ``out`` passed back to the
    caller.  The memory holds up to ``_AA_MEMORY`` differences of
    consecutive residuals f = T(z) - z and of consecutive outputs x', in
    preallocated rows, and the Gram matrix of the residual differences,
    which gains one row per evaluation.

    From the current point z_k, with g_k = T(z_k) and f_k known, a step
    extrapolates z_a = g_k - dG gamma, gamma solving
    (dF'dF + lam I) gamma = dF' f_k with lam = _AA_REG trace(dF'dF) by
    one LAPACK solve (``np.linalg.solve``), and evaluates T(z_a).  It
    accepts z_a when ||T(z_a) - z_a|| <= ||f_k||; otherwise it clears the
    memory and moves to the plain point g_k.  It refuses to extrapolate
    (plain point, memory cleared) when LAPACK finds the small system
    singular or ||gamma||_1 > _AA_GAMMA_MAX, a test that a non-finite
    gamma fails too.  A cleared memory starts again from the plain point,
    like a restart, so the next step is a plain one.  Every point handed
    back is an output of T.
    """

    def __init__(self, evaluate, dim: int, aux_dim: int):
        self._evaluate = evaluate
        self._dim = dim
        self._df = np.empty((_AA_MEMORY, dim))
        self._dg = np.empty((_AA_MEMORY, dim + aux_dim))
        self._gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
        self.size = 0
        self._head = 0
        self._cur = None  # (x' = (g, L g), f, ||f||, dF' f) at z_k

    def restart(self, x):
        """Forget everything and evaluate T at x = (z, L z); returns
        ``out``."""
        self.size = 0
        self._head = 0
        self._cur = None
        return self._visit(x)

    def step(self):
        """One step from the current point; returns (out, number of
        evaluations of T), the second being 2 after a rejected
        extrapolation."""
        g, _, f_norm, rhs = self._cur
        if self.size == 0:  # nothing to extrapolate from yet
            return self._visit(g), 1
        gamma = self._weights(rhs)
        if gamma is not None:
            x = g - gamma @ self._dg[: self.size]
            trial = self._evaluate(x)
            f = trial[0][: self._dim] - x[: self._dim]
            f_norm_trial = math.sqrt(f @ f)
            if f_norm_trial <= f_norm:
                return self._advance(trial, f, f_norm_trial), 1
        return self.restart(g), 1 if gamma is None else 2

    def _weights(self, rhs):
        """gamma for the right-hand side dF' f_k, or None when the
        extrapolation is refused."""
        j = self.size
        lhs = self._gram[:j, :j].copy()
        lhs.flat[:: j + 1] += _AA_REG * lhs.trace()
        try:
            gamma = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            return None
        # a NaN weight fails the bound too
        return gamma if np.abs(gamma).sum() <= _AA_GAMMA_MAX else None

    def _visit(self, x):
        trial = self._evaluate(x)
        f = trial[0][: self._dim] - x[: self._dim]
        return self._advance(trial, f, math.sqrt(f @ f))

    def _advance(self, trial, f, f_norm):
        """Move to the point whose evaluation is ``trial``, with residual
        ``f`` of norm ``f_norm``, storing its differences from the previous
        point."""
        g, out = trial
        rhs = None
        if self._cur is not None:
            g0, f0, _, rhs0 = self._cur
            h = self._head
            df = self._df
            np.subtract(f, f0, out=df[h])
            np.subtract(g, g0, out=self._dg[h])
            kept = self.size
            self.size = j = min(kept + 1, _AA_MEMORY)
            self._head = (h + 1) % _AA_MEMORY
            row = df[:j] @ df[h]
            self._gram[h, :j] = self._gram[:j, h] = row
            # dF' f without a second pass over dF: f = f0 + df_h, so each
            # kept entry is its old value df_i' f0 plus df_i' df_h
            rhs = row.copy()
            if kept:
                rhs[:kept] += rhs0
            rhs[h] = df[h] @ f
        self._cur = (g, f, f_norm, rhs)
        return out


def _sweep(problem: LinearConicProblem):
    """The one-iteration sweep of :func:`solve_simple`, the only code that
    runs it: ``solve_simple`` steps by it, with or without Anderson, and
    ``solve_regularized`` takes it as its first phase.

    Factorizes AA^T (cached on the map) and returns (project_step, sweep).
    ``project_step(t, p, u, ap, worst)`` is the y-step followed by the
    split of w = p + t (A'y - c) by one cone projection into p' and
    s = w - p'; it returns the :class:`_Step` of (p', y, s / t) and s,
    which Anderson's fixed-point map carries.  ``sweep``, the plain outer
    step of :func:`_outer_loop`, is that record alone.  Both share one
    ``cones._WarmState`` per PSD block, private to this solve, and
    ``_WarmState.project`` is the one place where the block's route is
    chosen: partial spectrum by the rank of the previous projection, warm
    update from the eigenbasis of the last full decomposition, or full
    decomposition.  ``project`` writes every slot of its state but
    ``tol``, which ``project_step`` sets before each projection and
    nothing else writes; ``project_step`` reads ``error`` back.  The
    sweep keeps no buffers: every array a step returns is fresh.

    The sweep is inexact ADMM on the dual, which converges when the error
    of each step is bounded and summable (Eckstein-Bertsekas, Math. Prog.
    55, 1992), so the warm route need not run its Jacobi steps to their
    floor.  Each projection allows an error eps = kappa worst (1 + ||c||) t
    in w, kappa being ``_INNER_KAPPA`` of the prox steps' inner tolerance
    and ``worst`` the previous iterate's max(rp, rd), split evenly between
    the PSD blocks.  p' is then in K still, and the exact projection of a
    point within eps of w, so u = (w - p')/t lies within eps/t of K°:
    ``polar`` is the sum of the blocks' bounds (``_WarmState.error``)
    over t (1 + ||c||), at most kappa worst, and 0 when no block took the
    warm route.  The floor outer_tol/10 of the inner tolerance is not
    needed here: the loop stops before worst falls below outer_tol unless
    ``polar`` held it back, and then a tighter projection is what it
    needs.
    """
    cone = problem.cone
    a = problem.a
    fact = gram_factorize(a)
    c_vec = problem.c.ravel()
    b = a.rhs
    c_scale = _scales(problem)[1]
    states = [_WarmState() for _ in cone.psd_dims]

    def project_step(t, p, u, ap, worst):
        y = fact.solve(a.apply_vec(u + c_vec) + (b - ap) / t)
        aty = a.adjoint_vec(y)
        w = p + t * (aty - c_vec)
        for state in states:
            state.tol = _INNER_KAPPA * worst * c_scale * t / len(states)
        p, _ = _project_ambient(cone, w, states=states)
        polar = sum(state.error for state in states) / (t * c_scale)
        s = w - p
        return _Step(p, y, s / t, a.apply_vec(p), aty, polar=polar), s

    def sweep(k, t, at, worst):
        return project_step(t, at.p, at.u, at.ap, worst)[0]

    return project_step, sweep


def solve_regularized(problem: LinearConicProblem, params: RegParams | None = None):
    """Proximal outer loop with a dual projection method as inner solver,
    warm-started by the sweep of :func:`solve_simple`.

    Phase 1 sweeps while the previous outer iterate's worst scaled
    residual max(rp, rd) exceeds ``_PHASE1_TOL`` = 1e-3 and at most
    ``params.max_outer // 2`` sweeps have run; then phase 2 takes prox
    steps from the sweep's (p, y, u) until the loop stops, never sweeping
    again.  Newton from zero spends most of its work finding the rank of
    the solution, which the cheap sweeps settle first (SDPNAL+ warm-starts
    its Newton-CG phase from ADMM for this reason, and the sweep is ADMM on
    the dual).  Sweeps count as outer iterations, each as one inner
    iteration; they are plain sweeps, without Anderson acceleration, also
    under ``params.adapt_t``.  A problem that never reaches the switch
    tolerance, such as an infeasible one, spends half of ``max_outer``
    sweeping.  AA^T is factorized only when the budget allows a sweep, so
    ``max_outer = 1`` is one prox step.  When the rows of A are dependent,
    AA^T cannot be factorized for the sweep, and the prox steps start from
    zero.

    The inner solve of the k-th prox step (k counts no sweep) is stopped
    at ||A x - b|| <= eps_k (1 + ||b||), eps_k = ``params.inner_tol(k, r)``
    with r the worst scaled residual of the previous outer iterate: the
    summable schedule, cut to a tenth of r once the outer loop has got
    ahead of it, so that no outer iteration starts from a warm start that
    already meets its tolerance.  The inner dual vector (and the
    quasi-Newton curvature pairs) restart from the previous outer
    iteration.  Stops when both scaled residuals fall below
    ``params.outer_tol``.  A prox center p - t c beyond the bound of
    :func:`prox_eval` is an InputError at the first outer iteration, where
    p = 0, and later, p being the solver's own iterate, ends the solve in
    numerical_failure at the previous iterate.
    """
    params = RegParams() if params is None else params
    if params.inner == "one_iteration":
        return solve_simple(problem, params)
    cone = problem.cone
    a = problem.a
    c_vec = problem.c.ravel()
    b_scale, _ = _scales(problem)
    carry: dict = {}

    def prox_step(k, t, at, worst):
        x, y, u, rep = prox_eval(
            problem,
            BlockPoint.from_vector(cone, at.p),
            t,
            inner=params.inner,
            inner_tol=params.inner_tol(k, worst) * b_scale,
            max_inner=params.max_inner,
            y0=at.y,
            carry_state=carry,
        )
        x = x.ravel()
        return _Step(
            x, y, u.ravel(), a.apply_vec(x), a.adjoint_vec(y),
            rep.inner_iterations, rep.gradient_fallbacks,
        )

    # AA^T is factorized only when a sweep may run: max_outer = 1 stays one
    # prox step
    budget = params.max_outer // 2
    sweep = None
    if budget:
        try:
            sweep = _sweep(problem)[1]
        except FactorizationError:
            # dependent rows leave AA^T singular: no sweep phase, and the
            # quasi-Newton engine, which never factorizes AA^T, still runs
            budget = 0
    swept = 0

    def step(k, t, at, worst):
        nonlocal swept
        if swept == k - 1 and worst > _PHASE1_TOL and k <= budget:
            swept = k
            return sweep(k, t, at, worst)
        if k > 1:
            # p is the solver's own iterate: a prox center beyond the bound
            # that the data passed is a divergence, not bad input
            center = at.p - t * c_vec
            try:
                _check_scale(center, cone.dim, f"prox center p - t c at t = {t:g}")
            except InputError as exc:
                raise _Diverged(f"iterates diverged: {exc}") from None
        # the schedule counts prox steps only: indexed by k, it would start
        # phase 2 at its floor (4x the CG iterations of polymin N=3)
        return prox_step(k - swept, t, at, worst)

    return _outer_loop(problem, params, step)


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
    eigenpairs alone, and a block of order at least
    ``cones._WARM_MIN_ORDER`` from a certified update of the eigenbasis
    of its last full decomposition, so that most sweeps of a large block
    skip the decomposition; ``cones._WarmState.project`` is the one place
    where a block's route is chosen.  The warm route stops its steps at
    an error tied to the previous residual (see :func:`_sweep`).  That
    state belongs to this solve alone: two solves of one problem give
    the same bits.  ``params.inner`` is ignored.

    With ``params.adapt_t`` the sweep is the map T(z) on z = (p, t u),
    accelerated by :class:`_Anderson`: each outer iteration evaluates T
    at an extrapolated point, and once more at the plain point when the
    extrapolation is rejected.  The memory is cleared whenever t changes.
    A's image of an extrapolated p is extrapolated along with it, so an
    evaluation costs the same three sparse products as a plain sweep.
    The reported iterate is always an output of T, so p in K, u in K° and
    <p, u> = 0 still hold by construction.  ``inner_iterations`` of the
    report counts the evaluations of T (cone projections):
    ``inner_iterations - iterations`` is the number of rejected
    extrapolations, and without ``adapt_t`` the two counts are equal.
    """
    params = (
        RegParams(max_outer=200000, inner="one_iteration")
        if params is None
        else params
    )
    project_step, sweep = _sweep(problem)
    if not params.adapt_t:
        return _outer_loop(problem, params, sweep)

    # accelerated: the fixed point is z = (p, t u), carrying A p along
    dim = problem.cone.dim
    t_now = worst_now = None

    def evaluate(x):
        t = t_now
        out, s = project_step(t, x[:dim], x[dim : 2 * dim] / t, x[2 * dim :], worst_now)
        return np.concatenate((out.p, s, out.ap)), out

    anderson = _Anderson(evaluate, 2 * dim, problem.m)

    def accelerated_sweep(k, t, at, worst):
        nonlocal t_now, worst_now
        worst_now = worst
        if t != t_now:
            t_now = t
            return anderson.restart(np.concatenate((at.p, t * at.u, at.ap)))
        out, evaluations = anderson.step()
        return out._replace(inner=evaluations)

    return _outer_loop(problem, params, accelerated_sweep)
