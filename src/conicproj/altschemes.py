"""Geometric baselines for the two-set projection problem.

Alternating projections (feasibility only), Dykstra's corrected variant
(converges to the projection itself), and the alternating direction method
on the duplicated-variable splitting x in K, y in P.  All three run on
one loop, ``_iterate``; each scheme supplies only its update.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    _check_cap,
    _project_affine_vec,
    _project_ambient,
)
from .report import CONVERGED, SolveReport

__all__ = [
    "TwoSetProblem",
    "alternating_projections",
    "dykstra",
    "admm_projection",
]


@dataclass(frozen=True)
class TwoSetProblem:
    """Point c, a product cone K and an affine subspace {x: Ax = b}."""

    c: BlockPoint
    cone: ConeSpec
    eq: AffineMap

    def __post_init__(self):
        if self.c.cone != self.cone or self.eq.cone != self.cone:
            raise InputError("two-set problem blocks do not conform")
        self.eq.gram  # fail fast on rank-deficient A

    @classmethod
    def from_projection(cls, problem) -> "TwoSetProblem":
        if problem.m_ineq:
            raise InputError("geometric schemes handle equalities only")
        return cls(c=problem.c, cone=problem.cone, eq=problem.eq)


def _iterate(cone, first, step, max_iter, tol, record_iterates=False):
    """The loop of every scheme here.

    ``first`` is (x, primal, dual) before any iteration; ``step()`` makes
    one iteration and returns the same triple.  Stops when both residuals
    are at most tol, a real number >= 0, or after max_iter >= 0
    iterations, and returns x as a ``BlockPoint`` with a report of the
    last residuals.
    """
    max_iter = _check_cap(
        max_iter, "max_iter", 0, f"max_iter must be nonnegative, got {max_iter}"
    )
    # None or a string would meet the comparison with a bare TypeError
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise InputError(f"tol must be nonnegative, got {tol}")
    start = time.perf_counter()
    report = SolveReport()
    x, primal, dual = first
    for k in range(1, max_iter + 1):
        x, primal, dual = step()
        if record_iterates:
            report.iterate_history.append(BlockPoint.from_vector(cone, x))
        report.iterations = k
        if primal <= tol and dual <= tol:
            report.status = CONVERGED
            break
    report.primal_residual = primal
    report.dual_residual = dual
    report.wall_time = time.perf_counter() - start
    return BlockPoint.from_vector(cone, x), report


def alternating_projections(
    problem: TwoSetProblem, max_iter: int = 5000, tol: float = 1e-8
):
    """Alternate P_K and the affine projection until the gap closes.

    Finds a point of the intersection, not the projection of c (that is
    Dykstra's job).  Returns the cone-side iterate x.  The primal residual
    is ||A x - b||, the dual residual the gap ||x - y|| to the affine-side
    iterate; it stops when both are at most tol.
    """
    eq = problem.eq
    cone = problem.cone
    y = _project_affine_vec(eq, problem.c.ravel())

    def step():
        nonlocal y
        x, _ = _project_ambient(cone, y)
        y = _project_affine_vec(eq, x)
        affres = float(np.linalg.norm(eq.apply_vec(x) - eq.rhs))
        return x, affres, float(np.linalg.norm(x - y))

    return _iterate(cone, (y, np.inf, np.inf), step, max_iter, tol)


def dykstra(
    problem: TwoSetProblem,
    max_iter: int = 5000,
    tol: float = 1e-8,
    record_iterates: bool = False,
):
    """Alternating projections with Dykstra's correction.

    The correction s accumulates the difference between the affine and cone
    iterates (the corrected point is c + s, starting from s = 0), which
    makes x_k converge to the projection of c onto the intersection.  The
    primal residual is ||x_k - y_k||, the dual residual 0; it stops when
    the primal one is at most tol.
    """
    eq = problem.eq
    cone = problem.cone
    c = problem.c.ravel()
    s = np.zeros_like(c)

    def step():
        nonlocal s
        x, _ = _project_ambient(cone, c + s)
        y = _project_affine_vec(eq, x)
        s = s + (y - x)
        return x, float(np.linalg.norm(x - y)), 0.0

    return _iterate(cone, (c, np.inf, 0.0), step, max_iter, tol, record_iterates)


def admm_projection(
    problem: TwoSetProblem,
    beta: float = 1.0,
    max_iter: int = 5000,
    tol: float = 1e-8,
):
    """Alternating direction method on the splitting x in K, y in P.

        x_{k+1} = P_K((beta y_k + z_k + c) / (1 + beta))
        y_{k+1} = P_A((beta x_{k+1} - z_k + c) / (1 + beta))
        z_{k+1} = z_k - beta (x_{k+1} - y_{k+1})

    beta defaults to 1 (no adaptive rule).  The primal residual is
    max(||x_{k+1} - y_{k+1}||, beta ||y_{k+1} - y_k||), the dual residual
    0; it stops when the primal one is at most tol.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise InputError(f"beta must be finite and positive, got {beta}")
    eq = problem.eq
    cone = problem.cone
    c = problem.c.ravel()
    y = _project_affine_vec(eq, c)
    z = np.zeros_like(c)

    def step():
        nonlocal y, z
        x, _ = _project_ambient(cone, (beta * y + z + c) / (1.0 + beta))
        y_new = _project_affine_vec(eq, (beta * x - z + c) / (1.0 + beta))
        z = z - beta * (x - y_new)
        # a NaN y_new makes the first argument NaN, so max() drops none
        res = max(
            float(np.linalg.norm(x - y_new)),
            beta * float(np.linalg.norm(y_new - y)),
        )
        y = y_new
        return x, res, 0.0

    return _iterate(cone, (y, np.inf, 0.0), step, max_iter, tol)
