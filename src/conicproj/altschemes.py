"""Geometric baselines for the two-set projection problem.

Alternating projections (feasibility only), Dykstra's corrected variant
(converges to the projection itself), and the alternating direction method
on the duplicated-variable splitting x in K, y in P.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    _project_ambient,
)
from .report import CONVERGED, ITERATION_LIMIT, SolveReport

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


def _affine_project_vec(eq: AffineMap, fact, v: np.ndarray) -> np.ndarray:
    corr = fact.solve(eq.apply_vec(v) - eq.rhs)
    return v - eq.adjoint_vec(corr)


def alternating_projections(
    problem: TwoSetProblem, max_iter: int = 5000, tol: float = 1e-8
):
    """Alternate P_K and the affine projection until the gap closes.

    Finds a point of the intersection, not the projection of c (that is
    Dykstra's job).  Returns the cone-side iterate.
    """
    eq, fact = problem.eq, problem.eq.gram
    cone = problem.cone
    start = time.perf_counter()
    report = SolveReport()
    y = _affine_project_vec(eq, fact, problem.c.ravel())
    x = y
    status = ITERATION_LIMIT
    gap = np.inf
    affres = np.inf
    for k in range(1, max_iter + 1):
        x, _ = _project_ambient(cone, y)
        y = _affine_project_vec(eq, fact, x)
        gap = float(np.linalg.norm(x - y))
        affres = float(np.linalg.norm(eq.apply_vec(x) - eq.rhs))
        report.iterations = k
        if gap <= tol and affres <= tol:
            status = CONVERGED
            break
    report.status = status
    report.primal_residual = affres
    report.dual_residual = gap
    report.wall_time = time.perf_counter() - start
    return BlockPoint.from_vector(cone, x), report


def dykstra(
    problem: TwoSetProblem,
    max_iter: int = 5000,
    tol: float = 1e-8,
    record_iterates: bool = False,
):
    """Alternating projections with Dykstra's correction.

    The correction s accumulates the difference between the affine and cone
    iterates (the corrected point is c + s, starting from s = 0), which
    makes x_k converge to the projection of c onto the intersection.  Stops
    when ||x_k - y_k|| <= tol.
    """
    eq, fact = problem.eq, problem.eq.gram
    cone = problem.cone
    c = problem.c.ravel()
    s = np.zeros_like(c)
    start = time.perf_counter()
    report = SolveReport()
    status = ITERATION_LIMIT
    x = c
    gap = np.inf
    for k in range(1, max_iter + 1):
        x, _ = _project_ambient(cone, c + s)
        y = _affine_project_vec(eq, fact, x)
        s = s + (y - x)
        if record_iterates:
            report.iterate_history.append(BlockPoint.from_vector(cone, x))
        gap = float(np.linalg.norm(x - y))
        report.iterations = k
        if gap <= tol:
            status = CONVERGED
            break
    report.status = status
    report.primal_residual = gap
    report.wall_time = time.perf_counter() - start
    return BlockPoint.from_vector(cone, x), report


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

    beta defaults to 1 (no adaptive rule).  Stops when
    max(||x - y||, beta ||y_k - y_{k-1}||) <= tol.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise InputError(f"beta must be finite and positive, got {beta}")
    eq, fact = problem.eq, problem.eq.gram
    cone = problem.cone
    c = problem.c.ravel()
    y = _affine_project_vec(eq, fact, c)
    z = np.zeros_like(c)
    start = time.perf_counter()
    report = SolveReport()
    status = ITERATION_LIMIT
    x = y
    res = np.inf
    for k in range(1, max_iter + 1):
        x, _ = _project_ambient(cone, (beta * y + z + c) / (1.0 + beta))
        y_new = _affine_project_vec(eq, fact, (beta * x - z + c) / (1.0 + beta))
        z = z - beta * (x - y_new)
        res = max(
            float(np.linalg.norm(x - y_new)),
            beta * float(np.linalg.norm(y_new - y)),
        )
        y = y_new
        report.iterations = k
        if res <= tol:
            status = CONVERGED
            break
    report.status = status
    report.primal_residual = res
    report.wall_time = time.perf_counter() - start
    return BlockPoint.from_vector(cone, x), report
