"""Solve reports shared by the dual-projection and regularization solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

CONVERGED = "converged"
ITERATION_LIMIT = "iteration_limit"
SUSPECTED_INFEASIBLE = "suspected_infeasible"
NUMERICAL_FAILURE = "numerical_failure"

STATUSES = (CONVERGED, ITERATION_LIMIT, SUSPECTED_INFEASIBLE, NUMERICAL_FAILURE)


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``primal_residual`` / ``dual_residual`` follow the solver's stopping
    semantics (dual gradient norm for projection solvers; the scaled
    max{||Ap-b||, ||A^T y - u - c||} pair for conic-program solvers).
    ``residual_history`` gets one float per iteration of every solve, with
    no bound (up to 200000 at the CLI's default ``--max-outer``);
    ``iterate_history`` is filled only where iterate recording is requested
    (``solve_fixed_metric`` and ``dykstra``).
    """

    status: str = ITERATION_LIMIT
    primal_residual: float = float("inf")
    dual_residual: float = 0.0
    objective: float = float("nan")
    iterations: int = 0
    inner_iterations: int = 0
    wall_time: float = 0.0
    gradient_fallbacks: int = 0
    message: str = ""
    residual_history: list = field(default_factory=list)
    iterate_history: list = field(default_factory=list)

    def converged(self) -> bool:
        return self.status == CONVERGED


class DivergenceMonitor:
    """Heuristic infeasibility flag: the dual norm blowing up by 1e6x over
    its initial magnitude while the primal residual stagnates across a
    500-iteration window."""

    def __init__(self, window: int = 500, growth: float = 1e6):
        self.window = window
        self.growth = growth
        self.baseline = None
        self._mark_iter = 0
        self._mark_res = float("inf")

    def update(self, iteration: int, dual_norm: float, primal_res: float) -> bool:
        if self.baseline is None:
            self.baseline = max(1.0, dual_norm)
            self._mark_iter = iteration
            self._mark_res = primal_res
            return False
        if iteration - self._mark_iter < self.window:
            return False
        stalled = primal_res > 0.9 * self._mark_res
        blown = dual_norm > self.growth * self.baseline
        self._mark_iter = iteration
        self._mark_res = primal_res
        return stalled and blown
