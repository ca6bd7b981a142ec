"""Solve reports shared by the dual-projection and regularization solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

CONVERGED = "converged"
ITERATION_LIMIT = "iteration_limit"
SUSPECTED_INFEASIBLE = "suspected_infeasible"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``primal_residual`` / ``dual_residual`` follow the solver's stopping
    semantics (dual gradient norm for projection solvers; the scaled
    max{||Ap-b||, ||A^T y - u - c||} pair for conic-program solvers) and
    hold their values at the last iteration; no per-iteration residuals
    are kept.  ``iterate_history`` is filled only where iterate recording
    is requested (``solve_fixed_metric`` and ``dykstra``).

    ``inner_iterations`` sums the inner solver's iterations.  The dual
    engines, which share the ascent loop ``dualproj._ascend`` and the
    evaluation of theta ``dualproj._Workspace.eval`` with its count, report
    steps (``solve_fixed_metric``), evaluations of theta
    (``solve_quasi_newton``), or CG iterations (``solve_ssnewton``, or its
    evaluations of theta when no CG pass ran).  For ``solve_simple`` it
    counts evaluations of the sweep map, that is, cone projections; there
    ``inner_iterations - iterations`` is the number of rejected Anderson
    extrapolations under ``adapt_t``, and zero without it.
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
    iterate_history: list = field(default_factory=list)

    def converged(self) -> bool:
        return self.status == CONVERGED
