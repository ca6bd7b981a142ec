"""Per-layer metrics: which library calls are wrapped, and how the traced
spans and counters turn into the per-layer numbers.

Layers are the library's modules: ``io`` and ``polysos`` (set-up),
``cones`` (projection, affine maps, Jacobian), ``dualproj``, ``altschemes``
and ``regsolver``.  Times are seconds per traced pass (plus the one traced
set-up), counts are per pass and must repeat exactly from pass to pass.
Values named ``*_computed`` come from the formulas below, not from hardware
counters:

* eigendecomposition: 9 d^3 flops per call on a d x d block (symmetric QR
  with eigenvectors, Golub & Van Loan, "Matrix Computations", sec. 8.3);
* sparse matvec ``A v`` or ``A' y`` with A in CSR: nnz * (value + index
  bytes) + row-pointer bytes + 8 * (rows + cols) bytes for the dense input
  and output vectors, counted once per call.
"""

from __future__ import annotations

from statistics import median

from tracer import Target, Tracer


def _count_iterations(key):
    # every solver returns its SolveReport last
    def hook(tracer: Tracer, args, kwargs, out):
        tracer.count(key, out[-1].iterations)

    return hook


def _ssnewton(tracer: Tracer, args, kwargs, out):
    rep = out[-1]
    tracer.count("dualproj.ssnewton.newton_iters", rep.iterations)
    tracer.count("dualproj.ssnewton.fallbacks", rep.gradient_fallbacks)


def _pcg(tracer: Tracer, args, kwargs, out):
    tracer.count("dualproj.ssnewton.cg_iters", out[1])


def _eig_flops(tracer: Tracer, args, kwargs, out):
    d = len(args[0])
    tracer.count("cones.eig_sym.flops", 9 * d**3)


def _matvec_bytes(tracer: Tracer, args, kwargs, out):
    a = args[0].matrix
    rows, cols = a.shape
    tracer.count(
        "cones.matvec.bytes",
        a.nnz * (a.data.itemsize + a.indices.itemsize)
        + a.indptr.nbytes
        + 8 * (rows + cols),
    )


_C = "conicproj.cones"
_D = "conicproj.dualproj"

TARGETS = (
    Target("io.parse", "conicproj.io", "parse_dimacs"),
    Target("io.parse", "conicproj.io", "parse_polynomial"),
    Target("io.parse", "conicproj.io", "parse_sdpa"),
    Target("io.parse", "conicproj.io", "read_matrix"),
    Target("polysos.build", "conicproj.polysos", "build_theta"),
    Target("polysos.build", "conicproj.polysos", "build_sos_feasibility"),
    Target("cones.gram_factorize", _C, "__init__", cls="GramFactorization"),
    Target("cones.gram_solve", _C, "solve", cls="GramFactorization"),
    Target("cones.matvec", _C, "apply_vec", cls="AffineMap", on_return=_matvec_bytes),
    Target("cones.matvec", _C, "adjoint_vec", cls="AffineMap", on_return=_matvec_bytes),
    Target("cones.project", _C, "_project_ambient"),
    Target("cones.project_psd", _C, "project_psd"),
    Target("cones.eig_sym", _C, "eig_sym", on_return=_eig_flops),
    Target("cones.jacobian", _C, "cone_jacobian_apply"),
    Target("dualproj.eval", _D, "eval", cls="_Workspace"),
    Target("dualproj.ssnewton", _D, "solve_ssnewton", on_return=_ssnewton),
    Target("dualproj.precond", _D, "_hessian_diagonal"),
    Target("dualproj.pcg", _D, "_pcg", on_return=_pcg),
    Target(
        "dualproj.quasi_newton", _D, "solve_quasi_newton",
        on_return=_count_iterations("dualproj.quasi_newton.iters"),
    ),
    Target(
        "altschemes.dykstra", "conicproj.altschemes", "dykstra",
        on_return=_count_iterations("altschemes.dykstra.iters"),
    ),
    Target(
        "regsolver.solve_simple", "conicproj.regsolver", "solve_simple",
        on_return=_count_iterations("regsolver.sweeps"),
    ),
    Target("regsolver.residuals", "conicproj.regsolver", "_residuals_vec"),
    Target(
        "regsolver.solve_regularized", "conicproj.regsolver", "solve_regularized",
        on_return=_count_iterations("regsolver.outer_iters"),
    ),
)

_SETUP = "setup_s, mostly on sos-newton (the SDPA text) and theta-sweep"
_PROJECT = "solve_s on theta-sweep (dominant), smaller on motzkin-sweep, near zero on sos-newton"
_AFFINE = "solve_s on motzkin-sweep (largest share), then theta-sweep"
_NEWTON = "solve_s on sos-newton and nearcorr-dual; zero on the sweeps"
_SWEEP = "solve_s on motzkin-sweep (loop overhead and residuals) and theta-sweep"

# (name, unit, kind, prediction): a "time" is the median over traced passes,
# a "count" is deterministic and must repeat exactly across passes; the
# prediction names the end-to-end metric and workload the layer should move
LAYER_METRICS = (
    ("io.parse_s", "s", "time", _SETUP),
    ("polysos.build_s", "s", "time", _SETUP),
    ("cones.gram_factorize_s", "s", "time", _SETUP),
    ("cones.project.calls", "count", "count", _PROJECT),
    ("cones.project.self_s", "s", "time", _PROJECT),
    ("cones.eig_sym.self_s", "s", "time", _PROJECT),
    ("cones.eig_sym.us_per_call", "us", "time", _PROJECT),
    ("cones.eig_sym.gflops_computed", "GFLOP", "count", _PROJECT),
    ("cones.project_psd.self_s", "s", "time", _PROJECT),
    ("cones.matvec.calls", "count", "count", _AFFINE),
    ("cones.matvec.self_s", "s", "time", _AFFINE),
    ("cones.matvec.bytes_computed", "B", "count", _AFFINE),
    ("cones.gram_solve.calls", "count", "count", _AFFINE),
    ("cones.gram_solve.self_s", "s", "time", _AFFINE),
    ("cones.jacobian.calls", "count", "count", _NEWTON),
    ("cones.jacobian.self_s", "s", "time", _NEWTON),
    ("dualproj.eval.calls", "count", "count", _NEWTON),
    ("dualproj.eval.self_s", "s", "time", _NEWTON),
    ("dualproj.ssnewton.newton_iters", "count", "count", _NEWTON),
    ("dualproj.ssnewton.cg_iters", "count", "count", _NEWTON),
    ("dualproj.ssnewton.fallbacks", "count", "count", _NEWTON),
    ("dualproj.ssnewton.self_s", "s", "time", _NEWTON),
    ("dualproj.precond.self_s", "s", "time", _NEWTON),
    ("dualproj.pcg.self_s", "s", "time", _NEWTON),
    ("dualproj.evals_per_step", "ratio", "count", _NEWTON),
    ("dualproj.quasi_newton.iters", "count", "count", "solve_s on nearcorr-dual"),
    ("dualproj.quasi_newton.self_s", "s", "time", "solve_s on nearcorr-dual"),
    ("altschemes.dykstra.iters", "count", "count", "solve_s on nearcorr-dual"),
    ("altschemes.dykstra.self_s", "s", "time", "solve_s on nearcorr-dual"),
    ("regsolver.sweeps", "count", "count", _SWEEP),
    ("regsolver.us_per_sweep", "us", "time", _SWEEP),
    ("regsolver.solve_simple.self_s", "s", "time", _SWEEP),
    ("regsolver.residuals.self_s", "s", "time", _SWEEP),
    ("regsolver.outer_iters", "count", "count", "outer_iters on sos-newton"),
    ("regsolver.solve_regularized.self_s", "s", "time", "solve_s on sos-newton"),
)

_INSTANCE_MOVES = (
    "the workload's solve_s; shows a trade of one instance against another"
)
TRACE_OVERHEAD = ("trace.overhead_s", "s", "time", "none; reported so it can be subtracted")


def all_layer_metrics(instance_ids):
    """Every per-layer metric, in output order, as (name, unit, kind, moves)."""
    out = list(LAYER_METRICS)
    for iid in instance_ids:
        out.append((f"instance.{iid}.solve_s", "s", "time", _INSTANCE_MOVES))
        out.append((f"instance.{iid}.iters", "count", "count", _INSTANCE_MOVES))
    out.append(TRACE_OVERHEAD)
    return out


def merge_spans(*summaries):
    out = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
    return out


def pass_layer_values(spans: dict, counters: dict) -> dict:
    """Layer metrics of one traced pass from its span summary and counters."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def cnt(key):
        return counters.get(key, 0.0)

    steps = cnt("dualproj.ssnewton.newton_iters") + cnt("dualproj.quasi_newton.iters")
    eig_calls = calls("cones.eig_sym")
    return {
        "io.parse_s": total("io.parse"),
        "polysos.build_s": total("polysos.build"),
        "cones.gram_factorize_s": total("cones.gram_factorize"),
        "cones.project.calls": calls("cones.project"),
        "cones.project.self_s": own("cones.project"),
        "cones.eig_sym.self_s": own("cones.eig_sym"),
        "cones.eig_sym.us_per_call": (
            1e6 * total("cones.eig_sym") / eig_calls if eig_calls else 0.0
        ),
        "cones.eig_sym.gflops_computed": cnt("cones.eig_sym.flops") / 1e9,
        "cones.project_psd.self_s": own("cones.project_psd"),
        "cones.matvec.calls": calls("cones.matvec"),
        "cones.matvec.self_s": own("cones.matvec"),
        "cones.matvec.bytes_computed": cnt("cones.matvec.bytes"),
        "cones.gram_solve.calls": calls("cones.gram_solve"),
        "cones.gram_solve.self_s": own("cones.gram_solve"),
        "cones.jacobian.calls": calls("cones.jacobian"),
        "cones.jacobian.self_s": own("cones.jacobian"),
        "dualproj.eval.calls": calls("dualproj.eval"),
        "dualproj.eval.self_s": own("dualproj.eval"),
        "dualproj.ssnewton.newton_iters": cnt("dualproj.ssnewton.newton_iters"),
        "dualproj.ssnewton.cg_iters": cnt("dualproj.ssnewton.cg_iters"),
        "dualproj.ssnewton.fallbacks": cnt("dualproj.ssnewton.fallbacks"),
        "dualproj.ssnewton.self_s": own("dualproj.ssnewton"),
        "dualproj.precond.self_s": own("dualproj.precond"),
        "dualproj.pcg.self_s": own("dualproj.pcg"),
        "dualproj.evals_per_step": (
            calls("dualproj.eval") / steps if steps else 0.0
        ),
        "dualproj.quasi_newton.iters": cnt("dualproj.quasi_newton.iters"),
        "dualproj.quasi_newton.self_s": own("dualproj.quasi_newton"),
        "altschemes.dykstra.iters": cnt("altschemes.dykstra.iters"),
        "altschemes.dykstra.self_s": own("altschemes.dykstra"),
        "regsolver.sweeps": cnt("regsolver.sweeps"),
        "regsolver.solve_simple.self_s": own("regsolver.solve_simple"),
        "regsolver.residuals.self_s": own("regsolver.residuals"),
        "regsolver.outer_iters": cnt("regsolver.outer_iters"),
        "regsolver.solve_regularized.self_s": own("regsolver.solve_regularized"),
    }


def layer_metrics(setup_spans, traced_passes, untraced, instance_ids, sweep_instances):
    """Combine traced passes and the untraced timings into the per-layer
    metric values.

    ``traced_passes`` is a list of (span summary, counters, pass seconds);
    ``untraced`` holds per-instance median seconds (``instance_s``), the
    iteration count per instance (``iters``) and the sum of those medians
    (``pass_s``); ``sweep_instances`` are the instances whose traced solve
    ran ``solve_simple``.  Times are medians over traced passes; counts are taken
    from the first traced pass and are returned with the names of those that
    differ between passes.
    """
    kinds = {name: kind for name, _, kind, _ in LAYER_METRICS}
    per_pass = [
        pass_layer_values(merge_spans(setup_spans, spans), counters)
        for spans, counters, _ in traced_passes
    ]
    values = {}
    unstable = []
    for name, kind in kinds.items():
        if name == "regsolver.us_per_sweep":
            continue
        series = [p[name] for p in per_pass]
        if kind == "count":
            values[name] = series[0]
            if any(v != series[0] for v in series):
                unstable.append(name)
        else:
            values[name] = median(series)
    sweeps = values["regsolver.sweeps"]
    # wall time per sweep from the untraced passes, so that tracing overhead
    # does not enter it
    sweep_s = sum(untraced["instance_s"][iid] for iid in sweep_instances)
    values["regsolver.us_per_sweep"] = 1e6 * sweep_s / sweeps if sweeps else 0.0
    for iid in instance_ids:
        values[f"instance.{iid}.solve_s"] = untraced["instance_s"].get(iid, 0.0)
        values[f"instance.{iid}.iters"] = untraced["iters"].get(iid, 0)
    values["trace.overhead_s"] = (
        median(p[2] for p in traced_passes) - untraced["pass_s"]
    )
    return values, unstable
