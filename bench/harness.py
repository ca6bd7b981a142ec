"""One benchmark run: set-up, timed passes, checks, metrics and the record.

A pass solves every instance of the workload once, one after another.
Passes repeat while the next one is expected to end within ``seconds``;
there are always at least two.  Each pass is checked as soon as it ends,
outside the timed region, and only its iteration counts are kept, so that
memory does not grow with the number of passes.

``solve_s`` is the sum over instances of each instance's median wall time
over the passes.  ``setup_s`` is the shortest wall time of the complete
set-ups timed right after every untraced instance solve, for
``SETUP_SHARE`` of that solve's wall time (once at least), so that they are
spread over the whole run in proportion to time, as the solves are.  On a
shared two-core machine the same Motzkin pass ran from 3.9 s to 7.0 s as
the neighbours' load changed over minutes, and the set-ups, which are
mostly pure Python and last milliseconds, switch between two speeds for
stretches of seconds (theta: about 15 ms and 26 ms, with equal CPU time
and no steal).  The median of such samples jumps with the share of the run
spent in the slow state: over five runs it spread by a third of its value,
against 0.06 for the shortest time, which, as ``timeit`` argues, is what
the code costs when nothing interferes.  The passes last seconds and mix
both speeds, so their minimum is no steadier than their median, and
medians over passes damp the changes within a run, not those between runs.
Scaling by a reference probe timed beside the solves was tried and
dropped: its time did not track the solvers' (it cut the run-to-run spread
on one workload and raised it on another).  With tracing on, untraced and traced passes
alternate: the untraced ones give the instance times and the traced ones
the per-layer numbers, and the difference between the two is the tracing
overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import layers
from tracer import Tracer
from workloads import WORKLOADS

# two passes at least, so that a median never rests on a single pass
MIN_PASSES = 2
# share of each untraced solve's wall time spent timing set-ups right after it
SETUP_SHARE = 0.1
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def all_instance_ids():
    return [iid for w in WORKLOADS.values() for iid in w.instances]


def time_setups(workload, inputs, budget_s: float, times: list) -> None:
    """Time complete set-ups until ``budget_s`` is spent, once at least,
    appending each wall time to ``times``; the problems are discarded."""
    spent = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(inputs)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        if spent >= budget_s:
            return


def solve_pass(workload, problems, refs, tracer: Tracer | None = None,
               after_solve=None) -> dict:
    """Solve every instance once, then check the answers.

    A solve that raises counts as a failed solve.  ``after_solve(seconds)``,
    if given, runs after each solve, outside its timing.  Returns the raw
    time and iteration count per instance and the failed checks; the
    answers themselves are dropped once checked.
    """
    gc.collect()
    outcomes, times, errors = {}, {}, {}
    for iid in workload.instances:
        if tracer is not None:
            tracer.set_instance(iid)
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("instance"):
                    out = workload.solve(problems[iid], iid)
            else:
                out = workload.solve(problems[iid], iid)
        except Exception as exc:  # a solve that raises is a failure, not a crash
            errors[iid] = "".join(traceback.format_exception_only(exc)).strip()
        else:
            outcomes[iid] = out
        times[iid] = time.perf_counter() - t0
        if after_solve is not None:
            after_solve(times[iid])
    if tracer is not None:
        tracer.set_instance(None)
    found = workload.check(outcomes, refs)
    failures = {}
    for iid in workload.instances:
        msgs = list(found.get(iid, []))
        if iid in errors:
            msgs.append(f"raised: {errors[iid]}")
        if msgs:
            failures[iid] = msgs
    return {
        "times": times,
        "seconds": sum(times.values()),
        "iters": {iid: out.iters for iid, out in outcomes.items()},
        "failures": failures,
    }


def count_failures(workload, passes):
    """Failed solves over all passes, counting an iteration count that
    differs from an earlier pass as a failure; returns (attempted, list)."""
    failures = []
    first = {}
    for k, p in enumerate(passes):
        for iid in workload.instances:
            msgs = list(p["failures"].get(iid, []))
            if iid in p["iters"]:
                want = first.setdefault(iid, p["iters"][iid])
                if p["iters"][iid] != want:
                    msgs.append(
                        f"iterations {p['iters'][iid]} differ from an earlier pass ({want})"
                    )
            if msgs:
                failures.append({"pass": k, "instance": iid, "messages": msgs})
    return len(passes) * len(workload.instances), failures


def _openblas_version():
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "blas_threads": {
            var: value
            for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "load": "closed loop, one process, one client, instances solved in sequence",
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.generate(seed)
    refs = inputs["refs"]
    problems = workload.setup(inputs)  # untimed warm-up of the set-up
    setup_times = []

    def time_setups_after(solve_s):
        time_setups(workload, inputs, SETUP_SHARE * solve_s, setup_times)

    for iid in workload.instances:  # untimed warm-up of every code path
        workload.solve(problems[iid], iid, warm=True)

    tracer = Tracer() if trace else None
    setup_spans = {}
    if trace:
        tracer.install(layers.TARGETS)
        problems = workload.setup(inputs)
        tracer.uninstall()
        setup_spans = tracer.summary()

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(
            solve_pass(workload, problems, refs, after_solve=time_setups_after)
        )
        if trace:
            before = dict(tracer.counters)
            lo = tracer.mark()
            tracer.install(layers.TARGETS)
            try:
                p = solve_pass(workload, problems, refs, tracer)
            finally:
                tracer.uninstall()
            p["spans"] = tracer.summary(lo)
            p["counters"] = {
                k: v - before.get(k, 0) for k, v in tracer.counters.items()
            }
            p["sweep_instances"] = tracer.instances_with("regsolver.solve_simple", lo)
            traced.append(p)
        round_s = median(p["seconds"] for p in untraced)
        if trace:
            round_s += median(p["seconds"] for p in traced)
        if len(untraced) >= MIN_PASSES and time.perf_counter() - start + round_s > seconds:
            break

    attempted, failures = count_failures(workload, untraced + traced)
    instance_s = {
        iid: median(p["times"][iid] for p in untraced) for iid in workload.instances
    }
    untraced_summary = {
        "instance_s": instance_s,
        "iters": untraced[0]["iters"],
        "pass_s": sum(instance_s.values()),
    }
    record = {
        "workload": name,
        "why": workload.why,
        "environment": environment(seed),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_times_s": setup_times,
        "pass_times_s": [p["seconds"] for p in untraced],
        "untraced": untraced_summary,
        "failures": failures,
    }
    problems_found = []
    if trace:
        sweep_instances = set().union(*(p["sweep_instances"] for p in traced))
        values, unstable = layers.layer_metrics(
            setup_spans,
            [(p["spans"], p["counters"], p["seconds"]) for p in traced],
            untraced_summary,
            all_instance_ids(),
            sweep_instances,
        )
        problems_found += [f"count {n} differs between traced passes" for n in unstable]
        fired = layers.merge_spans(setup_spans, *(p["spans"] for p in traced))
        absent_spans = {t.span for t in layers.TARGETS if t.qualname in tracer.absent}
        for span in workload.must_reach:
            if span not in absent_spans and fired.get(span, {}).get("calls", 0) == 0:
                problems_found.append(f"span {span} never fired")
        catalogue = layers.all_layer_metrics(all_instance_ids())
        metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in catalogue}
        record["bindings"] = tracer.bindings
        record["absent"] = tracer.absent
        record["layer_predictions"] = {m[0]: m[3] for m in catalogue}
        record["spans_file"] = _write_spans(tracer, name, seed)
    else:
        metrics = {
            "solve_s": {"value": untraced_summary["pass_s"], "unit": "s"},
            "setup_s": {"value": min(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    record["problems"] = problems_found
    record["metrics"] = metrics
    record["fail_frac"] = len(failures) / attempted
    _write_record(record, name, seed, trace)
    return {
        "correct": not failures and not problems_found,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "record": record,
    }


def _out_path(name, seed, trace, suffix):
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}{suffix}"


def _write_spans(tracer: Tracer, name, seed) -> str:
    path = _out_path(name, seed, True, ".spans.npz")
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        instances=np.array(tracer.instances),
        **tracer.arrays(),
    )
    return str(path.relative_to(ROOT))


def _write_record(record, name, seed, trace):
    path = _out_path(name, seed, trace, ".json")
    record["record_file"] = str(path.relative_to(ROOT))
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
