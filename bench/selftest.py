"""Self-test of the benchmark: tracer mechanics, outcome checks, and traced
runs of every workload.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``
(about four minutes on a two-core machine; the traced runs dominate).  The
file is not named ``test_*.py`` so the library's own test suite does not
collect it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:  # before numpy loads, as in run.py
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import conicproj as cp  # noqa: E402
from conicproj import altschemes, cones, dualproj, regsolver  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


# ---------------------------------------------------------------------------
# tracer


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
        with tr.span("inner"):
            with tr.span("leaf"):
                sum(range(20000))
    s = tr.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"], abs=1e-12
    )
    assert s["inner"]["self_s"] == pytest.approx(
        s["inner"]["total_s"] - s["leaf"]["total_s"], abs=1e-12
    )
    assert s["leaf"]["self_s"] == s["leaf"]["total_s"]
    a = tr.arrays()
    assert list(a["parent"]) == [-1, 0, 0, 2]


def test_install_patches_every_call_site_and_uninstall_restores():
    originals = {
        "project": cones._project_ambient,
        "apply_vec": cones.AffineMap.__dict__["apply_vec"],
        "solve": cones.GramFactorization.__dict__["solve"],
        "ssnewton": dualproj.solve_ssnewton,
    }
    tr = Tracer()
    tr.install(layers.TARGETS)
    try:
        for mod in (cones, regsolver, dualproj, altschemes):
            assert mod._project_ambient is not originals["project"]
        assert regsolver.solve_ssnewton is not originals["ssnewton"]
        assert dualproj._SOLVERS["ssnewton"] is not originals["ssnewton"]
        assert cones.AffineMap.__dict__["apply_vec"] is not originals["apply_vec"]
        assert cones.GramFactorization.__dict__["solve"] is not originals["solve"]
        assert "conicproj.regsolver._project_ambient" in tr.bindings["cones._project_ambient"]
        assert "conicproj.altschemes._project_ambient" in tr.bindings["cones._project_ambient"]
    finally:
        tr.uninstall()
    for mod in (cones, regsolver, dualproj, altschemes):
        assert mod._project_ambient is originals["project"]
    assert dualproj._SOLVERS["ssnewton"] is originals["ssnewton"]
    assert regsolver.solve_ssnewton is originals["ssnewton"]
    assert cones.AffineMap.__dict__["apply_vec"] is originals["apply_vec"]
    assert cones.GramFactorization.__dict__["solve"] is originals["solve"]


def test_absent_names_are_recorded_not_fatal():
    targets = (
        Target("x", "conicproj.dualproj", "_no_such_helper"),
        Target("y", "conicproj.cones", "missing", cls="NoSuchClass"),
        Target("z", "conicproj.no_such_module", "f"),
        Target("cones.project", "conicproj.cones", "_project_ambient"),
    )
    tr = Tracer()
    tr.install(targets)
    tr.uninstall()
    assert tr.absent == [
        "dualproj._no_such_helper",
        "cones.NoSuchClass.missing",
        "no_such_module.f",
    ]
    assert tr.bindings["cones._project_ambient"]


def test_spans_fire_through_imported_names_and_registries():
    c5 = cp.Graph(5, frozenset({(i, (i + 1) % 5) for i in range(5)}))
    problem = cp.build_theta(c5)
    c = np.eye(4) + 0.5
    tr = Tracer()
    tr.install(layers.TARGETS)
    try:
        cp.solve_simple(problem, cp.RegParams(max_outer=7, inner="one_iteration"))
        cp.nearest_correlation(c, method="quasi_newton")
        cp.nearest_correlation(c, method="dykstra")
    finally:
        tr.uninstall()
    s = tr.summary()
    assert tr.counters["regsolver.sweeps"] == 7
    assert s["cones.project"]["calls"] >= 7  # via regsolver's binding
    assert s["regsolver.residuals"]["calls"] == 8
    assert s["dualproj.quasi_newton"]["calls"] == 1  # via dualproj._SOLVERS
    assert s["altschemes.dykstra"]["calls"] == 1


# ---------------------------------------------------------------------------
# outcome checks: pass on the real answers, fail on wrong references


@pytest.fixture(scope="module")
def answers():
    out = {}
    for name, w in WORKLOADS.items():
        inputs = w.generate(SEED)
        problems = w.setup(inputs)
        outcomes = {iid: w.solve(problems[iid], iid) for iid in w.instances}
        out[name] = (outcomes, inputs["refs"])
    return out


def _fails(name, outcomes, refs):
    return {k: v for k, v in WORKLOADS[name].check(outcomes, refs).items() if v}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_real_answers(answers, name):
    outcomes, refs = answers[name]
    assert _fails(name, outcomes, refs) == {}


def test_theta_checks_fail_on_wrong_references(answers):
    outcomes, refs = answers["theta-sweep"]
    assert "theta-c5" in _fails("theta-sweep", outcomes, {**refs, "c5_theta": 2.0})
    bad = _fails("theta-sweep", outcomes, {**refs, "n": 2 * refs["n"]})
    assert set(bad) == {"theta-gnp", "theta-complement"}
    gnp = outcomes["theta-gnp"]
    shifted = replace(gnp, values={**gnp.values, "dual": gnp.values["dual"] + 0.01})
    assert "theta-gnp" in _fails("theta-sweep", {**outcomes, "theta-gnp": shifted}, refs)
    stalled = replace(gnp, status="iteration_limit")
    assert "theta-gnp" in _fails("theta-sweep", {**outcomes, "theta-gnp": stalled}, refs)


def test_motzkin_checks_fail_on_wrong_references(answers):
    outcomes, refs = answers["motzkin-sweep"]
    d5 = replace(outcomes["motzkin-d5"], status="converged")
    assert "motzkin-d5" in _fails("motzkin-sweep", {**outcomes, "motzkin-d5": d5}, refs)
    d7 = outcomes["motzkin-d7"]
    far = replace(d7, values={**d7.values, "by": 1e-3})
    assert "motzkin-d7" in _fails("motzkin-sweep", {**outcomes, "motzkin-d7": far}, refs)
    stalled = replace(d7, status="iteration_limit")
    assert "motzkin-d7" in _fails("motzkin-sweep", {**outcomes, "motzkin-d7": stalled}, refs)


def test_sos_checks_fail_on_wrong_references(answers):
    outcomes, refs = answers["sos-newton"]
    strict = {"tol": {iid: 1e-15 for iid in refs["tol"]}}
    assert set(_fails("sos-newton", outcomes, strict)) == set(outcomes)
    iid = "sos-n5-full"
    out = outcomes[iid]
    trip = out.values["triple"]
    cone = trip.p.cone
    shift = cp.BlockPoint(cone, [np.asarray(trip.p.blocks[0]) - 1e-3 * np.eye(cone.psd_dims[0])])
    bad = replace(out, values={**out.values, "triple": replace(trip, p=shift)})
    msgs = WORKLOADS["sos-newton"].check({iid: bad}, refs)[iid]
    assert any("lambda_min" in m for m in msgs)


def test_nearcorr_checks_fail_on_wrong_references(answers):
    outcomes, refs = answers["nearcorr-dual"]
    strict = {"tol": {iid: 1e-20 for iid in refs["tol"]}}
    assert set(_fails("nearcorr-dual", outcomes, strict)) == set(outcomes)
    qn = outcomes["nearcorr-quasi_newton"]
    x = qn.values["x"].copy()
    x[0, 1] += 1e-5
    x[1, 0] += 1e-5
    moved = replace(qn, values={"x": x})
    bad = _fails("nearcorr-dual", {**outcomes, "nearcorr-quasi_newton": moved}, refs)
    assert set(bad) == {"nearcorr-ssnewton", "nearcorr-quasi_newton"}
    dyk = outcomes["nearcorr-dykstra"]
    indefinite = replace(dyk, values={"x": dyk.values["x"] - 1e-3 * np.eye(len(x))})
    msgs = WORKLOADS["nearcorr-dual"].check(
        {**outcomes, "nearcorr-dykstra": indefinite}, refs
    )["nearcorr-dykstra"]
    assert any("lambda_min" in m for m in msgs)


# ---------------------------------------------------------------------------
# traced runs: every span a workload must reach fires, counts repeat exactly

SWEEPS = ("theta-sweep", "motzkin-sweep")
_COUNT_NAMES = [m[0] for m in layers.LAYER_METRICS if m[2] == "count"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_fires_spans_and_repeats_counts(name):
    first = harness.run(name, SEED, 0.01, trace=True)
    second = harness.run(name, SEED, 0.01, trace=True)
    for result in (first, second):
        assert result["correct"], result["record"]["problems"] + result["record"]["failures"]
    m1, m2 = first["metrics"], second["metrics"]
    for count in _COUNT_NAMES + [k for k in m1 if k.endswith(".iters")]:
        assert m1[count]["value"] == m2[count]["value"], count
    if name in SWEEPS:
        for metric, v in m1.items():
            if metric.startswith(("dualproj.", "cones.jacobian.")):
                assert v["value"] == 0, metric
        assert m1["regsolver.sweeps"]["value"] > 0
    if name == "nearcorr-dual":
        assert m1["regsolver.sweeps"]["value"] == 0
    for metric in m1:
        assert math.isfinite(m1[metric]["value"]), metric


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    expected = layers.all_layer_metrics(harness.all_instance_ids())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m[0], m[1]) for m in expected
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["solve_s", "setup_s", "peak_rss_mb"]
