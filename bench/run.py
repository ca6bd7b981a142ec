"""conicproj benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 bench/run.py --workload theta-sweep --seed 1 --seconds 25 --trace 0

Workloads: theta-sweep, motzkin-sweep, sos-newton, nearcorr-dual (see
``workloads.py`` for what each solves and why).  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics
(``solve_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it carries
the per-layer metrics instead.  Earlier lines print each metric with its
unit, ``fail_frac``, and the path of the full record (environment, workload
rationale, layer predictions, failures) written under ``bench/out/``.
``fail_frac`` is zero whenever every check passes, so the result line
carries it as ``failed`` over ``attempted`` rather than as a metric.

BLAS, OpenMP and MKL are pinned to one thread before numpy loads: on a
two-core machine an unpinned first ``eigh`` on a 120x120 block costs about
100 times the pinned one, which the benchmark would otherwise measure.
The library is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=_positive, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    try:
        import conicproj
    except ImportError as exc:
        print(f"cannot import conicproj from {root / 'src'}: {exc}", file=sys.stderr)
        return 3
    if Path(conicproj.__file__).resolve().parent.parent != root / "src":
        print(
            f"conicproj was imported from {conicproj.__file__}, not from this "
            f"checkout's src/",
            file=sys.stderr,
        )
        return 3

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(harness.WORKLOADS)
        )
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{record['passes']} untraced and {record['traced_passes']} traced passes"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"  fail_frac = {record['fail_frac']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} solves)"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    print(f"  record: {record['record_file']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
