"""Seeded mutation fuzzer of the command-line readers (opt-in, not tier-1).

Each case takes one input, either a file of tests/fixtures, a small native
JSON problem, a 4x4 matrix for ``nearcorr``, a 40-vertex graph or an SDPA
fixture behind a UTF-8 byte-order mark, replaces one to three of its
numeric tokens with values from a fixed pool (beyond the scale bound,
subnormal, negative zero, past int64, non-finite, malformed), and runs
the matching command through ``cli.run_cli`` in this process with short
iteration caps.  A case fails on an exception that escapes ``run_cli``, an
exit code outside {0, 2, 3, 4}, ``NaN`` or ``Infinity`` on stdout, or a
``RuntimeWarning``.  The run is deterministic per seed; it prints one line
per failure and a summary, and exits 1 when any case failed.

    PYTHONPATH=src python tests/fuzz_cli.py --seed 1 --cases 700
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

from conicproj.cli import run_cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

JSON_PROBLEM = (
    '{"cone": {"psd": [2], "soc": [3], "nonneg": 1},\n'
    ' "objective": [[[1, 0.5], [0.5, 2]], [1, 0, 0], [3]],\n'
    ' "center": [[[2, -1], [-1, 0.25]], [0.5, 1, -1], [-2]],\n'
    ' "eq": {"rows": [[[[1, 0], [0, 1]], [1, 0, 0], [1]],\n'
    '                 [[[0, 1], [1, 0]], [0, 1, 0], [0]]],\n'
    '        "rhs": [3, 0.5]}}\n'
)
# symmetric with a unit diagonal but indefinite: not a correlation matrix
MATRIX = "1 0.9 0.7 -0.3\n0.9 1 0.4 0.5\n0.7 0.4 1 0.8\n-0.3 0.5 0.8 1\n"
# a circulant graph on 40 vertices (i ~ i + s mod 40, s in 1, 3, 7, 12),
# large enough that the mutations land all over the edge list
GRAPH = "p edge 40 160\n" + "".join(
    f"e {i + 1} {(i + s) % 40 + 1}\n" for i in range(40) for s in (1, 3, 7, 12)
)

# input -> the argument lists it runs with (the input path comes first)
COMMANDS = {
    ".dat-s": [["solve"], ["solve", "--solver", "regularized"], ["project"]],
    ".col": [["theta"], ["theta", "--solver", "regularized"]],
    ".txt": [["sos-check", "--degree", "3"], ["polymin"]],
    ".json": [["solve"], ["project"], ["project", "--method", "dykstra"]],
    ".mat": [["nearcorr"], ["nearcorr", "--method", "quasi_newton"],
             ["nearcorr", "--method", "dykstra", "--rescale"]],
}
CAPS = {
    "solve": ["--max-outer", "50"],
    "theta": ["--max-outer", "50"],
    "sos-check": ["--max-outer", "50"],
    "polymin": ["--max-outer", "50"],
    "project": ["--max-iter", "50"],
    "nearcorr": ["--max-iter", "50"],
}

# a signed decimal number, as the readers write integers and floats
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
# every integer here is at most 3 or past int64, so no mutated size can ask
# for a large array that the machine could still allocate
POOL = (
    "1e308", "-1e308", "1e200", "1.3e154", "-5e152", "1e-320", "-0",
    "9223372036854775808", "-9223372036854775809", "0", "-1", "2.5", "3",
    "nan", "inf", "-inf", "x",
)


def inputs() -> dict[str, str]:
    found = {p.name: p.read_text() for p in sorted(FIXTURES.iterdir())}
    found["problem.json"] = JSON_PROBLEM
    found["matrix.mat"] = MATRIX
    found["circulant40.col"] = GRAPH
    # the byte-order mark some editors write: the readers drop it
    found["bom.dat-s"] = "\ufeff" + found["mixed_blocks.dat-s"]
    return found


def mutate(r: np.random.Generator, text: str) -> tuple[str, list[str]]:
    """The text with one to three numeric tokens replaced from POOL, and
    the replacements as 'old->new' notes."""
    spans = [m.span() for m in NUMBER.finditer(text)]
    picks = sorted(
        r.choice(len(spans), size=min(len(spans), int(r.integers(1, 4))),
                 replace=False)
    )
    notes, out, at = [], [], 0
    for k in picks:
        lo, hi = spans[k]
        new = POOL[int(r.integers(len(POOL)))]
        notes.append(f"{text[lo:hi]}->{new}")
        out += [text[at:lo], new]
        at = hi
    return "".join(out) + text[at:], notes


def run_case(argv: list[str]) -> tuple[str | None, int | None]:
    """Run one command; returns (the failure or None, the exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return f"{exc!r} at {where.filename}:{where.lineno}", None
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        return f"RuntimeWarning: {runtime[0].message}", code
    if code not in (0, 2, 3, 4):
        return f"exit code {code}", code
    if "NaN" in out.getvalue() or "Infinity" in out.getvalue():
        return "NaN or Infinity on stdout", code
    return None, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cases", type=int, default=100)
    args = ap.parse_args(argv)
    r = np.random.default_rng(args.seed)
    texts = inputs()
    names = sorted(texts)
    codes = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(args.cases):
            name = names[int(r.integers(len(names)))]
            mutated, notes = mutate(r, texts[name])
            suffix = Path(name).suffix
            path = Path(tmp) / f"case{suffix}"
            path.write_text(mutated, encoding="utf-8")
            variants = COMMANDS[suffix]
            command = variants[int(r.integers(len(variants)))]
            failure, code = run_case(
                [command[0], str(path), *command[1:], *CAPS[command[0]]]
            )
            codes[code] += 1
            if failure:
                failures += 1
                print(f"case {case}: {name} {' '.join(command)} "
                      f"[{', '.join(notes)}]: {failure}")
    summary = ", ".join(f"{n} x exit {c}" for c, n in sorted(codes.items(), key=str))
    print(f"seed {args.seed}: {args.cases} cases, {failures} failed ({summary})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
