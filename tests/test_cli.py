import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conicproj as cp
from conicproj.cli import main, run_cli
from conicproj.io import parse_sdpa
from conftest import fixture_path

# The CLI contract is stated once, here, and runs two ways.  When the
# imported conicproj is this checkout's src/ (pytest's own pythonpath), each
# command runs in-process through run_cli.  Otherwise the tests exercise an
# installed package, and each command runs through its console script, the
# `conicproj` beside the interpreter, as a subprocess with the same argv,
# working directory and environment:
#     pip install ".[test]" && python -m pytest -o pythonpath= tests/test_cli.py
IN_PROCESS = (
    Path(cp.__file__).resolve().parent
    == Path(__file__).resolve().parents[1] / "src" / "conicproj"
)


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


def _report(out):
    """Stdout parsed as the JSON report, None when nothing was printed; JSON
    has no NaN or Infinity, so a report holding one fails the test."""
    return json.loads(out, parse_constant=_no_constant) if out else None


def _in_process(capsys):
    def run(argv):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        return code, _report(out), err

    return run


def _installed(argv):
    script = Path(sys.executable).with_name("conicproj")
    assert script.is_file(), f"no console script {script} beside the interpreter"
    done = subprocess.run([str(script), *argv], capture_output=True, text=True)
    return done.returncode, _report(done.stdout), done.stderr


@pytest.fixture
def run(capsys):
    """Run the CLI on an argv: (exit code, parsed stdout, stderr)."""
    return _in_process(capsys) if IN_PROCESS else _installed


def strip_time(report):
    report = dict(report)
    report.pop("wall_time_ms", None)
    return report


class TestTheta:
    def test_c5_value_and_exit_code(self, run):
        code, rep, _ = run(
            ["theta", fixture_path("c5.col"), "--solver", "simple", "--tol", "1e-7"],
        )
        assert code == 0
        assert rep["status"] == "converged"
        assert abs(rep["objective"] - 2.23607) <= 1e-4
        assert rep["theta"] == rep["objective"]
        assert rep["problem"]["m"] == 6

    def test_regularized_solver_path(self, run):
        code, rep, _ = run(
            [
                "theta",
                fixture_path("c5.col"),
                "--solver",
                "regularized",
                "--inner",
                "ssnewton",
                "--tol",
                "1e-8",
                "--max-outer",
                "100",
            ],
        )
        assert code == 0
        assert abs(rep["objective"] - np.sqrt(5.0)) <= 1e-4

    @pytest.mark.parametrize("decay", ["2000", "1e308"])
    def test_decay_past_the_float_range_runs(self, run, decay):
        # k^decay overflows from the second prox step on
        code, rep, err = run(
            ["theta", fixture_path("c5.col"), "--solver", "regularized",
             "--decay", decay, "--max-outer", "50"],
        )
        assert code in (0, 2) and rep["status"] in ("converged", "iteration_limit")
        assert err == ""


class TestDeterminism:
    def test_byte_identical_reports_except_wall_time(self, run):
        argv = [
            "sos-check",
            fixture_path("motzkin.txt"),
            "--degree",
            "4",
            "--max-outer",
            "200",
            "--seed",
            "5",
        ]
        code1, rep1, _ = run(argv)
        code2, rep2, _ = run(argv)
        assert code1 == code2
        assert strip_time(rep1) == strip_time(rep2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sos-check", fixture_path("motzkin.txt"), "--degree", "4",
             "--max-outer", "200", "--adapt-t"],
            ["theta", fixture_path("c5.col"), "--solver", "regularized",
             "--inner", "quasi_newton"],
        ],
        ids=["anderson_sweep", "carried_lbfgs_pairs"],
    )
    def test_byte_identical_reports_on_stateful_paths(self, run, argv):
        code1, rep1, _ = run(argv)
        code2, rep2, _ = run(argv)
        assert code1 == code2
        assert strip_time(rep1) == strip_time(rep2)

    def test_gen_deterministic_per_seed(self, run, tmp_path):
        p1 = tmp_path / "a.dat-s"
        p2 = tmp_path / "b.dat-s"
        for path in (p1, p2):
            code, _, _ = run(
                [
                    "gen", "sos", "--out", str(path),
                    "--num-vars", "2", "--degree", "2",
                    "--seed", "3",
                ],
            )
            assert code == 0
        assert p1.read_text() == p2.read_text()


def _run_input_error(run, tmp_path, command, source, flags):
    """Run a command that must fail on its input: exit 4, nothing on
    stdout, no report or solution file written.  ``source`` names a
    fixture or is a (file name, text) pair written to a temporary file;
    None stands for a valid dense matrix file (nearcorr).  Returns stderr."""
    if source is None:
        source = ("c.txt", "1.0 0.5\n0.5 1.0\n")
    if isinstance(source, tuple):
        name, text = source
        source = tmp_path / name
        source.write_text(text)
    else:
        source = fixture_path(source)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, rep, err = run(
        [command, str(source), *flags,
         "--out", str(out_dir / "r.json"),
         "--solution-out", str(out_dir / "s.json")]
    )
    assert code == 4
    assert rep is None and list(out_dir.iterdir()) == []
    return err


NEARCORR_1E200 = "1 1e200 0\n1e200 1 0\n0 0 1\n"
SDPA_INF_F0 = "1\n2\n2 -2\n1.0\n0 2 1 1 inf\n1 1 1 1 1.0\n1 2 2 2 1.0\n"
JSON_PROBLEM_NONNEG = '{"cone": {"nonneg": 2}, "eq": {"rows": [[[1, 1]]], "rhs": [1]}}'
JSON_CENTER_1E200 = JSON_PROBLEM_NONNEG[:-1] + ', "center": [[1, 1e200]]}'
# project (3, 0) onto {x >= 0: x1 + x2 = 1, x2 >= 0.5}: x = (0.5, 0.5),
# y = -2.5, z = 3 and theta = 3.25
JSON_PROBLEM_INEQ = JSON_PROBLEM_NONNEG[:-1] + (
    ', "center": [[3, 0]], "ineq": {"rows": [[[0, 1]]], "rhs": [0.5]}}'
)
JSON_INF_CENTER = (
    '{"cone": {"nonneg": 2}, "center": [[1, Infinity]], '
    '"eq": {"rows": [[[1, 1]]], "rhs": [1]}}'
)


def _theta_c5_with(line: str, new: str) -> tuple[str, str]:
    """theta_c5.dat-s with its one line ``line`` replaced by ``new``."""
    text = Path(fixture_path("theta_c5.dat-s")).read_text()
    assert text.count(line + "\n") == 1
    return ("theta.dat-s", text.replace(line + "\n", new + "\n"))


def _json_problem(cone: str, rhs: str = "[1]") -> str:
    return (
        f'{{"cone": {cone}, "eq": {{"rows": [[[[1, 0], [0, 1]]]], "rhs": {rhs}}}}}'
    )


class TestExitCodes:
    def test_motzkin_low_degree_fails(self, run):
        code, rep, _ = run(
            [
                "sos-check",
                fixture_path("motzkin.txt"),
                "--degree", "3",
                "--tol", "1e-5",
                "--max-outer", "3000",
            ],
        )
        assert code in (2, 3)
        assert rep["status"] != "converged"

    def test_input_error_is_4(self, run, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a polynomial\n")
        assert run(["sos-check", str(bad), "--degree", "3"])[0] == 4
        assert run(["theta", str(tmp_path / "missing.col")])[0] == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", fixture_path("theta_c5.dat-s")],
            ["sos-check", fixture_path("motzkin.txt"), "--degree", "7", "--adapt-t"],
        ],
        ids=["solve-theta-c5", "sos-check-motzkin-d7-adapt-t"],
    )
    def test_good_input_converges_with_exit_0(self, run, argv):
        code, rep, err = run(argv)
        assert code == 0 and rep["status"] == "converged" and err == ""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["theta", fixture_path("c5.col"), "--tol", "1e-6"], 0),
            (["theta", fixture_path("c5.col"), "--max-outer", "1"], 2),
            (["theta", "--bogus"], 4),
        ],
        ids=["converged", "iteration_limit", "input_error"],
    )
    def test_main_exits_with_the_code_of_run_cli(self, capsys, argv, expected):
        # the console script calls main, so its exit status is this code
        assert run_cli(argv) == expected
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        assert exc.value.code == expected

    @pytest.mark.parametrize(
        "command, source, flags",
        [
            ("theta", "c5.col", ["--max-outer", "-5"]),
            ("theta", "c5.col", ["--max-outer", "0"]),
            ("theta", "c5.col", ["--solver", "regularized", "--max-inner", "-5"]),
            ("project", "mixed_blocks.dat-s", ["--method", "dykstra", "--max-iter", "0"]),
            ("project", "mixed_blocks.dat-s", ["--method", "dykstra", "--max-iter", "-3"]),
            ("project", "mixed_blocks.dat-s", ["--method", "admm", "--max-iter", "0"]),
            ("project", "mixed_blocks.dat-s", ["--method", "alternating", "--max-iter", "-3"]),
            ("project", "mixed_blocks.dat-s", ["--method", "ssnewton", "--max-iter", "0"]),
            ("nearcorr", None, ["--max-iter", "0"]),
            ("nearcorr", None, ["--method", "dykstra", "--max-iter", "-3"]),
        ],
    )
    def test_iteration_cap_below_one_is_4(
        self, run, tmp_path, command, source, flags
    ):
        err = _run_input_error(run, tmp_path, command, source, flags)
        assert "at least 1" in err

    @pytest.mark.parametrize(
        "command, source, flags",
        [
            ("nearcorr", None, ["--tol", "-1"]),
            ("nearcorr", None, ["--tol", "nan"]),
            ("nearcorr", None, ["--method", "dykstra", "--tol", "-1"]),
            ("project", "mixed_blocks.dat-s", ["--tol", "nan"]),
            ("project", "mixed_blocks.dat-s", ["--method", "admm", "--tol", "0"]),
            ("project", "mixed_blocks.dat-s", ["--method", "dykstra", "--tol", "inf"]),
            ("solve", "theta_c5.dat-s", ["--tol", "inf"]),
            ("theta", "c5.col", ["--tol", "nan"]),
            ("theta", "c5.col", ["--t0", "inf"]),
            ("theta", "c5.col", ["--t0", "nan"]),
            ("theta", "c5.col", ["--solver", "regularized", "--eps0", "nan"]),
            ("theta", "c5.col", ["--eps0=-inf"]),
            ("project", "mixed_blocks.dat-s", ["--method", "admm", "--beta", "inf"]),
            ("project", "mixed_blocks.dat-s", ["--method", "admm", "--beta", "nan"]),
        ],
    )
    def test_bad_tolerance_or_step_is_4(
        self, run, tmp_path, command, source, flags
    ):
        err = _run_input_error(run, tmp_path, command, source, flags)
        assert "finite and positive" in err

    @pytest.mark.parametrize(
        "command, source, flags, named",
        [
            ("solve", ("c.dat-s", SDPA_INF_F0), ["--max-outer", "50"], "line 5"),
            (
                "solve",
                ("c.dat-s", SDPA_INF_F0),
                ["--max-outer", "50", "--solver", "regularized"],
                "line 5",
            ),
            ("project", ("p.json", JSON_INF_CENTER), [], "'center'"),
            ("theta", ("g.col", "p edge x 3\n"), [], "line 1"),
            ("theta", ("g.col", "p edge 3 1\ne 1 z\n"), [], "line 2"),
            ("sos-check", ("p.txt", "nvars two\n1 0 0\n"), ["--degree", "2"], "line 1"),
            ("solve", ("j.json", _json_problem('{"psd": "ab"}')), [], "'cone'"),
            ("solve", ("j.json", _json_problem('{"psd": [2.7]}')), [], "'cone'"),
            ("solve", ("j.json", _json_problem('{"psd": [2]}', '["x"]')), [], "'eq'"),
            (
                "solve",
                ("h.dat-s", "(\n1\n2\n1.0\n"),
                [],
                "error: SDPA line 1: expected constraint count, got '('",
            ),
            (
                "solve",
                ("h.dat-s", "1\n1\n9223372036854775808\n1.0\n"),
                [],
                f"error: cone has ambient dimension {2**126},",
            ),
        ],
    )
    def test_malformed_or_nonfinite_input_is_4(
        self, run, tmp_path, command, source, flags, named
    ):
        err = _run_input_error(run, tmp_path, command, source, flags)
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "problem, name, center",
        [
            (("p.json", JSON_PROBLEM_NONNEG), "c.json", "[[1, Infinity]]"),
            (("p.json", JSON_PROBLEM_NONNEG), "c.json", "[[1, "),
            ("trace2.dat-s", "c.txt", "1.0 inf\ninf 1.0\n"),
        ],
    )
    def test_nonfinite_or_malformed_center_file_is_4(
        self, run, tmp_path, problem, name, center
    ):
        path = tmp_path / name
        path.write_text(center)
        err = _run_input_error(
            run, tmp_path, "project", problem, ["--center", str(path)]
        )
        assert "--center" in err or "line 1" in err

    @pytest.mark.parametrize(
        "command, source, flags",
        [
            ("solve", _theta_c5_with("1 0 0 0 0 0", "1e308 0 0 0 0 0"), []),
            ("solve", _theta_c5_with("0 1 1 2 1", "0 1 1 2 1e308"), []),
            ("solve", _theta_c5_with("0 1 1 2 1", "0 1 1 2 1e200"), []),
            ("solve", _theta_c5_with("2 1 1 2 1", "2 1 1 2 1e308"), []),
            (
                "solve",
                _theta_c5_with("1 0 0 0 0 0", "1e308 0 0 0 0 0"),
                ["--solver", "regularized", "--inner", "ssnewton"],
            ),
            ("nearcorr", ("c.txt", NEARCORR_1E200), ["--method", "ssnewton"]),
            ("nearcorr", ("c.txt", NEARCORR_1E200), ["--method", "quasi_newton"]),
            ("nearcorr", ("c.txt", NEARCORR_1E200), ["--method", "dykstra"]),
            ("project", ("p.json", JSON_CENTER_1E200), []),
            ("sos-check", ("p.txt", "nvars 2\n1e308 0 0\n1 2 2\n"), ["--degree", "2"]),
        ],
        ids=[
            "sdpa-rhs-1e308",
            "sdpa-objective-1e308",
            "sdpa-objective-1e200",
            "sdpa-constraint-1e308",
            "sdpa-rhs-1e308-regularized",
            "nearcorr-1e200-ssnewton",
            "nearcorr-1e200-quasi_newton",
            "nearcorr-1e200-dykstra",
            "json-center-1e200",
            "polynomial-1e308",
        ],
    )
    def test_data_whose_norms_can_overflow_is_4(
        self, run, tmp_path, command, source, flags
    ):
        # such data used to end in exit 2 with NaN or Infinity in the report
        err = _run_input_error(run, tmp_path, command, source, flags)
        assert err.startswith("error:") and "sqrt(float max)" in err

    def test_prox_center_beyond_the_bound_names_the_point(self, run, tmp_path):
        # the data pass their bound; p - t c at t = 1e300 does not, and the
        # error names that internal point, not a center the user gave
        flags = ["--solver", "regularized", "--t0", "1e300", "--max-outer", "1"]
        err = _run_input_error(run, tmp_path, "solve", "theta_c5.dat-s", flags)
        assert err.startswith("error: prox center p - t c at t = 1e+300 has an ")

    def test_prox_center_grown_by_the_solver_is_numerical_failure(self, run, tmp_path):
        # fuzzer case 430: the data pass their bound, then the solver's own
        # iterate p grows until p - t c at t = 1 does not, a divergence
        # rather than bad input
        text = Path(fixture_path("mixed_blocks.dat-s")).read_text()
        assert text.count("\n1 1 1\n") == 1
        source = tmp_path / "m.dat-s"
        source.write_text(text.replace("\n1 1 1\n", "\n2.5 1 -5e152\n"))
        code, rep, err = run(
            ["solve", str(source), "--solver", "regularized", "--max-outer", "50"]
        )
        assert (code, rep["status"], err) == (2, "numerical_failure", "")
        assert 1 < rep["iterations"] < 50

    def test_rhs_near_the_bound_is_2_without_warnings(self, run, tmp_path):
        # within the scale bound, yet b'y, the curvature test and the slopes
        # of the quasi-Newton inner solves overflow: the run ends at its
        # iteration limit, and numpy's overflow warnings stay quiet
        name, text = _theta_c5_with("1 0 0 0 0 0", "1 -5e152 0 0 0 0")
        source = tmp_path / name
        source.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                ["solve", str(source), "--solver", "regularized", "--max-outer", "50"]
            )
        assert code == 2 and [str(w.message) for w in caught] == []
        assert "Warning" not in err  # what a subprocess prints for one

    def test_input_too_large_for_memory_is_4(self, capsys, tmp_path, monkeypatch):
        # `p edge 400000 0` asks numpy for terabytes; a stand-in raises what
        # numpy raises, so that no test makes the allocation
        from conicproj import polysos

        def too_large(graph):
            raise MemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr(polysos, "build_theta", too_large)
        # in-process whichever package is imported: a subprocess would not
        # see the stand-in
        err = _run_input_error(_in_process(capsys), tmp_path, "theta", "c5.col", [])
        assert err.startswith("error: Unable to allocate 1.16 TiB")

    def test_solve_json_with_inequalities_is_4(self, run, tmp_path):
        ineq = JSON_PROBLEM_NONNEG[:-1] + ', "ineq": {"rows": [[[1, 0]]], "rhs": [0]}}'
        err = _run_input_error(run, tmp_path, "solve", ("j.json", ineq), [])
        assert "solve expects equality constraints only" in err

    def test_unknown_flag_is_4(self, run):
        assert run(["theta", "--bogus"])[0] == 4


# one command per reader, each run on a plain input and on the same input
# behind a UTF-8 byte-order mark: (command and flags, fixture or a (file
# name, text) pair)
BOM_CASES = {
    "dimacs": (["theta", "--max-outer", "50"], "c5.col"),
    "sdpa": (["solve", "--max-outer", "50"], "mixed_blocks.dat-s"),
    "polynomial": (
        ["sos-check", "--degree", "3", "--max-outer", "50"], "motzkin.txt"
    ),
    "matrix": (
        ["nearcorr", "--max-iter", "50"],
        ("c.mat", "1 0.9 0.7\n0.9 1 -0.9\n0.7 -0.9 1\n"),
    ),
    "json": (["solve", "--max-outer", "50"], ("p.json", JSON_PROBLEM_NONNEG)),
}


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", sorted(BOM_CASES))
    def test_same_report_as_the_plain_file(self, run, tmp_path, kind):
        argv, source = BOM_CASES[kind]
        if isinstance(source, tuple):
            name, text = source
        else:
            name, text = source, Path(fixture_path(source)).read_text()
        outcomes = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / encoding / name
            path.parent.mkdir()
            path.write_text(text, encoding=encoding)
            code, rep, err = run([argv[0], str(path), *argv[1:]])
            outcomes.append((code, strip_time(rep), err))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outcomes[0][0] in (0, 2)
        assert outcomes[1] == outcomes[0]


# The values of the reader x field x value table: beyond the scale bound,
# far beyond it, subnormal, negative zero and one past the int64 range.
TABLE_VALUES = ["1e308", "1e200", "1e-320", "-0", "9223372036854775808"]
# the table's values beyond sqrt(float max) / dim for every problem here
BEYOND_BOUND = {"1e308", "1e200"}


def _theta_c5_header(k: int, new: str) -> str:
    """theta_c5.dat-s with its k-th header line (m, nblock, sizes, rhs)
    replaced by ``new``."""
    lines = Path(fixture_path("theta_c5.dat-s")).read_text().splitlines()
    head = [n for n, s in enumerate(lines) if not s.startswith("*")]
    lines[head[k]] = new
    return "\n".join(lines) + "\n"


def _theta_c5_entry(field: int, new: str) -> str:
    """theta_c5.dat-s with field ``field`` of its entry ``2 1 1 2 1``
    replaced by ``new``."""
    fields = "2 1 1 2 1".split()
    fields[field] = new
    return _theta_c5_with("2 1 1 2 1", " ".join(fields))[1]


def _json_table_problem(objective="1", row="1", rhs="1", center="1") -> str:
    return (
        f'{{"cone": {{"nonneg": 2}}, "objective": [[1, {objective}]], '
        f'"center": [[1, {center}]], '
        f'"eq": {{"rows": [[[1, {row}]]], "rhs": [{rhs}]}}}}'
    )


C5_EDGES = "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
# field -> (command, file suffix, text of the input for a value, flags);
# "center-matrix" writes the value into a --center matrix file
TABLE_FIELDS = {
    "sdpa-rhs": (
        "solve", ".dat-s", lambda v: _theta_c5_header(3, f"{v} 0 0 0 0 0"), []
    ),
    "sdpa-objective": (
        "solve", ".dat-s",
        lambda v: _theta_c5_with("0 1 1 2 1", f"0 1 1 2 {v}")[1], [],
    ),
    "sdpa-constraint": ("solve", ".dat-s", lambda v: _theta_c5_entry(4, v), []),
    "sdpa-m": ("solve", ".dat-s", lambda v: _theta_c5_header(0, v), []),
    "sdpa-nblock": ("solve", ".dat-s", lambda v: _theta_c5_header(1, v), []),
    "sdpa-block-size": ("solve", ".dat-s", lambda v: _theta_c5_header(2, v), []),
    "sdpa-matno": ("solve", ".dat-s", lambda v: _theta_c5_entry(0, v), []),
    "sdpa-blkno": ("solve", ".dat-s", lambda v: _theta_c5_entry(1, v), []),
    "sdpa-i": ("solve", ".dat-s", lambda v: _theta_c5_entry(2, v), []),
    "sdpa-j": ("solve", ".dat-s", lambda v: _theta_c5_entry(3, v), []),
    "json-objective": (
        "solve", ".json", lambda v: _json_table_problem(objective=v), []
    ),
    "json-rows": ("solve", ".json", lambda v: _json_table_problem(row=v), []),
    "json-rhs": ("solve", ".json", lambda v: _json_table_problem(rhs=v), []),
    "json-center": (
        "project", ".json", lambda v: _json_table_problem(center=v), []
    ),
    "polynomial-coefficient": (
        "sos-check", ".txt", lambda v: f"nvars 2\n{v} 0 0\n1 2 2\n",
        ["--degree", "2"],
    ),
    "polynomial-exponent": (
        "sos-check", ".txt", lambda v: f"nvars 2\n1 0 0\n1 2 {v}\n",
        ["--degree", "2"],
    ),
    "nearcorr-matrix": (
        "nearcorr", ".txt", lambda v: f"1 {v} 0\n{v} 1 0\n0 0 1\n", []
    ),
    "center-matrix": ("project", ".txt", lambda v: f"1 {v}\n{v} 1\n", []),
    "dimacs-vertex-count": (
        "theta", ".col", lambda v: f"p edge {v} 5\n" + C5_EDGES, []
    ),
}
# the fields read as floats, which the scale bound applies to
FLOAT_FIELDS = {
    "sdpa-rhs", "sdpa-objective", "sdpa-constraint", "json-objective",
    "json-rows", "json-rhs", "json-center", "polynomial-coefficient",
    "nearcorr-matrix", "center-matrix",
}


class TestReaderFieldValueTable:
    """Each numeric field of each reader, set to each value of the table,
    exits 4 with an ``error:`` line, or 0, 2 or 3 with a finite report; a
    float field beyond the scale bound exits 4 naming sqrt(float max)."""

    @pytest.mark.parametrize("value", TABLE_VALUES)
    @pytest.mark.parametrize("field", sorted(TABLE_FIELDS))
    def test_cli(self, run, tmp_path, field, value):
        command, suffix, text, flags = TABLE_FIELDS[field]
        path = tmp_path / f"in{suffix}"
        path.write_text(text(value))
        argv = [command, str(path), *flags]
        if field == "center-matrix":
            argv = [command, fixture_path("trace2.dat-s"), "--center", str(path)]
        cap = "--max-iter" if command in ("project", "nearcorr") else "--max-outer"
        code, rep, err = run([*argv, cap, "50"])
        if code == 4:
            assert rep is None
            assert any(line.startswith("error:") for line in err.splitlines())
        else:
            assert code in (0, 2, 3) and rep is not None
        if field in FLOAT_FIELDS and value in BEYOND_BOUND:
            assert code == 4 and "sqrt(float max)" in err

    @pytest.mark.parametrize("value", TABLE_VALUES)
    @pytest.mark.parametrize("block", ["psd", "nonneg"])
    def test_library_problem(self, block, value):
        cone = cp.ConeSpec(psd_dims=(2,), nonneg=1)
        amap = cp.AffineMap(cone, [[1.0, 0.0, 0.0, 1.0, 1.0]], [1.0])
        psd, orthant = np.eye(2), np.ones(1)
        if block == "psd":
            psd[0, 1] = psd[1, 0] = float(value)
        else:
            orthant[0] = float(value)
        c = cp.BlockPoint(cone, [psd, orthant])
        if value in BEYOND_BOUND:
            with pytest.raises(cp.InputError, match=r"sqrt\(float max\)"):
                cp.LinearConicProblem(c=c, a=amap, cone=cone)
            return
        problem = cp.LinearConicProblem(c=c, a=amap, cone=cone)
        for solve in (cp.solve_simple, cp.solve_regularized):
            trip, rep = solve(problem, cp.RegParams(max_outer=50))
            numbers = [rep.primal_residual, rep.dual_residual, rep.objective]
            assert all(np.isfinite(numbers)) and np.all(np.isfinite(trip.y))


class TestNoInvalidJson:
    """JSON has no NaN or Infinity: a result holding one writes nothing
    and exits 2 with an ``error:`` line."""

    @staticmethod
    def _poisoned(monkeypatch, field):
        from conicproj import cli

        solve = cli.solve_regularized

        def poisoned(problem, params):
            trip, rep = solve(problem, params)
            if field == "y":
                return dataclasses.replace(trip, y=trip.y * np.nan), rep
            setattr(rep, field, float("inf"))
            return trip, rep

        monkeypatch.setattr(cli, "solve_regularized", poisoned)

    @pytest.mark.parametrize("field", ["primal_residual", "objective", "y"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_result_exits_2_without_output(
        self, capsys, tmp_path, monkeypatch, field, to_file
    ):
        self._poisoned(monkeypatch, field)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        files = ["--out", str(out_dir / "r.json")] if to_file else []
        # in-process whichever package is imported, as the patch is
        code, rep, err = _in_process(capsys)(
            ["solve", fixture_path("theta_c5.dat-s"), *files,
             "--solution-out", str(out_dir / "s.json")]
        )
        assert code == 2
        assert rep is None and list(out_dir.iterdir()) == []
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("method", ["dykstra", "admm", "fixed_metric"])
    def test_rescale_of_a_stopped_iterate_exits_2_without_output(
        self, run, tmp_path, method
    ):
        # a valid input whose iterate after one step has a zero diagonal
        # entry, which the rescaling cannot divide by
        mat = tmp_path / "m.txt"
        mat.write_text("-1 0\n0 1\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, rep, err = run(
            ["nearcorr", str(mat), "--method", method, "--max-iter", "1",
             "--rescale", "--out", str(out_dir / "r.json"),
             "--solution-out", str(out_dir / "s.json")]
        )
        assert code == 2
        assert rep is None and list(out_dir.iterdir()) == []
        assert err.startswith("error: --rescale of the iteration_limit")


class TestUnwritableOutput:
    """An output path that cannot be opened exits 4 before anything is
    written: nothing on stdout, and neither output file created."""

    @pytest.mark.parametrize(
        "files",
        [
            {"--solution-out": "missing/s.json"},
            {"--out": "out/r.json", "--solution-out": "missing/s.json"},
            {"--out": "missing/r.json", "--solution-out": "out/s.json"},
        ],
        ids=["solution-out", "solution-out-beside-out", "out"],
    )
    def test_missing_directory_is_4_and_writes_nothing(self, run, tmp_path, files):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        flags = [
            arg for flag, name in files.items() for arg in (flag, str(tmp_path / name))
        ]
        code, rep, err = run(["theta", fixture_path("c5.col"), *flags])
        assert code == 4
        assert rep is None and list(out_dir.iterdir()) == []
        assert err.startswith("error:") and "missing" in err

    def test_existing_report_file_is_left_as_it_was(self, run, tmp_path):
        report = tmp_path / "r.json"
        report.write_text("old\n")
        code, _, _ = run(
            ["theta", fixture_path("c5.col"), "--out", str(report),
             "--solution-out", str(tmp_path / "missing" / "s.json")]
        )
        assert code == 4 and report.read_text() == "old\n"


    @pytest.mark.parametrize(
        "out, solution_out",
        [
            ("same.json", "same.json"),
            ("same.json", "./same.json"),
            ("same.json", "link.json"),
            ("link.json", "same.json"),
        ],
        ids=["equal", "dot-slash", "symlink-second", "symlink-first"],
    )
    def test_two_outputs_naming_one_file_is_4(
        self, run, tmp_path, monkeypatch, out, solution_out
    ):
        monkeypatch.chdir(tmp_path)
        os.symlink("same.json", "link.json")  # dangling until same.json exists
        code, rep, err = run(
            ["theta", fixture_path("c5.col"), "--out", out,
             "--solution-out", solution_out]
        )
        assert code == 4 and rep is None
        assert err.startswith("error:") and "same file" in err
        assert os.listdir(tmp_path) == ["link.json"]
        assert os.readlink("link.json") == "same.json"

    @pytest.mark.parametrize("solution_out", ["same.json", "./same.json", "link.json"])
    def test_existing_file_named_twice_is_left_as_it_was(
        self, run, tmp_path, monkeypatch, solution_out
    ):
        monkeypatch.chdir(tmp_path)
        Path("same.json").write_bytes(b"old\n")
        os.symlink("same.json", "link.json")
        code, _, _ = run(
            ["theta", fixture_path("c5.col"), "--out", "same.json",
             "--solution-out", solution_out]
        )
        assert code == 4 and Path("same.json").read_bytes() == b"old\n"


class TestSolveAndSolutions:
    def test_solve_sdpa_with_solution_residual_match(self, run, tmp_path):
        sol = tmp_path / "sol.json"
        code, rep, _ = run(
            [
                "solve",
                fixture_path("sos_n3_d2.dat-s"),
                "--tol", "1e-9",
                "--solution-out", str(sol),
            ],
        )
        assert code == 0
        data = json.loads(sol.read_text())
        prob = parse_sdpa(Path(fixture_path("sos_n3_d2.dat-s")).read_text())
        from conicproj.io import blockpoint_from_json
        from conicproj.regsolver import IterateTriple, residuals

        trip = IterateTriple(
            p=blockpoint_from_json(prob.cone, data["p"]),
            y=np.array(data["y"]),
            u=blockpoint_from_json(prob.cone, data["u"]),
        )
        rp, rd = residuals(prob, trip)
        assert abs(rp - rep["primal_residual"]) <= 1e-12
        assert abs(rd - rep["dual_residual"]) <= 1e-12

    def test_solve_json_problem(self, run, tmp_path):
        # min x1 + 2 x2 over x >= 0, x1 + x2 = 1: optimum x = (1, 0); the
        # same problem without an objective is a feasibility problem
        prob = tmp_path / "p.json"
        sol = tmp_path / "sol.json"
        for objective, value in ((', "objective": [[1, 2]]}', 1.0), ("}", 0.0)):
            prob.write_text(JSON_PROBLEM_NONNEG[:-1] + objective)
            code, rep, _ = run(
                ["solve", str(prob), "--tol", "1e-9", "--solution-out", str(sol)],
            )
            assert code == 0 and rep["status"] == "converged"
            assert abs(rep["objective"] - value) <= 1e-7
        p = np.array(json.loads(sol.read_text())["p"][0])
        assert abs(p.sum() - 1.0) <= 1e-8 and p.min() >= 0.0

    def test_nearcorr_command(self, run, tmp_path):
        mat = tmp_path / "c.txt"
        mat.write_text("1.0 2.0\n2.0 1.0\n")
        sol = tmp_path / "x.json"
        code, rep, _ = run(
            [
                "nearcorr", str(mat),
                "--method", "quasi_newton",
                "--tol", "1e-10",
                "--solution-out", str(sol),
            ],
        )
        assert code == 0
        x = np.array(json.loads(sol.read_text())["x"])
        assert np.allclose(x, np.ones((2, 2)), atol=1e-8)
        # half the squared distance from [[1,2],[2,1]] to all-ones
        assert abs(rep["objective"] - 1.0) <= 1e-6

    def test_nearcorr_rescale_flag(self, run, tmp_path):
        mat = tmp_path / "c.txt"
        mat.write_text("1.0 0.9\n0.9 1.0\n")
        code, rep, _ = run(["nearcorr", str(mat), "--rescale", "--tol", "1e-8"])
        assert code == 0
        assert rep["max_diag_error"] == 0.0

    def test_project_json_with_soc(self, run, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(
            json.dumps(
                {
                    "cone": {"psd": [], "soc": [3], "nonneg": 0},
                    "center": [[3.0, 4.0, 0.0]],
                    "eq": {"rows": [[[0.0, 0.0, 1.0]]], "rhs": [2.5]},
                }
            )
        )
        sol = tmp_path / "x.json"
        code, rep, _ = run(
            ["project", str(prob), "--method", "quasi_newton",
             "--tol", "1e-10", "--solution-out", str(sol)],
        )
        assert code == 0
        x = np.array(json.loads(sol.read_text())["x"][0])
        assert abs(x[2] - 2.5) <= 1e-8
        assert np.linalg.norm(x[:2]) <= 2.5 + 1e-8

    def test_project_json_with_inequalities(self, run, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(JSON_PROBLEM_INEQ)
        sol = tmp_path / "s.json"
        code, rep, _ = run(
            ["project", str(prob), "--method", "quasi_newton",
             "--tol", "1e-10", "--solution-out", str(sol)],
        )
        assert code == 0 and rep["status"] == "converged"
        assert abs(rep["theta"] - 3.25) <= 1e-9
        data = json.loads(sol.read_text())
        assert np.allclose(data["x"][0], [0.5, 0.5], atol=1e-9)
        assert np.allclose(data["y"], [-2.5], atol=1e-9)
        assert len(data["z"]) == 1 and data["z"][0] >= 0.0
        assert np.allclose(data["z"], [3.0], atol=1e-9)

    @pytest.mark.parametrize("method", ["fixed_metric", "ssnewton", "dykstra"])
    def test_project_json_with_inequalities_equalities_only_method_is_4(
        self, run, tmp_path, method
    ):
        err = _run_input_error(
            run, tmp_path, "project", ("p.json", JSON_PROBLEM_INEQ),
            ["--method", method],
        )
        assert "equalit" in err

    def test_project_sdpa_default_center_zero(self, run):
        code, rep, _ = run(
            ["project", fixture_path("trace2.dat-s"), "--method", "dykstra",
             "--tol", "1e-9"],
        )
        assert code == 0
        assert rep["status"] == "converged"

    def test_project_sdpa_with_center_matrix(self, run, tmp_path):
        # project [[1,2],[2,1]] onto {trace X = 1} cap PSD
        center = tmp_path / "center.txt"
        center.write_text("1.0 2.0\n2.0 1.0\n")
        sol = tmp_path / "x.json"
        code, rep, _ = run(
            ["project", fixture_path("trace2.dat-s"),
             "--center", str(center), "--method", "ssnewton",
             "--tol", "1e-10", "--solution-out", str(sol)],
        )
        assert code == 0
        x = np.array(json.loads(sol.read_text())["x"][0])
        assert abs(np.trace(x) - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(x)[0] >= -1e-10

    def test_polymin_bound(self, run, tmp_path):
        poly = tmp_path / "sq.txt"
        poly.write_text("nvars 1\n1 2\n-2 1\n1 0\n")  # (v-1)^2
        code, rep, _ = run(["polymin", str(poly), "--tol", "1e-9"])
        assert code == 0
        assert abs(rep["objective"]) <= 1e-7  # certified lower bound 0
        assert rep["gram_min_eigenvalue"] <= 1e-6

    def test_report_written_to_out_file(self, run, tmp_path):
        out = tmp_path / "rep.json"
        code, rep, _ = run(
            ["theta", fixture_path("c5.col"), "--tol", "1e-6", "--out", str(out)]
        )
        assert rep is None
        rep = json.loads(out.read_text())
        assert abs(rep["objective"] - np.sqrt(5.0)) <= 1e-3
        assert code == 0


class TestGen:
    def test_batch_seeds_follow_the_split_rule(self, run, tmp_path):
        out = tmp_path / "inst.dat-s"
        code, rep, _ = run(
            ["gen", "sos", "--out", str(out), "--num-vars", "2",
             "--degree", "2", "--seed", "10", "--count", "3"],
        )
        assert code == 0
        assert len(rep["instances"]) == 3
        seeds = [i["seed"] for i in rep["instances"]]
        assert seeds == [10, 11, 12]  # split rule: seed + index
        for info in rep["instances"]:
            assert os.path.exists(info["path"])
            parsed = parse_sdpa(Path(info["path"]).read_text())
            assert parsed.cone.psd_dims == (6,)

    @pytest.mark.parametrize("kind", ["sos", "polymin"])
    def test_unwritable_instance_is_4_and_writes_nothing(self, run, tmp_path, kind):
        # instance 1 cannot be opened, so neither instance 0 nor 2 is written
        (tmp_path / "inst-001.txt").mkdir()
        code, rep, err = run(
            ["gen", kind, "--out", str(tmp_path / "inst.txt"), "--num-vars", "2",
             "--degree", "2", "--seed", "1", "--count", "3"]
        )
        assert code == 4 and rep is None
        assert err.startswith("error:") and "inst-001.txt" in err
        assert os.listdir(tmp_path) == ["inst-001.txt"]

    @pytest.mark.parametrize("kind", ["sos", "polymin"])
    @pytest.mark.parametrize("count", ["1", "3"])
    def test_negative_seed_is_4_and_writes_nothing(self, run, tmp_path, kind, count):
        # with --count 3 the seeds are -1, 0, 1: only the first is refused
        code, rep, err = run(
            ["gen", kind, "--out", str(tmp_path / "inst.txt"), "--num-vars", "2",
             "--degree", "2", "--seed", "-1", "--count", count]
        )
        assert code == 4 and rep is None
        assert err.startswith("error:") and "nonnegative" in err
        assert list(tmp_path.iterdir()) == []

    def test_gen_motzkin_and_structured(self, run, tmp_path):
        out = tmp_path / "m.txt"
        code, rep, _ = run(["gen", "motzkin", "--out", str(out)])
        assert code == 0
        from conicproj.io import parse_polynomial

        assert parse_polynomial(out.read_text()) == cp.motzkin()
        out2 = tmp_path / "s.txt"
        code, rep, _ = run(
            ["gen", "structured", "--out", str(out2), "--num-vars", "3"],
        )
        assert code == 0
        p = parse_polynomial(out2.read_text())
        assert p == cp.structured_polymin_instance(3)

    def test_gen_structured_without_variables_is_4(self, run, tmp_path):
        # the polynomial reader rejects nvars 0, so gen must not write it
        out = tmp_path / "s.txt"
        code, rep, err = run(["gen", "structured", "--out", str(out), "--num-vars", "0"])
        assert code == 4 and "nvars must be >= 1" in err
        assert rep is None and not out.exists()

    def test_gen_polymin_degree_zero_names_the_bound(self, run, tmp_path):
        out = tmp_path / "f"
        code, rep, err = run(
            ["gen", "polymin", "--num-vars", "2", "--degree", "0",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 4 and "degree >= 1" in err
        assert rep is None and not out.exists()

    def test_gen_requires_seed(self, run, tmp_path):
        assert run(["gen", "sos", "--out", str(tmp_path / "x.dat-s")])[0] == 4


class TestVerbose:
    @pytest.mark.parametrize("verbose", [False, True])
    @pytest.mark.parametrize(
        "command, args",
        [
            ("project", [fixture_path("sos_rank1_n2_d2.dat-s"), "--max-iter", "20"]),
            ("solve", [fixture_path("theta_c5.dat-s"), "--max-outer", "20"]),
            ("nearcorr", ["MATRIX", "--max-iter", "20"]),
            ("sos-check", [fixture_path("motzkin.txt"), "--degree", "3", "--max-outer", "20"]),
            ("polymin", [fixture_path("motzkin.txt"), "--max-outer", "20"]),
            ("theta", [fixture_path("c5.col"), "--max-outer", "20"]),
            ("gen", ["motzkin", "--out", "OUT"]),
        ],
    )
    def test_one_status_line_only_with_verbose(
        self, run, tmp_path, command, args, verbose
    ):
        matrix = tmp_path / "c.txt"
        matrix.write_text("2 1\n1 2\n")
        subs = {"MATRIX": str(matrix), "OUT": str(tmp_path / "m.txt")}
        argv = [command] + [subs.get(a, a) for a in args] + ["-v"] * verbose
        code, _, err = run(argv)
        assert code in (0, 2)
        if verbose:
            assert err.startswith(f"{command}:") and err.count("\n") == 1
        else:
            assert err == ""
