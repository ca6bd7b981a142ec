import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import conicproj as cp
from conicproj.cli import run_cli
from conicproj.io import parse_sdpa
from conftest import fixture_path


def run(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def strip_time(report):
    report = dict(report)
    report.pop("wall_time_ms", None)
    return report


class TestTheta:
    def test_c5_value_and_exit_code(self, capsys):
        code, rep = run(
            capsys,
            ["theta", fixture_path("c5.col"), "--solver", "simple", "--tol", "1e-7"],
        )
        assert code == 0
        assert rep["status"] == "converged"
        assert abs(rep["objective"] - 2.23607) <= 1e-4
        assert rep["theta"] == rep["objective"]
        assert rep["problem"]["m"] == 6

    def test_regularized_solver_path(self, capsys):
        code, rep = run(
            capsys,
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


class TestDeterminism:
    def test_byte_identical_reports_except_wall_time(self, capsys):
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
        code1, rep1 = run(capsys, argv)
        code2, rep2 = run(capsys, argv)
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
    def test_byte_identical_reports_on_stateful_paths(self, capsys, argv):
        code1, rep1 = run(capsys, argv)
        code2, rep2 = run(capsys, argv)
        assert code1 == code2
        assert strip_time(rep1) == strip_time(rep2)

    def test_gen_deterministic_per_seed(self, capsys, tmp_path):
        p1 = tmp_path / "a.dat-s"
        p2 = tmp_path / "b.dat-s"
        for path in (p1, p2):
            code, _ = run(
                capsys,
                [
                    "gen", "sos", "--out", str(path),
                    "--num-vars", "2", "--degree", "2",
                    "--seed", "3",
                ],
            )
            assert code == 0
        assert p1.read_text() == p2.read_text()


def _run_input_error(capsys, tmp_path, command, source, flags):
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
    code = run_cli(
        [command, str(source), *flags,
         "--out", str(out_dir / "r.json"),
         "--solution-out", str(out_dir / "s.json")]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and list(out_dir.iterdir()) == []
    return captured.err


NEARCORR_1E200 = "1 1e200 0\n1e200 1 0\n0 0 1\n"
SDPA_INF_F0 = "1\n2\n2 -2\n1.0\n0 2 1 1 inf\n1 1 1 1 1.0\n1 2 2 2 1.0\n"
JSON_PROBLEM_NONNEG = '{"cone": {"nonneg": 2}, "eq": {"rows": [[[1, 1]]], "rhs": [1]}}'
JSON_CENTER_1E200 = JSON_PROBLEM_NONNEG[:-1] + ', "center": [[1, 1e200]]}'
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
    def test_motzkin_low_degree_fails(self, capsys):
        code, rep = run(
            capsys,
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

    def test_input_error_is_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a polynomial\n")
        code = run_cli(["sos-check", str(bad), "--degree", "3"])
        capsys.readouterr()
        assert code == 4
        assert run_cli(["theta", str(tmp_path / "missing.col")]) == 4
        capsys.readouterr()

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
        self, capsys, tmp_path, command, source, flags
    ):
        err = _run_input_error(capsys, tmp_path, command, source, flags)
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
        self, capsys, tmp_path, command, source, flags
    ):
        err = _run_input_error(capsys, tmp_path, command, source, flags)
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
        ],
    )
    def test_malformed_or_nonfinite_input_is_4(
        self, capsys, tmp_path, command, source, flags, named
    ):
        err = _run_input_error(capsys, tmp_path, command, source, flags)
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
        self, capsys, tmp_path, problem, name, center
    ):
        path = tmp_path / name
        path.write_text(center)
        err = _run_input_error(
            capsys, tmp_path, "project", problem, ["--center", str(path)]
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
        self, capsys, tmp_path, command, source, flags
    ):
        # such data used to end in exit 2 with NaN or Infinity in the report
        err = _run_input_error(capsys, tmp_path, command, source, flags)
        assert err.startswith("error:") and "sqrt(float max)" in err

    def test_solve_json_with_inequalities_is_4(self, capsys, tmp_path):
        ineq = JSON_PROBLEM_NONNEG[:-1] + ', "ineq": {"rows": [[[1, 0]]], "rhs": [0]}}'
        err = _run_input_error(capsys, tmp_path, "solve", ("j.json", ineq), [])
        assert "solve expects equality constraints only" in err

    def test_unknown_flag_is_4(self, capsys):
        assert run_cli(["theta", "--bogus"]) == 4
        capsys.readouterr()


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
        code = run_cli(
            ["solve", fixture_path("theta_c5.dat-s"), *files,
             "--solution-out", str(out_dir / "s.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and list(out_dir.iterdir()) == []
        assert captured.err.startswith("error:") and "non-finite" in captured.err


class TestSolveAndSolutions:
    def test_solve_sdpa_with_solution_residual_match(self, capsys, tmp_path):
        sol = tmp_path / "sol.json"
        code, rep = run(
            capsys,
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

    def test_solve_json_problem(self, capsys, tmp_path):
        # min x1 + 2 x2 over x >= 0, x1 + x2 = 1: optimum x = (1, 0); the
        # same problem without an objective is a feasibility problem
        prob = tmp_path / "p.json"
        sol = tmp_path / "sol.json"
        for objective, value in ((', "objective": [[1, 2]]}', 1.0), ("}", 0.0)):
            prob.write_text(JSON_PROBLEM_NONNEG[:-1] + objective)
            code, rep = run(
                capsys,
                ["solve", str(prob), "--tol", "1e-9", "--solution-out", str(sol)],
            )
            assert code == 0 and rep["status"] == "converged"
            assert abs(rep["objective"] - value) <= 1e-7
        p = np.array(json.loads(sol.read_text())["p"][0])
        assert abs(p.sum() - 1.0) <= 1e-8 and p.min() >= 0.0

    def test_nearcorr_command(self, capsys, tmp_path):
        mat = tmp_path / "c.txt"
        mat.write_text("1.0 2.0\n2.0 1.0\n")
        sol = tmp_path / "x.json"
        code, rep = run(
            capsys,
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

    def test_nearcorr_rescale_flag(self, capsys, tmp_path):
        mat = tmp_path / "c.txt"
        mat.write_text("1.0 0.9\n0.9 1.0\n")
        code, rep = run(
            capsys, ["nearcorr", str(mat), "--rescale", "--tol", "1e-8"]
        )
        assert code == 0
        assert rep["max_diag_error"] == 0.0

    def test_project_json_with_soc(self, capsys, tmp_path):
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
        code, rep = run(
            capsys,
            ["project", str(prob), "--method", "quasi_newton",
             "--tol", "1e-10", "--solution-out", str(sol)],
        )
        assert code == 0
        x = np.array(json.loads(sol.read_text())["x"][0])
        assert abs(x[2] - 2.5) <= 1e-8
        assert np.linalg.norm(x[:2]) <= 2.5 + 1e-8

    def test_project_sdpa_default_center_zero(self, capsys):
        code, rep = run(
            capsys,
            ["project", fixture_path("trace2.dat-s"), "--method", "dykstra",
             "--tol", "1e-9"],
        )
        assert code == 0
        assert rep["status"] == "converged"

    def test_project_sdpa_with_center_matrix(self, capsys, tmp_path):
        # project [[1,2],[2,1]] onto {trace X = 1} cap PSD
        center = tmp_path / "center.txt"
        center.write_text("1.0 2.0\n2.0 1.0\n")
        sol = tmp_path / "x.json"
        code, rep = run(
            capsys,
            ["project", fixture_path("trace2.dat-s"),
             "--center", str(center), "--method", "ssnewton",
             "--tol", "1e-10", "--solution-out", str(sol)],
        )
        assert code == 0
        x = np.array(json.loads(sol.read_text())["x"][0])
        assert abs(np.trace(x) - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(x)[0] >= -1e-10

    def test_polymin_bound(self, capsys, tmp_path):
        poly = tmp_path / "sq.txt"
        poly.write_text("nvars 1\n1 2\n-2 1\n1 0\n")  # (v-1)^2
        code, rep = run(capsys, ["polymin", str(poly), "--tol", "1e-9"])
        assert code == 0
        assert abs(rep["objective"]) <= 1e-7  # certified lower bound 0
        assert rep["gram_min_eigenvalue"] <= 1e-6

    def test_report_written_to_out_file(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli(
            ["theta", fixture_path("c5.col"), "--tol", "1e-6", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        rep = json.loads(out.read_text())
        assert abs(rep["objective"] - np.sqrt(5.0)) <= 1e-3
        assert code == 0


class TestGen:
    @pytest.mark.parametrize("threads", ["2", "abc", "0", "-3"])
    def test_batch_with_thread_env(self, capsys, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("CONIC_PROJ_THREADS", threads)
        out = tmp_path / "inst.dat-s"
        code = run_cli(
            ["gen", "sos", "--out", str(out), "--num-vars", "2",
             "--degree", "2", "--seed", "10", "--count", "3"],
        )
        captured = capsys.readouterr()
        if threads != "2":  # not an integer >= 1: an input error
            assert code == 4
            assert "CONIC_PROJ_THREADS" in captured.err
            assert captured.out == "" and list(tmp_path.iterdir()) == []
            return
        assert code == 0
        rep = json.loads(captured.out)
        assert len(rep["instances"]) == 3
        seeds = [i["seed"] for i in rep["instances"]]
        assert seeds == [10, 11, 12]  # split rule: seed + index
        for info in rep["instances"]:
            assert os.path.exists(info["path"])
            parsed = parse_sdpa(Path(info["path"]).read_text())
            assert parsed.cone.psd_dims == (6,)

    def test_gen_motzkin_and_structured(self, capsys, tmp_path):
        out = tmp_path / "m.txt"
        code, rep = run(capsys, ["gen", "motzkin", "--out", str(out)])
        assert code == 0
        from conicproj.io import parse_polynomial

        assert parse_polynomial(out.read_text()) == cp.motzkin()
        out2 = tmp_path / "s.txt"
        code, rep = run(
            capsys,
            ["gen", "structured", "--out", str(out2), "--num-vars", "3"],
        )
        assert code == 0
        p = parse_polynomial(out2.read_text())
        assert p == cp.structured_polymin_instance(3)

    def test_gen_structured_without_variables_is_4(self, capsys, tmp_path):
        # the polynomial reader rejects nvars 0, so gen must not write it
        out = tmp_path / "s.txt"
        code = run_cli(["gen", "structured", "--out", str(out), "--num-vars", "0"])
        captured = capsys.readouterr()
        assert code == 4 and "nvars must be >= 1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_gen_polymin_degree_zero_names_the_bound(self, capsys, tmp_path):
        out = tmp_path / "f"
        code = run_cli(
            ["gen", "polymin", "--num-vars", "2", "--degree", "0",
             "--seed", "1", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 4 and "degree >= 1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_gen_requires_seed(self, capsys, tmp_path):
        code = run_cli(["gen", "sos", "--out", str(tmp_path / "x.dat-s")])
        capsys.readouterr()
        assert code == 4
