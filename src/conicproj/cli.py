"""Command-line interface.

Subcommands: project, solve, nearcorr, sos-check, polymin, theta, gen.
Every command prints one JSON report (stdout, or --out FILE) and exits with
0 on convergence, 2 on an iteration limit or numerical failure, 3 on
suspected infeasibility, 4 on input errors.  A result with a non-finite
number, which JSON cannot represent, writes nothing and exits 2.  Reports
are byte-identical across runs for identical argv and seed, except for
wall_time_ms.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, io, polysos
from .cones import (
    BlockPoint,
    ConeSpec,
    FactorizationError,
    InputError,
    NumericalError,
)
from .dualproj import (
    _SOLVERS,
    PROJECTION_METHODS,
    ProjectionProblem,
    nearest_correlation,
    rescale_correlation,
    solve_projection,
)
from .regsolver import (
    LinearConicProblem,
    RegParams,
    solve_regularized,
)
from .report import (
    CONVERGED,
    ITERATION_LIMIT,
    NUMERICAL_FAILURE,
    SUSPECTED_INFEASIBLE,
)

EXIT_CODES = {
    CONVERGED: 0,
    ITERATION_LIMIT: 2,
    NUMERICAL_FAILURE: 2,
    SUSPECTED_INFEASIBLE: 3,
}
EXIT_INPUT_ERROR = 4


def main(argv=None) -> int:
    raise SystemExit(run_cli(argv))


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (InputError, FactorizationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conicproj",
        description="Conic projections and regularization solvers "
        "(SDPA sparse, DIMACS and polynomial front ends).",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--seed", type=int, default=None, help="seed recorded in the report")
        sp.add_argument("-v", "--verbose", action="store_true")
        sp.add_argument(
            "--solution-out",
            help="write the solution (and multipliers) as JSON",
        )

    sp = sub.add_parser("project", help="project a point onto K intersect {Ax=b}")
    sp.add_argument("input", help="problem file (.dat-s or native .json)")
    sp.add_argument("--center", help="point to project (matrix file or JSON blocks); default 0")
    sp.add_argument("--method", choices=PROJECTION_METHODS, default="quasi_newton")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None)
    sp.add_argument("--beta", type=float, default=1.0, help="ADM splitting parameter")
    common(sp)
    sp.set_defaults(handler=_cmd_project)

    sp = sub.add_parser("solve", help="solve min <c,x> s.t. Ax=b, x in K")
    _solver_flags(sp, tol=1e-7, max_outer=200000)
    sp.add_argument("input", help="problem file (.dat-s or native .json)")
    common(sp)
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("nearcorr", help="nearest correlation matrix")
    sp.add_argument("input", help="dense symmetric matrix file")
    sp.add_argument("--method", choices=PROJECTION_METHODS, default="ssnewton")
    sp.add_argument("--tol", type=float, default=None, help="default 1e-7 * n")
    sp.add_argument("--max-iter", type=int, default=None)
    sp.add_argument(
        "--rescale",
        action="store_true",
        help="post-treat to an exactly unit diagonal (D^-1/2 X D^-1/2)",
    )
    common(sp)
    sp.set_defaults(handler=_cmd_nearcorr)

    sp = sub.add_parser("sos-check", help="is the polynomial a sum of squares?")
    sp.add_argument("input", help="polynomial file")
    sp.add_argument("--degree", type=int, required=True, help="Gram basis degree d")
    _solver_flags(sp, tol=1e-5, max_outer=10000)
    common(sp)
    sp.set_defaults(handler=_cmd_sos_check)

    sp = sub.add_parser("polymin", help="SOS lower bound for a polynomial minimum")
    sp.add_argument("input", help="polynomial file (even degree)")
    _solver_flags(sp, tol=1e-8, max_outer=200000)
    common(sp)
    sp.set_defaults(handler=_cmd_polymin)

    sp = sub.add_parser("theta", help="Lovasz theta number of a DIMACS graph")
    sp.add_argument("input", help="DIMACS .col edge file")
    _solver_flags(sp, tol=1e-7, max_outer=200000)
    common(sp)
    sp.set_defaults(handler=_cmd_theta)

    sp = sub.add_parser("gen", help="write random/named test instances")
    sp.add_argument("kind", choices=("sos", "polymin", "structured", "motzkin"))
    sp.add_argument("--out", required=True, help="output path (suffixed for --count > 1)")
    sp.add_argument("--num-vars", type=int, default=5)
    sp.add_argument("--degree", type=int, default=3, help="basis degree d")
    sp.add_argument("--rank", choices=("full", "one"), default="full")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("-v", "--verbose", action="store_true")
    sp.set_defaults(handler=_cmd_gen)

    return p


def _solver_flags(sp, tol, max_outer):
    sp.add_argument("--solver", choices=("simple", "regularized"), default="simple")
    sp.add_argument(
        "--inner",
        choices=tuple(_SOLVERS),
        default=RegParams.inner,
        help="inner engine for --solver regularized",
    )
    sp.add_argument("--tol", type=float, default=tol)
    sp.add_argument("--t0", type=float, default=RegParams.t0)
    sp.add_argument("--eps0", type=float, default=RegParams.eps0)
    sp.add_argument("--decay", type=float, default=RegParams.decay)
    sp.add_argument("--max-outer", type=int, default=max_outer)
    sp.add_argument("--max-inner", type=int, default=RegParams.max_inner)
    sp.add_argument("--adapt-t", action="store_true")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _json_text(data) -> str:
    """``data`` as the CLI writes JSON.  JSON has no NaN or Infinity, so a
    non-finite number raises ValueError rather than being written."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_outputs(outputs) -> None:
    """Write each ``(path, text)`` of ``outputs``, a path of None meaning
    stdout.  Every path is first opened for appending, which leaves an
    existing file as it is, and closed again.  Two paths that open one file
    (one device and inode, so ``a``, ``./a`` and a symlink to ``a`` alike)
    raise InputError.  Then, as when an open fails, the files this created
    are removed and nothing is written; otherwise every text is written."""
    created, opened = [], {}
    try:
        for path, _ in outputs:
            if path is None:
                continue
            existed = os.path.exists(path)
            with open(path, "a", encoding="utf-8") as fh:
                stat = os.fstat(fh.fileno())
            if not existed:
                created.append(os.path.realpath(path))
            key = (stat.st_dev, stat.st_ino)
            if key in opened:
                raise InputError(f"{opened[key]} and {path} name the same file")
            opened[key] = path
    except (InputError, OSError):
        for path in created:
            os.remove(path)
        raise
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _report(args, solver: str, problem_dims: dict, rep, objective, extra=None) -> dict:
    data = {
        "schema_version": 1,
        "tool": "conicproj",
        "version": __version__,
        "command": args.command,
        "solver": solver,
        "seed": args.seed,
        "problem": problem_dims,
        "status": rep.status,
        "objective": objective,
        "primal_residual": rep.primal_residual,
        "dual_residual": rep.dual_residual,
        "iterations": rep.iterations,
        "inner_iterations": rep.inner_iterations,
        "wall_time_ms": rep.wall_time * 1000.0,
    }
    if extra:
        data.update(extra)
    return data


def _dims(cone, m) -> dict:
    return {
        "psd_dims": list(cone.psd_dims),
        "soc_dims": list(cone.soc_dims),
        "nonneg": cone.nonneg,
        "m": m,
    }


def _load_conic_problem(path: str) -> LinearConicProblem:
    text = _read(path)
    if path.endswith(".json"):
        return io.conic_problem_from_json(text)
    return io.parse_sdpa(text)


def _reg_params(args) -> RegParams:
    return RegParams(
        t0=args.t0,
        inner=args.inner if args.solver == "regularized" else "one_iteration",
        eps0=args.eps0,
        decay=args.decay,
        outer_tol=args.tol,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
        adapt_t=args.adapt_t,
    )


def _finish(args, report: dict, solution: dict) -> int:
    """Emit the report (stdout, or ``--out``), write the solution file (if
    asked for) and return the exit code.  Both texts are formed before
    :func:`_write_outputs` opens any file, so nothing is written when
    either step fails: a non-finite number, which JSON cannot represent,
    prints an ``error:`` line and exits 2, as a numerical failure does,
    and an output that cannot be opened, or two that name one file, exit
    4."""
    outputs = [(args.out or None, report)]
    if args.solution_out:
        outputs.append((args.solution_out, solution))
    try:
        texts = [(path, _json_text(data)) for path, data in outputs]
    except ValueError as exc:
        return _nothing_written(
            f"the result holds a non-finite number, which JSON cannot "
            f"represent ({exc})"
        )
    _write_outputs(texts)
    if args.verbose:
        print(
            f"{report['command']}: {report['status']} after {report['iterations']} "
            f"iterations ({report['wall_time_ms']:.1f} ms)",
            file=sys.stderr,
        )
    return EXIT_CODES[report["status"]]


def _nothing_written(reason: str) -> int:
    """Print why the result cannot be written and return exit code 2."""
    print(f"error: {reason}; nothing written", file=sys.stderr)
    return 2


def _finish_conic(args, problem, trip, rep, objective, extra=None) -> int:
    report = _report(
        args,
        args.solver,
        _dims(problem.cone, problem.m),
        rep,
        objective=objective,
        extra=extra,
    )
    solution = {
        "p": io.blockpoint_to_json(trip.p),
        "y": trip.y.tolist(),
        "u": io.blockpoint_to_json(trip.u),
    }
    return _finish(args, report, solution)


# ---------------------------------------------------------------------------
# commands


def _cmd_project(args) -> int:
    text = _read(args.input)
    if args.input.endswith(".json"):
        problem = io.projection_problem_from_json(text)
    else:
        lp = io.parse_sdpa(text)
        if lp.c.norm() > 0:
            print(
                "note: SDPA objective ignored by `project`; supply --center",
                file=sys.stderr,
            )
        problem = ProjectionProblem(
            c=BlockPoint.zeros(lp.cone), eq=lp.a, cone=lp.cone
        )
    cone = problem.cone
    if args.center:
        ctext = _read(args.center)
        if args.center.endswith(".json"):
            try:
                center = io.blockpoint_from_json(cone, json.loads(ctext))
            except (json.JSONDecodeError, InputError) as exc:
                raise InputError(f"--center {args.center}: {exc}") from None
        else:
            if len(cone.blocks) != 1 or cone.blocks[0][0] != "psd":
                raise InputError(
                    "matrix-file centers need a single PSD block; use JSON"
                )
            center = BlockPoint(cone, [io.read_matrix(ctext)])
        problem = dataclasses.replace(problem, c=center)
    x, d, rep = solve_projection(
        problem, args.method, args.tol, args.max_iter, beta=args.beta
    )
    distance_sq = 0.5 * (x - problem.c).dot(x - problem.c)
    extra = {} if d is None else {"theta": rep.objective}
    report = _report(
        args, args.method, _dims(cone, problem.m_eq + problem.m_ineq), rep,
        objective=distance_sq, extra=extra,
    )
    sol = {"x": io.blockpoint_to_json(x)}
    if d is not None:
        sol["y"] = d.y.tolist()
        if d.z.size:
            sol["z"] = d.z.tolist()
    return _finish(args, report, sol)


def _cmd_solve(args) -> int:
    problem = _load_conic_problem(args.input)
    trip, rep = solve_regularized(problem, _reg_params(args))
    return _finish_conic(args, problem, trip, rep, rep.objective)


def _cmd_nearcorr(args) -> int:
    c = io.read_matrix(_read(args.input))
    x, rep = nearest_correlation(
        c, method=args.method, tol=args.tol, max_iter=args.max_iter
    )
    if args.rescale:
        # the input passed its checks: a diagonal that cannot be rescaled is
        # the iterate's, which a stopped solve can leave nonpositive
        try:
            x = rescale_correlation(x)
        except InputError as exc:
            return _nothing_written(f"--rescale of the {rep.status} iterate: {exc}")
    n = c.shape[0]
    distance_sq = 0.5 * float(np.sum((x - c) ** 2))
    report = _report(
        args,
        args.method,
        _dims(ConeSpec(psd_dims=(n,)), n),
        rep,
        objective=distance_sq,
        extra={"max_diag_error": float(np.max(np.abs(np.diag(x) - 1.0)))},
    )
    return _finish(args, report, {"x": x.tolist()})


def _cmd_sos_check(args) -> int:
    poly = io.parse_polynomial(_read(args.input))
    problem = polysos.build_sos_feasibility(poly, args.degree)
    trip, rep = solve_regularized(problem, _reg_params(args))
    dual_obj = float(problem.b @ trip.y)
    return _finish_conic(
        args, problem, trip, rep, rep.objective,
        extra={"dual_objective": dual_obj, "degree": args.degree},
    )


def _cmd_polymin(args) -> int:
    poly = io.parse_polynomial(_read(args.input))
    problem, offset = polysos.build_polymin(poly)
    trip, rep = solve_regularized(problem, _reg_params(args))
    bound = offset - rep.objective
    gram = np.asarray(trip.p.blocks[0])
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    return _finish_conic(
        args, problem, trip, rep, bound,
        extra={"offset": offset, "gram_min_eigenvalue": lam_min},
    )


def _cmd_theta(args) -> int:
    graph = io.parse_dimacs(_read(args.input))
    problem = polysos.build_theta(graph)
    trip, rep = solve_regularized(problem, _reg_params(args))
    theta = -rep.objective  # stored as min <-J, X>
    return _finish_conic(
        args, problem, trip, rep, theta,
        extra={
            "theta": theta,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
    )


def _thread_count() -> int:
    """Worker threads for ``gen --count``: CONIC_PROJ_THREADS, default 1."""
    raw = os.environ.get("CONIC_PROJ_THREADS", "1") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0  # reported below, as any value under 1
    if workers < 1:
        raise InputError(
            f"CONIC_PROJ_THREADS must be an integer >= 1, got {raw!r}"
        )
    return workers


def _cmd_gen(args) -> int:
    if args.kind in ("sos", "polymin") and args.seed is None:
        raise InputError("gen sos/polymin requires --seed")
    if args.count < 1:
        raise InputError("--count must be >= 1")
    workers = _thread_count()

    def one(index: int) -> tuple:
        """The path, text and summary entry of instance ``index``."""
        # per-instance seeds derived by the documented split rule seed + i
        seed = None if args.seed is None else args.seed + index
        path = args.out
        if args.count > 1:
            root, ext = os.path.splitext(args.out)
            path = f"{root}-{index:03d}{ext}"
        if args.kind == "sos":
            problem, _ = polysos.random_sos_instance(
                args.num_vars, args.degree, rank=args.rank, seed=seed
            )
            text = io.write_sdpa(
                problem,
                comment=f"random {args.rank}-rank SOS instance "
                f"N={args.num_vars} d={args.degree} seed={seed}",
            )
            info = {"seed": seed, "n": problem.cone.psd_dims[0], "m": problem.m}
        elif args.kind == "polymin":
            poly = polysos.random_polymin_instance(
                args.num_vars, args.degree, seed=seed
            )
            text = io.write_polynomial(poly)
            info = {"seed": seed, "terms": len(poly.terms)}
        elif args.kind == "structured":
            poly = polysos.structured_polymin_instance(args.num_vars)
            text = io.write_polynomial(poly)
            info = {"terms": len(poly.terms)}
        else:
            text = io.write_polynomial(polysos.motzkin())
            info = {"terms": 4}
        return path, text, {"path": path, **info}

    if args.count > 1 and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            formed = list(pool.map(one, range(args.count)))
    else:
        formed = [one(i) for i in range(args.count)]
    infos = [info for _, _, info in formed]
    summary = {"command": "gen", "kind": args.kind, "instances": infos}
    _write_outputs(
        [(path, text) for path, text, _ in formed] + [(None, _json_text(summary))]
    )
    if args.verbose:
        print(f"gen: wrote {args.count} {args.kind} instance(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    main()
