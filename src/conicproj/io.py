"""File formats: SDPA sparse problems, DIMACS edge graphs, polynomial text
files, dense matrix files, and the native JSON problem schema.

SDPA sparse (.dat-s) semantics follow the usual interchange reading: the
vector line is the constraint right-hand side b, matrix 0 holds F0 with the
minimization objective c = -F0 (so SDPLIB-style files maximize <F0, X>),
and matrix i >= 1 is the i-th constraint row.  Negative block sizes are
diagonal blocks and map to the nonnegative orthant.  Only upper-triangle
entries are accepted in strict mode; a lenient flag folds lower-triangle
entries instead of rejecting them.

The native JSON schema (needed because SDPA cannot express second-order
cones) is::

    {
      "cone": {"psd": [2, 3], "soc": [3], "nonneg": 1},
      "center":    [[...2x2...], [[...3x3...]], [a, b, c], [d]],   # optional
      "objective": [...same block layout...],                      # optional
      "eq":   {"rows": [[...blocks...], ...], "rhs": [...]},
      "ineq": {"rows": [...], "rhs": [...]}                        # optional
    }

Matrix blocks are nested lists, vector blocks flat lists, one entry per
cone block in layout order (PSD blocks, then SOC blocks, then nonneg).
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

from .cones import AffineMap, BlockPoint, ConeSpec, InputError, symmetrize
from .dualproj import ProjectionProblem
from .polysos import Graph, Polynomial
from .regsolver import LinearConicProblem

__all__ = [
    "parse_sdpa",
    "write_sdpa",
    "parse_dimacs",
    "parse_polynomial",
    "write_polynomial",
    "read_matrix",
    "blockpoint_to_json",
    "blockpoint_from_json",
    "parse_problem_json",
    "projection_problem_from_json",
]


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


# ---------------------------------------------------------------------------
# SDPA sparse


def _sdpa_fields(line: str) -> list[str]:
    # block-size and vector lines may use commas, parens or braces
    return line.replace(",", " ").replace("(", " ").replace(")", " ") \
               .replace("{", " ").replace("}", " ").split()


def parse_sdpa(text: str, strict: bool = True) -> LinearConicProblem:
    """Parse an SDPA sparse problem into standard form min <c,x>, Ax=b, x in K."""
    lines = text.splitlines()
    body = []
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s[0] in "*\"":
            continue
        body.append((lineno, s))
    if len(body) < 4:
        raise InputError("SDPA file is truncated: needs m, nblock, sizes, rhs")

    def bad(lineno, msg):
        return InputError(f"SDPA line {lineno}: {msg}")

    (ln_m, s_m), (ln_nb, s_nb), (ln_sz, s_sz), (ln_b, s_b) = body[:4]
    try:
        m = int(_sdpa_fields(s_m)[0])
    except ValueError:
        raise bad(ln_m, f"expected constraint count, got {s_m!r}") from None
    try:
        nblock = int(_sdpa_fields(s_nb)[0])
    except ValueError:
        raise bad(ln_nb, f"expected block count, got {s_nb!r}") from None
    sizes = _sdpa_fields(s_sz)
    if len(sizes) != nblock:
        raise bad(ln_sz, f"expected {nblock} block sizes, got {len(sizes)}")
    try:
        sizes = [int(v) for v in sizes]
    except ValueError:
        raise bad(ln_sz, "block sizes must be integers") from None
    if any(v == 0 for v in sizes):
        raise bad(ln_sz, "zero block size")
    bvals = _sdpa_fields(s_b)
    if len(bvals) != m:
        raise bad(ln_b, f"expected {m} rhs values, got {len(bvals)}")
    try:
        b = np.array([float(v) for v in bvals])
    except ValueError:
        raise bad(ln_b, "rhs entries must be numeric") from None
    if not np.all(np.isfinite(b)):
        raise bad(ln_b, "rhs entries must be finite")

    psd_dims = tuple(v for v in sizes if v > 0)
    nonneg = sum(-v for v in sizes if v < 0)
    cone = ConeSpec(psd_dims=psd_dims, nonneg=nonneg)

    # ambient offset of each file block
    offsets = []
    psd_at = 0
    lp_at = sum(d * d for d in psd_dims)
    for v in sizes:
        if v > 0:
            offsets.append(("psd", v, psd_at))
            psd_at += v * v
        else:
            offsets.append(("lp", -v, lp_at))
            lp_at += -v

    entries: dict[tuple[int, int], float] = {}  # (matno, flat col) -> value
    for lineno, s in body[4:]:
        fields = _sdpa_fields(s)
        if len(fields) != 5:
            raise bad(lineno, f"expected 'matno blkno i j value', got {s!r}")
        try:
            matno, blkno, i, j = (int(v) for v in fields[:4])
            value = float(fields[4])
        except ValueError:
            raise bad(lineno, f"malformed entry {s!r}") from None
        if not math.isfinite(value):
            raise bad(lineno, f"non-finite value in {s!r}")
        if not 0 <= matno <= m:
            raise bad(lineno, f"matrix number {matno} out of range 0..{m}")
        if not 1 <= blkno <= nblock:
            raise bad(lineno, f"block number {blkno} out of range 1..{nblock}")
        kind, dim, off = offsets[blkno - 1]
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise bad(lineno, f"indices ({i},{j}) out of range for block of size {dim}")
        if kind == "lp":
            if i != j:
                raise bad(lineno, f"off-diagonal entry ({i},{j}) in a diagonal block")
            cols = ((off + i - 1, value),)
        else:
            if i > j:
                if strict:
                    raise bad(
                        lineno,
                        f"lower-triangle entry ({i},{j}); pass strict=False to fold",
                    )
                i, j = j, i
            a, c_ = i - 1, j - 1
            if a == c_:
                cols = ((off + a * dim + c_, value),)
            else:
                cols = ((off + a * dim + c_, value), (off + c_ * dim + a, value))
        for col, val in cols:
            key = (matno, col)
            if key in entries:
                if strict:
                    raise bad(lineno, f"duplicate entry for matrix {matno} at ({i},{j})")
                entries[key] += val
            else:
                entries[key] = val

    c_vec = np.zeros(cone.dim)
    rows, cols, vals = [], [], []
    for (matno, col), val in entries.items():
        if matno == 0:
            c_vec[col] = -val  # c = -F0: minimize -<F0, x>
        else:
            rows.append(matno - 1)
            cols.append(col)
            vals.append(val)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(m, cone.dim))
    amap = AffineMap(cone, mat, b, check=False)
    return LinearConicProblem(
        c=BlockPoint.from_vector(cone, c_vec), a=amap, cone=cone
    )


def write_sdpa(problem: LinearConicProblem, comment: str | None = None) -> str:
    """Serialize to canonical SDPA sparse text.

    Canonical layout: PSD blocks in cone order followed by one merged
    diagonal block; entries sorted by (matno, blkno, i, j); 17 significant
    digits; zero entries omitted.  parse/write round-trip is lossless for
    files already in this layout.
    """
    cone = problem.cone
    if cone.soc_dims:
        raise InputError("SDPA cannot represent second-order cone blocks")
    sizes = list(cone.psd_dims) + ([-cone.nonneg] if cone.nonneg else [])
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"* {row}")
    lines.append(str(problem.m))
    lines.append(str(len(sizes)))
    lines.append(" ".join(str(v) for v in sizes))
    lines.append(" ".join(_fmt(v) for v in problem.b))

    nlp_block = len(cone.psd_dims) + 1

    def emit(matno, vec, out):
        at = 0
        for bi, d in enumerate(cone.psd_dims, start=1):
            block = vec[at:at + d * d].reshape(d, d)
            at += d * d
            for i in range(d):
                for j in range(i, d):
                    if block[i, j] != 0.0:
                        out.append(
                            f"{matno} {bi} {i + 1} {j + 1} {_fmt(block[i, j])}"
                        )
        if cone.nonneg:
            diag = vec[at:at + cone.nonneg]
            for i in range(cone.nonneg):
                if diag[i] != 0.0:
                    out.append(
                        f"{matno} {nlp_block} {i + 1} {i + 1} {_fmt(diag[i])}"
                    )

    emit(0, -problem.c.ravel(), lines)  # F0 = -c
    amat = problem.a.matrix
    for r in range(problem.m):
        emit(r + 1, np.asarray(amat.getrow(r).todense()).ravel(), lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DIMACS edge lists


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col edge file: 'p edge n m' then 'e i j' lines."""
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        fields = s.split()
        if fields[0] == "p":
            if len(fields) < 4 or fields[1] not in ("edge", "edges", "col"):
                raise InputError(f"DIMACS line {lineno}: malformed problem line {s!r}")
            try:
                n = int(fields[2])
            except ValueError:
                raise InputError(
                    f"DIMACS line {lineno}: vertex count must be an integer, "
                    f"got {s!r}"
                ) from None
        elif fields[0] == "e":
            if n is None:
                raise InputError(f"DIMACS line {lineno}: edge before the p-line")
            if len(fields) != 3:
                raise InputError(f"DIMACS line {lineno}: malformed edge {s!r}")
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputError(
                    f"DIMACS line {lineno}: edge endpoints must be integers, "
                    f"got {s!r}"
                ) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(
                    f"DIMACS line {lineno}: edge ({i},{j}) out of range 1..{n}"
                )
            if i != j:
                edges.add((min(i, j) - 1, max(i, j) - 1))
        # other record types are ignored
    if n is None:
        raise InputError("DIMACS file has no 'p edge' line")
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# polynomial text format


def parse_polynomial(text: str) -> Polynomial:
    """Parse the polynomial text format.

    Header ``nvars N``; one term per line, ``coeff e1 ... eN``; blank lines
    and ``#`` comments ignored; repeated exponents are summed and zero
    coefficients dropped.
    """
    nvars = None
    terms: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        fields = s.split()
        if nvars is None:
            if fields[0] != "nvars" or len(fields) != 2:
                raise InputError(
                    f"polynomial line {lineno}: expected 'nvars N', got {s!r}"
                )
            try:
                nvars = int(fields[1])
            except ValueError:
                raise InputError(
                    f"polynomial line {lineno}: nvars must be an integer, "
                    f"got {s!r}"
                ) from None
            if nvars < 1:
                raise InputError(f"polynomial line {lineno}: nvars must be >= 1")
            continue
        if len(fields) != nvars + 1:
            raise InputError(
                f"polynomial line {lineno}: expected coefficient plus {nvars} "
                f"exponents, got {len(fields)} fields"
            )
        try:
            coeff = float(fields[0])
            alpha = tuple(int(v) for v in fields[1:])
        except ValueError:
            raise InputError(
                f"polynomial line {lineno}: non-numeric field in {s!r}"
            ) from None
        if not math.isfinite(coeff):
            raise InputError(f"polynomial line {lineno}: non-finite coefficient")
        if any(e < 0 for e in alpha):
            raise InputError(f"polynomial line {lineno}: negative exponent")
        terms[alpha] = terms.get(alpha, 0.0) + coeff
    if nvars is None:
        raise InputError("polynomial file has no 'nvars' header")
    return Polynomial(nvars, terms)


def write_polynomial(p: Polynomial) -> str:
    """Canonical text form: graded-lex term order, 17 significant digits."""
    lines = [f"nvars {p.num_vars}"]
    for alpha in sorted(p.terms, key=lambda a: (sum(a), a)):
        lines.append(
            " ".join([_fmt(p.terms[alpha])] + [str(e) for e in alpha])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dense matrices


def read_matrix(text: str) -> np.ndarray:
    """Whitespace-separated dense rows; symmetrized on read (warns when the
    asymmetry exceeds the 1e-12 relative tolerance)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        try:
            row = [float(v) for v in s.split()]
        except ValueError:
            raise InputError(f"matrix line {lineno}: non-numeric entry") from None
        if not all(map(math.isfinite, row)):
            raise InputError(f"matrix line {lineno}: non-finite entry")
        rows.append(row)
    if not rows:
        raise InputError("matrix file is empty")
    lens = {len(r) for r in rows}
    if len(lens) != 1:
        raise InputError("matrix rows have inconsistent lengths")
    m = np.array(rows)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"matrix is {m.shape[0]}x{m.shape[1]}, expected square")
    return symmetrize(m)


# ---------------------------------------------------------------------------
# native JSON problems


def cone_from_json(d: dict) -> ConeSpec:
    return ConeSpec(
        psd_dims=tuple(d.get("psd", ())),
        soc_dims=tuple(d.get("soc", ())),
        nonneg=d.get("nonneg", 0),
    )


def blockpoint_from_json(cone: ConeSpec, data) -> BlockPoint:
    """A list of blocks (nested lists of finite numbers) in layout order."""
    if not isinstance(data, list) or len(data) != len(cone.blocks):
        raise InputError(f"expected a list of {len(cone.blocks)} blocks")
    try:
        blocks = [np.array(b, dtype=float) for b in data]
    except (TypeError, ValueError):
        raise InputError("blocks must be nested lists of numbers") from None
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise InputError("block entries must be finite")
    return BlockPoint(cone, blocks)


def blockpoint_to_json(x: BlockPoint) -> list:
    return [np.asarray(b).tolist() for b in x.blocks]


def _affine_from_json(cone: ConeSpec, d: dict) -> AffineMap:
    rows = d.get("rows", [])
    rhs = d.get("rhs", [])
    if len(rows) != len(rhs):
        raise InputError("affine rows and rhs lengths differ")
    dense = np.array(
        [blockpoint_from_json(cone, r).ravel() for r in rows]
    ).reshape(len(rows), cone.dim)
    return AffineMap(cone, sp.csr_matrix(dense), np.asarray(rhs, dtype=float))


def _json_field(data: dict, key: str, parse, *args):
    """``parse(*args, data[key])``, or None when the field is absent; any
    failure on malformed content is an InputError naming the field."""
    if key not in data:
        return None
    try:
        return parse(*args, data[key])
    except InputError as exc:
        raise InputError(f"JSON field {key!r}: {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"JSON field {key!r} is malformed: {exc}") from None


def parse_problem_json(text: str) -> dict:
    """Parse the native JSON schema into its typed pieces.

    Returns a dict with keys cone, center, objective, eq, ineq (absent
    pieces mapped to None).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON problem file: {exc}") from None
    if not isinstance(data, dict) or "cone" not in data or "eq" not in data:
        raise InputError("JSON problem needs 'cone' and 'eq' fields")
    cone = _json_field(data, "cone", cone_from_json)
    return {
        "cone": cone,
        "eq": _json_field(data, "eq", _affine_from_json, cone),
        "ineq": _json_field(data, "ineq", _affine_from_json, cone),
        "center": _json_field(data, "center", blockpoint_from_json, cone),
        "objective": _json_field(data, "objective", blockpoint_from_json, cone),
    }


def projection_problem_from_json(text: str) -> ProjectionProblem:
    """Native JSON file -> ProjectionProblem (center defaults to zero)."""
    parts = parse_problem_json(text)
    center = parts["center"]
    if center is None:
        center = BlockPoint.zeros(parts["cone"])
    return ProjectionProblem(
        c=center, eq=parts["eq"], cone=parts["cone"], ineq=parts["ineq"]
    )
