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

from .cones import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    _check_scale,
    symmetrize,
)
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
    "conic_problem_from_json",
]


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


# ---------------------------------------------------------------------------
# SDPA sparse

# block-size, vector and entry lines may use commas, parens or braces
_SEPARATORS = str.maketrans(",(){}", "     ")
# The entry section is joined with " \n " and translated in one pass: the
# separators become spaces and each "\n" the end-of-line token "\0".  A NUL
# inside a line becomes "\1", which int() and float() reject just as they
# reject NUL, so "\0" tokens mark the line ends and nothing else.
_ENTRY_SECTION = str.maketrans(",(){}\0\n", "     \1\0")

# the entry rules in the order each line is checked, as message templates;
# index 0 is the field count, checked first
_ENTRY_RULES = (
    "expected 'matno blkno i j value', got {s!r}",
    "malformed entry {s!r}",
    "non-finite value in {s!r}",
    "matrix number {matno} out of range 0..{m}",
    "block number {blkno} out of range 1..{nblock}",
    "indices ({i},{j}) out of range for block of size {dim}",
    "off-diagonal entry ({i},{j}) in a diagonal block",
    "lower-triangle entry ({i},{j}); pass strict=False to fold",
    "duplicate entry for matrix {matno} at ({i},{j})",
)


def _sdpa_fields(line: str) -> list[str]:
    return line.translate(_SEPARATORS).split()


def _entry_message(code: int, s: str, m: int, sizes: list[int]) -> str:
    """The message of rule ``code`` (an index into _ENTRY_RULES) for the
    entry line ``s``; from rule 3 on, its four integers parse."""
    names = {"s": s, "m": m, "nblock": len(sizes)}
    if code >= 3:
        matno, blkno, i, j = map(int, _sdpa_fields(s)[:4])
        dim = abs(sizes[blkno - 1]) if 1 <= blkno <= len(sizes) else None
        names.update(matno=matno, blkno=blkno, i=i, j=j, dim=dim)
    return _ENTRY_RULES[code].format(**names)


def _read_column(tokens: list[str], read) -> tuple[np.ndarray, np.ndarray]:
    """The tokens as an array, each read by ``read`` (int or float), and a
    mask of those it rejects (read as 0).  Integers beyond int64 are
    clipped to its range, which every range check rejects."""
    dtype = np.int64 if read is int else np.float64
    rejected = np.zeros(len(tokens), dtype=bool)
    try:
        return np.array(tokens, dtype=dtype), rejected
    except (ValueError, OverflowError):  # a rare token: read one at a time
        pass
    values = np.zeros(len(tokens), dtype=dtype)
    big = np.iinfo(np.int64).max
    for k, tok in enumerate(tokens):
        try:
            v = read(tok)
        except ValueError:
            rejected[k] = True
        else:
            values[k] = min(max(v, -big - 1), big) if read is int else v
    return values, rejected


def _entry_columns(entries: list[str]):
    """Tokenize the entry lines once.

    Returns the number ``n`` of leading lines that have five fields, and
    for those lines the columns matno, blkno, i, j (int64) and value
    (float) with a mask of the lines where int() or float() rejects a field.
    """
    tokens = " \n ".join([*entries, ""]).translate(_ENTRY_SECTION).split()
    n = len(entries)
    if len(tokens) != 6 * n or tokens[5::6].count("\0") != n:
        # the first "\0" off every sixth token, or field on it, lies in the
        # first line whose fields are not five
        ends = np.fromiter((t == "\0" for t in tokens), bool, len(tokens))
        sixth = np.arange(len(tokens)) % 6 == 5
        n = int(np.flatnonzero(ends != sixth)[0]) // 6
    columns = [tokens[k:6 * n:6] for k in range(5)]
    del tokens
    rejected = np.zeros(n, dtype=bool)
    for k, read in enumerate((int, int, int, int, float)):
        columns[k], bad = _read_column(columns[k], read)
        rejected |= bad
    return n, columns, rejected


def parse_sdpa(text: str, strict: bool = True) -> LinearConicProblem:
    """Parse an SDPA sparse problem into standard form min <c,x>, Ax=b, x in K.

    Lines that are blank or start with ``*`` or ``"`` are comments,
    anywhere in the file.  The commas, parentheses and braces ``,(){}`` are
    read as spaces.  Each entry line holds ``matno blkno i j value``: the
    four integers as Python's ``int()`` reads them and the value as
    ``float()`` does.  In strict mode a lower-triangle entry or a repeated
    (matno, position) is an error; with ``strict=False`` lower-triangle
    entries are folded and repeated entries summed in line order.  An error
    raises InputError naming the first offending line.  An objective,
    constraint or right-hand-side entry beyond sqrt(float max) / dim in
    magnitude, dim the ambient dimension, raises InputError too: the
    residual norms of such data could overflow.  Repeated entries are
    bounded one by one before they are summed, and their sums after.
    """
    lines = [raw.strip() for raw in text.splitlines()]
    body = [k for k, s in enumerate(lines) if s and s[0] not in "*\""]
    if len(body) < 4:
        raise InputError("SDPA file is truncated: needs m, nblock, sizes, rhs")

    def bad(k, msg):
        return InputError(f"SDPA line {k + 1}: {msg}")

    (ln_m, s_m), (ln_nb, s_nb), (ln_sz, s_sz), (ln_b, s_b) = (
        (k, lines[k]) for k in body[:4]
    )
    try:
        m = int(_sdpa_fields(s_m)[0])
    except (IndexError, ValueError):
        raise bad(ln_m, f"expected constraint count, got {s_m!r}") from None
    try:
        nblock = int(_sdpa_fields(s_nb)[0])
    except (IndexError, ValueError):
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

    # per file block 1..nblock (row 0 stands for no block): order, diagonal
    # flag and ambient offset
    dim_of = np.array([0] + [abs(v) for v in sizes])
    lp_of = np.array([False] + [v < 0 for v in sizes])
    off_of = np.zeros(nblock + 1, dtype=np.int64)
    psd_at, lp_at = 0, sum(d * d for d in psd_dims)
    for k, v in enumerate(sizes, start=1):
        if v > 0:
            off_of[k], psd_at = psd_at, psd_at + v * v
        else:
            off_of[k], lp_at = lp_at, lp_at - v

    entries = [lines[k] for k in body[4:]]
    del lines
    n, (matno, blkno, i, j, value), malformed = _entry_columns(entries)

    # each rule as a mask over the lines; np.select keeps the first that
    # fails on each line, numbered as in _ENTRY_RULES
    blk = np.where((blkno >= 1) & (blkno <= nblock), blkno, 0)
    dim, lp = dim_of[blk], lp_of[blk]
    rule = np.select(
        [
            malformed,
            ~np.isfinite(value),
            (matno < 0) | (matno > m),
            blk == 0,
            (i < 1) | (i > dim) | (j < 1) | (j > dim),
            lp & (i != j),
            (i > j) & ~lp & bool(strict),
        ],
        list(range(1, 8)),
    )
    failed = np.flatnonzero(rule)
    stop = int(failed[0]) if failed.size else n
    # the lines before the first failure are valid: find their positions
    matno, i, j, value = matno[:stop], i[:stop], j[:stop], value[:stop]
    dim, off, lp = dim[:stop], off_of[blk[:stop]], lp[:stop]
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    upper = off + np.where(lp, lo, lo * dim + hi)
    lower = off + np.where(lp, lo, hi * dim + lo)
    # group repeated (matno, position) in line order
    order = np.lexsort((upper, matno))
    repeat = np.zeros(stop, dtype=bool)
    repeat[1:] = (np.diff(matno[order]) == 0) & (np.diff(upper[order]) == 0)
    # the first offending line: repeats were sought before `stop` only
    if strict and repeat.any():
        k, code = int(order[repeat].min()), 8
    elif stop < n:
        k, code = stop, int(rule[stop])
    elif n < len(entries):
        k, code = n, 0
    else:
        k = None
    if k is not None:
        raise bad(body[4 + k], _entry_message(code, entries[k], m, sizes))

    # bound the entries before summing repeats, which two entries near float
    # max would overflow; AffineMap and LinearConicProblem bound the sums
    _check_scale(value[matno != 0], cone.dim, "constraint matrix")
    _check_scale(value[matno == 0], cone.dim, "objective")
    # sum each group in line order: np.add.at adds in index order
    group = np.cumsum(~repeat) - 1
    first = order[~repeat]
    total = value[first]
    np.add.at(total, group[repeat], value[order[repeat]])
    mirror = upper[first] != lower[first]
    matno = np.concatenate([matno[first], matno[first][mirror]])
    col = np.concatenate([upper[first], lower[first][mirror]])
    total = np.concatenate([total, total[mirror]])
    f0 = matno == 0
    c_vec = np.zeros(cone.dim)
    c_vec[col[f0]] = -total[f0]  # c = -F0: minimize -<F0, x>
    mat = sp.csr_matrix(
        (total[~f0], (matno[~f0] - 1, col[~f0])), shape=(m, cone.dim)
    )
    amap = AffineMap(cone, mat, b, check=False)
    return LinearConicProblem(
        c=BlockPoint.from_vector(cone, c_vec), a=amap, cone=cone
    )


def write_sdpa(problem: LinearConicProblem, comment: str | None = None) -> str:
    """Serialize to canonical SDPA sparse text.

    Canonical layout: PSD blocks in cone order followed by one merged
    diagonal block; the upper-triangle nonzeros of F0 = -c and of each row
    of A, sorted by (matno, blkno, i, j); 17 significant digits.  Duplicate
    stored entries of A are summed and stored zeros omitted.  parse/write
    round-trip is lossless for files already in this layout.
    """
    cone = problem.cone
    if cone.soc_dims:
        raise InputError("SDPA cannot represent second-order cone blocks")
    sizes = list(cone.psd_dims) + ([-cone.nonneg] if cone.nonneg else [])
    lines = [f"* {row}" for row in (comment or "").splitlines()]
    lines += [str(problem.m), str(len(sizes)), " ".join(str(v) for v in sizes),
              " ".join(_fmt(v) for v in problem.b)]
    blkno, i, j = (np.empty(cone.dim, dtype=np.int64) for _ in range(3))
    for k, (kind, d, sl) in enumerate(cone.blocks, start=1):
        blkno[sl] = k
        if kind == "psd":
            i[sl], j[sl] = divmod(np.arange(d * d), d)
        else:
            i[sl] = j[sl] = np.arange(d)
    f = sp.vstack([sp.csr_matrix(-problem.c.ravel()), problem.a.matrix]).tocoo()
    f.sum_duplicates()
    keep = (f.data != 0.0) & (i[f.col] <= j[f.col])
    matno, col, val = f.row[keep], f.col[keep], f.data[keep]
    for e in np.lexsort((j[col], i[col], blkno[col], matno)):
        a = col[e]
        lines.append(f"{matno[e]} {blkno[a]} {i[a] + 1} {j[a] + 1} {_fmt(val[e])}")
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
    asymmetry exceeds the 1e-12 relative tolerance).  An n x n matrix with
    an entry beyond sqrt(float max) / n^2 in magnitude raises InputError:
    its norms could overflow."""
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
    _check_scale(m, m.size, "matrix")
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


def conic_problem_from_json(text: str) -> LinearConicProblem:
    """Native JSON file -> LinearConicProblem (objective defaults to zero)."""
    parts = parse_problem_json(text)
    if parts["ineq"] is not None:
        raise InputError("solve expects equality constraints only")
    obj = parts["objective"]
    if obj is None:
        obj = BlockPoint.zeros(parts["cone"])
    return LinearConicProblem(c=obj, a=parts["eq"], cone=parts["cone"])
