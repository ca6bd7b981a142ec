import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import conicproj as cp
from conicproj import (
    AffineMap,
    BlockPoint,
    ConeSpec,
    InputError,
    LinearConicProblem,
)
from conicproj.cli import run_cli
from conicproj.io import (
    _fmt,
    blockpoint_from_json,
    blockpoint_to_json,
    parse_dimacs,
    parse_polynomial,
    parse_problem_json,
    parse_sdpa,
    projection_problem_from_json,
    read_matrix,
    write_polynomial,
    write_sdpa,
)
from conftest import fixture_text

SDPA_FIXTURES = [
    "trace2.dat-s",
    "sos_n3_d2.dat-s",
    "sos_rank1_n2_d2.dat-s",
    "theta_c5.dat-s",
    "mixed_blocks.dat-s",
]


class TestSdpa:
    def test_minimal_trace_file(self):
        text = "\n".join(
            ["* tiny", "1", "1", "2", "1.0", "1 1 1 1 1.0", "1 1 2 2 1.0"]
        )
        prob = parse_sdpa(text)
        assert prob.m == 1
        assert prob.cone.psd_dims == (2,)
        assert prob.cone.nonneg == 0
        assert np.allclose(prob.b, [1.0])
        assert np.allclose(prob.a.apply_vec(np.eye(2).ravel()), [2.0])

    def test_negative_block_is_nonneg_orthant(self):
        text = "\n".join(["1", "1", "-3", "2.0", "1 1 2 2 1.0"])
        prob = parse_sdpa(text)
        assert prob.cone.psd_dims == ()
        assert prob.cone.nonneg == 3

    def test_objective_sign_is_minus_f0(self):
        # the F0 block is rewarded: minimizing <c, x> = -<F0, x>
        text = "\n".join(["1", "1", "2", "1.0", "0 1 1 2 1.0", "1 1 1 1 1.0"])
        prob = parse_sdpa(text)
        c = np.array(prob.c.blocks[0])
        assert np.allclose(c, [[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("name", SDPA_FIXTURES)
    def test_fixture_roundtrip_byte_canonical(self, name):
        text = fixture_text(name)
        prob = parse_sdpa(text)
        comment = text.splitlines()[0].lstrip("* ")
        regenerated = write_sdpa(prob, comment=comment)
        assert regenerated == text
        prob2 = parse_sdpa(regenerated)
        assert prob2.cone == prob.cone
        assert np.array_equal(prob2.b, prob.b)
        assert np.array_equal(prob2.c.ravel(), prob.c.ravel())
        assert (prob.a.matrix != prob2.a.matrix).nnz == 0

    def test_lower_triangle_strict_vs_lenient(self):
        text = "\n".join(["1", "1", "2", "1.0", "1 1 2 1 1.0"])
        with pytest.raises(InputError) as exc:
            parse_sdpa(text)
        assert "line 5" in str(exc.value)
        prob = parse_sdpa(text, strict=False)
        row = np.asarray(prob.a.matrix.todense()).ravel()
        assert np.allclose(row, [0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "matno, what", [(0, "objective"), (1, "constraint matrix")]
    )
    def test_lenient_repeats_are_bounded_before_the_sum(self, matno, what):
        # summed first, the two entries would overflow to inf with a
        # RuntimeWarning, which the test configuration makes an error
        text = "1\n1\n2\n1.0\n" + f"{matno} 1 1 1 1e308\n" * 2 + "0 1 1 2 1.0\n"
        with pytest.raises(InputError, match=f"{what} has an entry of magnitude"):
            parse_sdpa(text, strict=False)

    def test_malformed_lines_name_line_numbers(self):
        bad_entry = "\n".join(["1", "1", "2", "1.0", "1 1 1 oops 1.0"])
        with pytest.raises(InputError) as exc:
            parse_sdpa(bad_entry)
        assert "line 5" in str(exc.value)
        bad_counts = "\n".join(["2", "1", "2", "1.0"])
        with pytest.raises(InputError):
            parse_sdpa(bad_counts)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("(\n1\n2\n1.0\n", "SDPA line 1: expected constraint count, got '('"),
            ("* c\n1\n{}\n2\n1.0\n", "SDPA line 3: expected block count, got '{}'"),
        ],
        ids=["m-line", "nblock-line"],
    )
    def test_separator_only_header_line(self, text, named, tmp_path, capsys):
        with pytest.raises(InputError) as exc:
            parse_sdpa(text)
        assert str(exc.value) == named
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        assert run_cli(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 4
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes, dim",
        [("9223372036854775808", 2**126), ("3037000500 -2", 3037000500**2 + 2)],
        ids=["order-2^63", "order-3037000500"],
    )
    def test_block_sizes_beyond_an_array(self, sizes, dim, tmp_path, capsys):
        # the ambient dimension exceeds what an array can hold: bad input,
        # rejected before anything is allocated
        nblock = len(sizes.split())
        text = f"1\n{nblock}\n{sizes}\n1.0\n"
        with pytest.raises(InputError, match=f"ambient dimension {dim},"):
            parse_sdpa(text)
        path = tmp_path / "big.dat-s"
        path.write_text(text)
        assert run_cli(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_offdiagonal_in_lp_block_rejected(self):
        text = "\n".join(["1", "1", "-2", "1.0", "1 1 1 2 1.0"])
        with pytest.raises(InputError):
            parse_sdpa(text)

    def test_soc_not_representable(self):
        cone = cp.ConeSpec(soc_dims=(3,))
        import scipy.sparse as sp

        amap = cp.AffineMap(
            cone, sp.csr_matrix((np.ones(1), ([0], [2])), shape=(1, 3)), [1.0]
        )
        prob = cp.LinearConicProblem(
            c=cp.BlockPoint.zeros(cone), a=amap, cone=cone
        )
        with pytest.raises(InputError):
            write_sdpa(prob)


def _reference_write_sdpa(problem, comment=None):
    """The dense per-row writer that ``write_sdpa`` replaced, kept verbatim
    as the byte-for-byte reference."""
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


def _irregular_problem():
    """PSD 2 + PSD 3 + orthant 2 with a stored zero, a row that is not
    symmetric on block 1 (entry (2,1) without (1,2)) and a duplicated
    stored entry (0.5 + 0.25 at orthant position 1)."""
    cone = cp.ConeSpec(psd_dims=(2, 3), nonneg=2)
    mat = sp.csr_matrix(
        (
            np.array([1.0, 0.0, 2.0, 3.0, 0.5, 0.25, 4.0, -1.0]),
            np.array([0, 1, 5, 5, 13, 13, 14, 2]),
            np.array([0, 3, 8]),
        ),
        shape=(2, cone.dim),
    )
    c = np.zeros(cone.dim)
    c[0], c[6], c[14] = 1.5, -2.0, 3.0
    return cp.LinearConicProblem(
        c=cp.BlockPoint.from_vector(cone, c),
        a=cp.AffineMap(cone, mat, [1.0, 2.0], check=False),
        cone=cone,
    )


def _theta_c7_chord():
    edges = {(k, (k + 1) % 7) for k in range(7)} | {(0, 3)}
    return cp.build_theta(cp.Graph(7, frozenset(edges)))


GENERATED = {
    "sos-n3-d2-full": lambda: cp.random_sos_instance(3, 2, "full", seed=1)[0],
    "sos-n4-d2-one": lambda: cp.random_sos_instance(4, 2, "one", seed=1)[0],
    "sos-n5-d3-full": lambda: cp.random_sos_instance(5, 3, "full", seed=1)[0],
    "theta-c7-chord": _theta_c7_chord,
    "structured-polymin-n3": lambda: cp.build_polymin(
        cp.structured_polymin_instance(3)
    )[0],
}


class TestWriteSdpa:
    @pytest.mark.parametrize("name", SDPA_FIXTURES)
    def test_fixture_bytes_equal_reference(self, name):
        prob = parse_sdpa(fixture_text(name))
        assert write_sdpa(prob, "a\nb") == _reference_write_sdpa(prob, "a\nb")

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_bytes_equal_reference(self, name):
        prob = GENERATED[name]()
        assert write_sdpa(prob, name) == _reference_write_sdpa(prob, name)

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_roundtrip(self, name):
        prob = GENERATED[name]()
        back = parse_sdpa(write_sdpa(prob))
        assert back.cone == prob.cone
        assert np.array_equal(back.b, prob.b)
        assert np.array_equal(back.c.ravel(), prob.c.ravel())
        assert (back.a.matrix != prob.a.matrix).nnz == 0

    def test_irregular_rows_bytes_equal_reference(self):
        prob = _irregular_problem()
        text = write_sdpa(prob)
        assert text == _reference_write_sdpa(prob)
        # the duplicate is summed, the stored zero and the lower entry dropped
        assert text.splitlines()[4:] == [
            "0 1 1 1 -1.5",
            "0 2 1 3 2",
            "0 3 2 2 -3",
            "1 1 1 1 1",
            "1 2 1 2 2",
            "2 2 1 2 3",
            "2 3 1 1 0.75",
            "2 3 2 2 4",
        ]


def _reference_sdpa_fields(line: str) -> list[str]:
    # block-size and vector lines may use commas, parens or braces
    return line.replace(",", " ").replace("(", " ").replace(")", " ") \
               .replace("{", " ").replace("}", " ").split()


def _reference_parse_sdpa(text: str, strict: bool = True) -> LinearConicProblem:
    """The per-line parser that ``parse_sdpa`` replaced, kept verbatim as
    the bit-for-bit and message-for-message reference."""
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
        m = int(_reference_sdpa_fields(s_m)[0])
    except ValueError:
        raise bad(ln_m, f"expected constraint count, got {s_m!r}") from None
    try:
        nblock = int(_reference_sdpa_fields(s_nb)[0])
    except ValueError:
        raise bad(ln_nb, f"expected block count, got {s_nb!r}") from None
    sizes = _reference_sdpa_fields(s_sz)
    if len(sizes) != nblock:
        raise bad(ln_sz, f"expected {nblock} block sizes, got {len(sizes)}")
    try:
        sizes = [int(v) for v in sizes]
    except ValueError:
        raise bad(ln_sz, "block sizes must be integers") from None
    if any(v == 0 for v in sizes):
        raise bad(ln_sz, "zero block size")
    bvals = _reference_sdpa_fields(s_b)
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
        fields = _reference_sdpa_fields(s)
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


def _assert_same_problem(got, want):
    """Bit-for-bit equal parsed problems: cone, b, c and the CSR arrays."""
    assert got.cone == want.cone
    assert got.a.matrix.shape == want.a.matrix.shape
    pairs = [
        (got.b, want.b),
        (got.c.ravel(), want.c.ravel()),
        (got.a.matrix.indptr, want.a.matrix.indptr),
        (got.a.matrix.indices, want.a.matrix.indices),
        (got.a.matrix.data, want.a.matrix.data),
    ]
    for x, y in pairs:
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _entry_variant(text, seed):
    """The same file with its entry lines shuffled, comment and blank lines
    interleaved, and separators put inside the entries."""
    lines = text.splitlines()
    body = [k for k, s in enumerate(lines) if s.strip()[:1] not in ("", "*", '"')]
    head, entries = lines[: body[3] + 1], [lines[k] for k in body[4:]]
    r = np.random.default_rng(seed)
    out = list(head)
    for k in r.permutation(len(entries)):
        f = entries[k].split()
        out.append(
            [
                " ".join(f),
                f"{f[0]},{f[1]},({f[2]},{f[3]}),{f[4]}",
                f"  {{{f[0]} {f[1]}}} ({f[2]}, {f[3]})\t{f[4]}  ",
            ][k % 3]
        )
        extra = int(r.integers(6))
        if extra < 3:
            out.append(["* comment 1 1 1 1", '" quoted 1 1 1 1', "   "][extra])
    return "\n".join(out) + "\n"


SOS_TEXTS = {
    f"sos-n{n}-{rank}": (n, rank) for n in (5, 6, 7) for rank in ("full", "one")
}

# lenient-mode entries: lower-triangle entries and 2-, 3- and 9-way repeats
# whose sums depend on the order of addition
LENIENT_TEXT = "\n".join(
    ["2", "2", "3 -2", "1 -1"]
    + ["1 1 1 2 0.1", "1 1 2 1 0.2", "1 1 1 2 0.3"]
    + ["0 1 3 1 1e-17", "0 1 1 3 1.0", "0 1 2 2 -0.7", "2 1 1 1 0.3"]
    + [f"2 1 3 2 {v!r}" for v in (0.1, 0.7, 1e16, -1e16, 0.2, 0.3, 3.0, 0.1, 1e-3)]
    + ["1 2 1 1 0.1", "1 2 1 1 0.2", "2 2 2 2 -1.5"]
) + "\n"


def _random_lenient_text(r):
    """A random lenient SDPA file: a PSD block of order 3 and a diagonal
    block of order 2, each of up to 12 positions given 1 to 6 times,
    lower-triangle entries included, in shuffled line order."""
    m = int(r.integers(1, 4))
    entries = []
    for _ in range(int(r.integers(1, 13))):
        matno, blkno = int(r.integers(0, m + 1)), int(r.integers(1, 3))
        if blkno == 1:
            i, j = (int(v) for v in r.integers(1, 4, size=2))
        else:
            i = j = int(r.integers(1, 3))
        for _ in range(int(r.integers(1, 7))):
            value = r.standard_normal() * 10.0 ** int(r.integers(-6, 7))
            entries.append(f"{matno} {blkno} {i} {j} {value!r}")
    head = [str(m), "2", "3 -2", " ".join(["1.0"] * m)]
    return "\n".join(head + [entries[k] for k in r.permutation(len(entries))])


class TestParseSdpaReference:
    """``parse_sdpa`` against the per-line parser it replaced: bit-equal
    problems and equal error messages."""

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("name", SDPA_FIXTURES)
    def test_fixtures(self, name, strict):
        text = fixture_text(name)
        _assert_same_problem(
            parse_sdpa(text, strict), _reference_parse_sdpa(text, strict)
        )

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("name", sorted(SOS_TEXTS))
    def test_random_sos(self, name, strict):
        n_vars, rank = SOS_TEXTS[name]
        prob, _ = cp.random_sos_instance(n_vars, 3, rank, seed=n_vars)
        text = write_sdpa(prob)
        _assert_same_problem(
            parse_sdpa(text, strict), _reference_parse_sdpa(text, strict)
        )

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["mixed_blocks.dat-s", "sos_n3_d2.dat-s"])
    def test_shuffled_commented_separated(self, name, seed, strict):
        text = _entry_variant(fixture_text(name), seed)
        _assert_same_problem(
            parse_sdpa(text, strict), _reference_parse_sdpa(text, strict)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lenient_lower_triangle_and_repeats(self, seed):
        text = LENIENT_TEXT if seed == 0 else _entry_variant(LENIENT_TEXT, seed)
        _assert_same_problem(
            parse_sdpa(text, strict=False),
            _reference_parse_sdpa(text, strict=False),
        )

    def test_lenient_random_repeats(self):
        # 300 random lenient files: the repeats, up to 6 of a position and
        # spread over 13 orders of magnitude, sum as the per-line parser
        # sums them, bit for bit
        r = np.random.default_rng(23)
        for _ in range(300):
            text = _random_lenient_text(r)
            _assert_same_problem(
                parse_sdpa(text, strict=False),
                _reference_parse_sdpa(text, strict=False),
            )

    def test_lenient_sums_in_line_order(self):
        prob = parse_sdpa(LENIENT_TEXT, strict=False)
        row = prob.a.matrix.toarray()[0]
        assert row[1] == row[3] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_no_entries(self):
        text = "2\n1\n2\n1 2\n* no entries\n"
        for strict in (True, False):
            prob = parse_sdpa(text, strict)
            _assert_same_problem(prob, _reference_parse_sdpa(text, strict))
            assert prob.a.matrix.nnz == 0


# header of the error table: m = 2, a PSD block of order 2 and a diagonal
# block of order 2
ERR_HEAD = "2\n2\n2 -2\n1 1\n"
ENTRY_ERRORS = {
    "four-fields": (["1 1 1 1"], True),
    "six-fields": (["1 1 1 1 1.0 2"], True),
    "separators-only": (["1 1 1 1 1.0", "(,)"], True),
    "index-1.0": (["1 1 1.0 1 1.0"], True),
    "index-1e0": (["1 1 1 1e0 1.0"], True),
    "index-oops": (["1 1 1 oops 1.0"], True),
    "index-nul": (["1 1 1 \0 1.0"], True),
    "value-nul": (["1 1 1 1 1.0\0"], True),
    "nul-field": (["1 1 1 1 1.0 \0"], True),
    "plus-sign-read": (["+3 1 1 1 1.0"], True),
    "underscore-read": (["1 1_0 1 1 1.0"], True),
    "digits-25-matno": (["1234567890123456789012345 1 1 1 1.0"], True),
    "digits-25-index": (["1 1 1 1234567890123456789012345 1.0"], True),
    "digits-25-negative-blkno": (["1 -1234567890123456789012345 1 1 1.0"], True),
    "value-nan": (["1 1 1 1 nan"], True),
    "value-inf": (["1 1 1 1 -inf"], True),
    "value-1e400": (["1 1 1 1 1e400"], True),
    "matno-high": (["3 1 1 1 1.0"], True),
    "matno-negative": (["-1 1 1 1 1.0"], True),
    "blkno-zero": (["1 0 1 1 1.0"], True),
    "blkno-high": (["1 3 1 1 1.0"], True),
    "index-zero": (["1 1 0 1 1.0"], True),
    "index-high-psd": (["1 1 1 3 1.0"], True),
    "index-high-diagonal": (["1 2 3 3 1.0"], False),
    "offdiagonal-in-diagonal-block": (["1 2 1 2 1.0"], False),
    "lower-triangle": (["1 1 2 1 1.0"], True),
    "strict-duplicate": (["1 1 1 2 1.0", "1 1 1 1 1.0", "1 1 1 2 2.0"], True),
    "strict-duplicate-diagonal-block": (["0 2 1 1 1.0", "0 2 1 1 1.0"], True),
    "two-bad-lines": (["1 1 1 1 1.0", "1 1 1 1 nan", "1 1 1 1 1 1"], True),
    "two-rules-nonfinite-first": (["5 9 3 1 inf"], True),
    "two-rules-matno-first": (["5 9 1 1 1.0"], True),
    "two-rules-index-first": (["1 2 1 3 1.0"], True),
    "two-rules-index-before-lower": (["1 1 3 1 1.0"], True),
    "field-count-after-range-error": (["1 1 1 1 1.0", "3 1 1 1 1.0", "1 1 1"], True),
    "range-error-after-duplicate": (
        ["1 1 1 1 1.0", "1 1 1 1 2.0", "1 3 1 1 1.0"], True
    ),
    "duplicate-after-comments": (
        ["1 1 1 1 1.0", "* c", "", '" q', "1,1,(1,1),2.0", "1 1 1 1"], True
    ),
}


class TestParseSdpaErrors:
    @pytest.mark.parametrize("name", sorted(ENTRY_ERRORS))
    def test_same_message_as_reference(self, name):
        entries, strict = ENTRY_ERRORS[name]
        text = ERR_HEAD + "\n".join(entries) + "\n"
        with pytest.raises(InputError) as want:
            _reference_parse_sdpa(text, strict)
        with pytest.raises(InputError) as got:
            parse_sdpa(text, strict)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "text",
        ["1\n1\n2\n1\n", "x\n1\n2\n1.0\n", "1\n1\n2 2\n1.0\n", "1\n1\n0\n1.0\n",
         "1\n1\n2\n1 2\n", "1\n1\n2\ny\n", "1\n1\n2\ninf\n", "1\n1\n2\n"],
        ids=["ok", "bad-m", "sizes-count", "zero-size", "rhs-count",
             "rhs-text", "rhs-inf", "truncated"],
    )
    def test_header_same_as_reference(self, text):
        try:
            want = _reference_parse_sdpa(text)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                parse_sdpa(text)
            assert str(got.value) == str(exc)
        else:
            _assert_same_problem(parse_sdpa(text), want)


class TestDimacs:
    def test_five_cycle_fixture(self):
        g = parse_dimacs(fixture_text("c5.col"))
        assert g.num_vertices == 5
        assert g.num_edges == 5

    def test_duplicate_edges_fold(self):
        g = parse_dimacs("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 3\n")
        assert g.num_edges == 2

    def test_errors(self):
        with pytest.raises(InputError):
            parse_dimacs("e 1 2\n")  # edge before p-line
        with pytest.raises(InputError):
            parse_dimacs("p edge 3 1\ne 1 9\n")  # out of range
        with pytest.raises(InputError):
            parse_dimacs("c only comments\n")


class TestPolynomialFormat:
    def test_one_plus_v_squared(self):
        p = parse_polynomial("nvars 1\n1 0\n1 2\n")
        assert p.terms == {(0,): 1.0, (2,): 1.0}

    def test_motzkin_fixture_matches_constructor(self):
        p = parse_polynomial(fixture_text("motzkin.txt"))
        assert p == cp.motzkin()

    def test_duplicate_terms_sum(self):
        p = parse_polynomial("nvars 1\n1 2\n2.5 2\n")
        assert p.terms == {(2,): 3.5}

    def test_comments_and_blanks(self):
        p = parse_polynomial("# poly\n\nnvars 2\n1 1 1  # cross term\n")
        assert p.terms == {(1, 1): 1.0}

    def test_errors_with_line_numbers(self):
        with pytest.raises(InputError) as exc:
            parse_polynomial("nvars 2\n1 0\n")
        assert "line 2" in str(exc.value)
        with pytest.raises(InputError):
            parse_polynomial("1 0\n")  # missing header
        with pytest.raises(InputError):
            parse_polynomial("nvars 1\nx 0\n")

    def test_roundtrip(self):
        p = cp.random_polymin_instance(3, 2, seed=14)
        assert parse_polynomial(write_polynomial(p)) == p


class TestMatrixFile:
    def test_read_square(self):
        m = read_matrix("1.0 0.5\n0.5 1.0\n")
        assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_symmetrize_with_warning(self):
        with pytest.warns(UserWarning):
            m = read_matrix("1.0 0.4\n0.6 1.0\n")
        assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_errors(self):
        with pytest.raises(InputError):
            read_matrix("1.0 2.0\n")
        with pytest.raises(InputError):
            read_matrix("1.0 a\n2.0 1.0\n")
        with pytest.raises(InputError):
            read_matrix("")


class TestJsonProblems:
    def make_soc_json(self):
        return """
        {
          "cone": {"psd": [2], "soc": [3], "nonneg": 1},
          "center": [[[1.0, 0.5], [0.5, -1.0]], [0.0, 0.0, -1.0], [2.0]],
          "eq": {
            "rows": [[[[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0], [0.0]],
                     [[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0, 1.0], [1.0]]],
            "rhs": [1.0, 0.5]
          }
        }
        """

    def test_parse_and_project(self):
        prob = projection_problem_from_json(self.make_soc_json())
        assert prob.cone.soc_dims == (3,)
        x, d, rep = cp.solve_quasi_newton(prob, tol=1e-9)
        assert rep.converged()
        assert np.linalg.norm(prob.eq.apply(x) - prob.eq.rhs) <= 1e-8

    def test_blockpoint_json_roundtrip(self):
        cone = cp.ConeSpec(psd_dims=(2,), soc_dims=(2,), nonneg=1)
        from conftest import random_point, rng

        x = random_point(rng(70), cone)
        back = blockpoint_from_json(cone, blockpoint_to_json(x))
        assert (x - back).norm() == 0.0

    def test_missing_fields(self):
        with pytest.raises(InputError):
            parse_problem_json("{}")
        with pytest.raises(InputError):
            parse_problem_json("not json")
        with pytest.raises(InputError):
            parse_problem_json(
                '{"cone": {"psd": [2]}, "eq": {"rows": [], "rhs": [1.0]}}'
            )


JSON_SOC_PROBLEM = """{
  "cone": {"psd": [2], "soc": [3], "nonneg": 1},
  "center": [[[1.0, 0.5], [0.5, -1.0]], [0.0, 0.0, -1.0], [2.0]],
  "objective": [[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0, 0.0], [1.0]],
  "eq": {
    "rows": [[[[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0], [0.0]],
             [[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0, 1.0], [1.0]]],
    "rhs": [1.0, 0.5]
  }
}
"""


INF_BLOCKS = [[[1, 0], [0, 1]], [0, 0, float("inf")], [0]]
RAGGED_BLOCKS = [[[1, 0], [0]], [0, 0, 0], [0]]


def _json_with(**fields):
    """The SOC problem above with some top-level fields replaced."""
    data = json.loads(JSON_SOC_PROBLEM)
    data.update(fields)
    return json.dumps(data)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "parse, text, named",
        [
            (parse_sdpa, "1\n1\n2\nnan\n1 1 1 1 1.0\n", "line 4"),
            (parse_sdpa, "1\n1\n-2\n1.0\n0 1 1 1 -inf\n1 1 2 2 1.0\n", "line 5"),
            (parse_polynomial, "nvars 1\ninf 2\n", "line 2"),
            (parse_polynomial, "nvars 1\n1 0\nnan 2\n", "line 3"),
            (parse_dimacs, "p edge 2.5 1\n", "line 1"),
            (read_matrix, "1.0 0.0\n0.0 nan\n", "line 2"),
            (parse_problem_json, "[1, 2]", "'cone' and 'eq'"),
            (parse_problem_json, _json_with(cone={"nonneg": 1.5}), "'cone'"),
            (parse_problem_json, _json_with(cone=[2]), "'cone'"),
            (parse_problem_json, _json_with(objective=INF_BLOCKS), "'objective'"),
            (parse_problem_json, _json_with(center=RAGGED_BLOCKS), "'center'"),
            (parse_problem_json, _json_with(center=7), "'center'"),
            (
                parse_problem_json,
                _json_with(eq={"rows": [INF_BLOCKS], "rhs": [1]}),
                "'eq'",
            ),
            (parse_problem_json, _json_with(eq={"rows": [], "rhs": 1}), "'eq'"),
            (parse_problem_json, _json_with(eq=[1]), "'eq'"),
        ],
        ids=[
            "sdpa-rhs-nan", "sdpa-lp-entry-inf", "poly-coeff-inf",
            "poly-coeff-nan", "dimacs-fractional-n", "matrix-nan",
            "json-not-object", "json-fractional-nonneg", "json-cone-list",
            "json-objective-inf", "json-ragged-center", "json-center-number",
            "json-row-inf", "json-rhs-number", "json-eq-list",
        ],
    )
    def test_rejected_naming_line_or_field(self, parse, text, named):
        with pytest.raises(InputError) as exc:
            parse(text)
        assert named in str(exc.value)

    def test_cone_spec_does_not_truncate(self):
        with pytest.raises(InputError):
            cp.ConeSpec(psd_dims=(2.7,))
        with pytest.raises(InputError):
            cp.ConeSpec(nonneg="3")
        assert cp.ConeSpec(psd_dims=(np.int64(2), 3.0)).psd_dims == (2, 3)


class TestParserFuzz:
    """Seeded mutations of real inputs: every parser returns or raises
    InputError, and a sample of the inputs that parse runs through the CLI
    to an exit code of 0, 2, 3 or 4 with no non-finite number in the
    report."""

    MUTATIONS = 200  # per input
    CLI_SAMPLE = 8  # inputs that parse, per format, run through the CLI
    TOKEN = re.compile(r"[^\s\[\]{},:]+")
    CASES = {
        "dimacs": (
            fixture_text("c5.col"), parse_dimacs, ".col",
            ("nan", "inf", "x", "-1", "2.5"), ["theta", "--max-outer", "30"],
        ),
        "polynomial": (
            fixture_text("motzkin.txt"), parse_polynomial, ".txt",
            ("nan", "inf", "x", "-1", "2.5"),
            ["sos-check", "--degree", "3", "--max-outer", "30"],
        ),
        "sdpa": (
            fixture_text("mixed_blocks.dat-s"), parse_sdpa, ".dat-s",
            ("nan", "inf", "x", "-1", "2.5"), ["solve", "--max-outer", "30"],
        ),
        # JSON spells the non-finite tokens as Python's json module reads them
        "json": (
            JSON_SOC_PROBLEM, parse_problem_json, ".json",
            ("NaN", "Infinity", "x", "-1", "2.5"), ["project", "--max-iter", "20"],
        ),
    }

    @classmethod
    def mutate(cls, r, text, tokens):
        """Swap one token, or drop, duplicate or truncate one line."""
        lines = text.splitlines()
        i = int(r.integers(len(lines)))
        op = int(r.integers(4))
        if op == 0:
            found = list(cls.TOKEN.finditer(lines[i]))
            if found:
                m = found[int(r.integers(len(found)))]
                swap = tokens[int(r.integers(len(tokens)))]
                lines[i] = lines[i][: m.start()] + swap + lines[i][m.end():]
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: int(r.integers(len(lines[i]) + 1))]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_mutated_inputs(self, kind, tmp_path, capsys):
        text, parse, suffix, tokens, argv = self.CASES[kind]
        r = np.random.default_rng(sorted(self.CASES).index(kind) + 1)
        parsed = []
        for _ in range(self.MUTATIONS):
            mutated = self.mutate(r, text, tokens)
            if r.random() < 0.5:
                mutated = self.mutate(r, mutated, tokens)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # symmetrized
                    parse(mutated)
            except InputError:
                continue
            parsed.append(mutated)
        assert parsed, "no mutated input parsed"
        for k, mutated in enumerate(parsed[: self.CLI_SAMPLE]):
            path = tmp_path / f"in{k}{suffix}"
            path.write_text(mutated)
            out = tmp_path / f"r{k}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run_cli([argv[0], str(path), *argv[1:], "--out", str(out)])
            capsys.readouterr()
            assert code in (0, 2, 3, 4), mutated
            if out.exists():
                report = out.read_text()
                assert "NaN" not in report and "Infinity" not in report, mutated
