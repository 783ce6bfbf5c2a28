"""The numpy CSV formatter against the per-cell "%.17g" writer it replaced."""

import itertools
import math
import os
import re
import struct
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckforge import cli, csvtext
from buckforge.csvtext import format_block
from oracles import fallback_count, format_2f_takes, write_csv_reference


def _assert_same(*columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reference.csv")
        write_csv_reference(path, "h", *columns)
        with open(path, "rb") as fh:
            assert fh.readline() == b"h\n"
            text, slow = format_block(columns)
            assert text == fh.read()
    assert slow == fallback_count(zip(*columns))


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# st.floats() brings nan, +-inf, +-0.0, subnormals and extremes; random bit
# patterns cover every exponent evenly; the bounded draws fill the range
# that format_block computes in numpy
_CELLS = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)


@pytest.mark.oracle_property
@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[_CELLS] * width), min_size=1, max_size=40)
))
def test_format_block_matches_per_cell_format(rows):
    columns = [np.array(col) for col in zip(*rows)]
    _assert_same(*columns)


def test_powers_of_ten_and_their_neighbours():
    values = []
    for n in range(-5, 18):
        power = float(Fraction(10) ** n)
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
        # seventeen nines: parses to the power itself or to the double below
        values.append(float(f"9.9999999999999999e{n - 1}"))
    values.append(9.9999999999999995e15)
    values = np.array(values)
    _assert_same(values, -values)


def _half_way_ties() -> list[float]:
    """Doubles x with x * 10**(16 - E) an integer plus 1/2, E = floor(log10 x).

    x = m / 2**(k + 1) with m odd gives x * 10**k = m * 5**k / 2.
    """
    rng = np.random.default_rng(11)
    ties = []
    for k in range(1, 21):
        lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
        hi = min(math.floor(Fraction(10) ** (17 - k) * 2 ** (k + 1)), 2**53)
        for m in rng.integers(lo, hi, 25):
            ties.append(math.ldexp(float(int(m) | 1), -(k + 1)))
    return ties


def test_half_way_ties_round_to_even():
    ties = _half_way_ties()
    halves = 0
    for x in ties:
        exp10 = math.floor(math.log10(x))
        scaled = Fraction(x) * Fraction(10) ** (16 - exp10)
        halves += 10**16 <= scaled < 10**17 and scaled.denominator == 2
    assert halves == len(ties) == 500
    ties = np.array(ties)
    _assert_same(ties, -ties)


def _digit_groups(x: float) -> list[str]:
    """Digits 1 to 16 of the 17 that "%.17g" prints for x, in groups of four."""
    text = "%.16e" % abs(x)
    digits = text[0] + text[2:18]
    return [digits[1 + 4 * g : 5 + 4 * g] for g in range(4)]


def test_digit_groups_of_zeros_nines_and_single_digits():
    patterns = ["0000", "9999"] + [
        "".join(d if i == pos else "0" for i in range(4)) for pos in range(4) for d in "19"
    ]
    values = []
    fills = ("0000", "9999")
    for group, pattern, fill, lead in itertools.product(range(4), patterns, fills, "19"):
        digits = [fill] * 4
        digits[group] = pattern
        values += [float(f"{lead}.{''.join(digits)}e{e}") for e in (-4, -1, 0, 7, 15)]
    # the nearest double can print other last digits: check what was covered
    seen = [set() for _ in range(4)]
    for x in values:
        for group, digits in enumerate(_digit_groups(x)):
            seen[group].add(digits)
    assert all(set(patterns) <= covered for covered in seen)
    values = np.array(values)
    _assert_same(values, -values)


def test_every_fixed_notation_exponent():
    rng = np.random.default_rng(5)
    mantissas = np.concatenate([[1.0, 9.999999999999998], rng.uniform(1.0, 10.0, 20)])
    values = np.concatenate([mantissas * 10.0**e for e in range(-4, 16)])
    assert {int(("%.16e" % x)[-3:]) for x in values} == set(range(-4, 16))
    assert fallback_count([values]) == 0
    _assert_same(values, -values)


def test_block_shaped_like_a_pwm_trace():
    # one full block: a time ramp, three columns idling at zero in long runs,
    # and -0.0 where an idle current or duty is negated
    rng = np.random.default_rng(8)
    rows = cli._CSV_BLOCK_ROWS
    time_s = np.arange(rows) / 3e6
    idle = (np.arange(rows) // 300) % 3 != 0
    il = np.where(idle, 0.0, rng.uniform(0.0, 4.0, rows))
    il[rng.choice(rows, 40)] = -0.0
    vc = 18.0 + rng.standard_normal(rows) * 1e-3
    duty = np.where(idle, 0.0, rng.choice([0.0, 0.02, 0.98, 1.0], rows))
    duty[rng.choice(rows, 40)] = -0.0
    switch_state = (duty > 0.5).astype(np.float64)
    assert (il == 0).mean() > 0.5 and (duty == 0).mean() > 0.5
    _assert_same(time_s, il, vc, duty, switch_state)


def test_bool_columns():
    flags = np.arange(7) % 3 == 0
    _assert_same(flags, np.linspace(-1.0, 1.0, 7), ~flags)


@pytest.mark.parametrize("rows", [1, 2 * cli._CSV_BLOCK_ROWS - 1, 2 * cli._CSV_BLOCK_ROWS,
                                  2 * cli._CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_reference_at_block_edges(tmp_path, rows):
    ramp = np.arange(rows) / 7.0 - 3.0
    special = np.resize([-0.0, math.inf, math.nan, 1e-5, 3e16, 5e-324, 0.1], rows)
    flags = np.arange(rows) % 2 == 0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    stats = cli._write_csv(str(got), "a,b,c", ramp, special, flags)
    write_csv_reference(str(want), "a,b,c", ramp, special, flags)
    assert got.read_bytes() == want.read_bytes()
    assert stats == {"rows": rows, "fallback_cells": fallback_count(zip(ramp, special, flags))}


def test_format_block_counts_the_cells_it_formats_one_at_a_time():
    cells = np.array([math.nan, math.inf, 5e-324, 1e-5, 1e16, 0.5, -0.0, 2.0])
    _, slow = format_block([cells, -cells, cells > 1.0])
    assert slow == fallback_count([cells, -cells]) == 10


def test_per_cell_marks_what_fixed_notation_cannot_take():
    values = np.array([0.0, -0.0, 1e-4, 9.9999999999999991e-5, 1e16, 9999999999999998.0,
                       math.nan, math.inf, 5e-324, -3.5])
    marked = [format_block([np.array([x])])[1] for x in values]
    assert marked == [0, 0, 0, 1, 1, 0, 1, 1, 1, 0]
    assert format_block([values, -values])[1] == 2 * sum(marked)


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        cli._write_csv(str(path), "a,b", np.zeros(3), np.zeros(2))
    assert not path.exists()


# cells of one kind each: a column drawn from one of these gets the field
# width of its kind, and "mixed" gets the widest
_ZERO_CELLS = st.sampled_from([0.0, -0.0])
_FIXED_CELLS = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True), st.floats(-1e16, -1e-4, exclude_min=True),
)
_PER_CELL_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
    st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True).filter(bool),
    st.floats(min_value=1e16),
    st.floats(max_value=-1e16),
)
_COLUMN_KINDS = {
    "zeros": _ZERO_CELLS,
    "fixed": _FIXED_CELLS,
    # fixed cells sorted up or down, crossing powers of ten as a time ramp or
    # an idle decay does: few runs of one exponent, each many cells long
    "monotone": _FIXED_CELLS,
    "bool": st.booleans(),
    "per_cell": _PER_CELL_CELLS,
    "mixed": st.one_of(_ZERO_CELLS, _FIXED_CELLS, _PER_CELL_CELLS),
}


@st.composite
def _columns_of_one_kind(draw):
    rows = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        cells = draw(st.lists(_COLUMN_KINDS[kind], min_size=rows, max_size=rows))
        if kind == "monotone":
            cells.sort(reverse=draw(st.booleans()))
        columns.append(np.array(cells))
    return columns


@pytest.mark.oracle_property
@settings(deadline=None)
@given(_columns_of_one_kind())
def test_format_block_matches_per_cell_format_column_by_column(columns):
    _assert_same(*columns)


def test_write_csv_columns_that_change_kind_at_a_block_edge(tmp_path):
    # zeros in the first block and values in the second, and the reverse
    rows = 2 * cli._CSV_BLOCK_ROWS
    first = np.arange(rows) < cli._CSV_BLOCK_ROWS
    ramp = np.arange(rows) / 7.0 + 1.0
    later = np.where(first, -0.0, ramp)
    earlier = np.where(first, ramp, 0.0)
    # per-cell text first, then fixed notation only
    tiny_then_fixed = np.where(first, 1e-9 * ramp, ramp)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    columns = (later, earlier, tiny_then_fixed, first)
    stats = cli._write_csv(str(got), "a,b,c,d", *columns)
    write_csv_reference(str(want), "a,b,c,d", *columns)
    assert got.read_bytes() == want.read_bytes()
    assert stats == {"rows": rows, "fallback_cells": cli._CSV_BLOCK_ROWS}


def test_format_block_formats_each_kind_of_cell_in_one_call(monkeypatch):
    calls = {"_fixed": [], "_python_text": []}
    for name, seen in calls.items():
        real = getattr(csvtext, name)
        monkeypatch.setattr(
            csvtext, name, lambda x, real=real, seen=seen: seen.append(x.copy()) or real(x)
        )
    flags = np.arange(6) % 2 == 0
    zeros = np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0])
    fixed = np.linspace(1.0, 2.0, 6)
    mixed = np.array([0.5, math.inf, -0.0, 3e-7, 2.0, 0.0])
    _assert_same(flags, zeros, fixed, mixed)
    # one call each per block, with the cells of every column that need it
    assert [list(x) for x in calls["_fixed"]] == [list(fixed) + [0.5, 2.0]]
    assert [list(x) for x in calls["_python_text"]] == [[math.inf, 3e-7]]
    # bool and all-zero columns reach neither
    for calls_of_one in calls.values():
        calls_of_one.clear()
    _assert_same(flags, zeros, ~flags)
    assert calls == {"_fixed": [], "_python_text": []}


def test_write_csv_of_the_500_v_input_step_matches_reference(
    nominal_config_path, tmp_path, monkeypatch,
):
    # the benchmark's input_step_500 run: 150001 rows of sim.csv, where the
    # current and duty columns are zero in most blocks
    written = {}
    write_csv = cli._write_csv

    def capture(path, header, *columns):
        written[os.path.basename(path)] = header, columns
        return write_csv(path, header, *columns)

    monkeypatch.setattr(cli, "_write_csv", capture)
    assert cli.main([
        "simulate", "--config", nominal_config_path, "--vg", "500",
        "--from-operating-point", "--steps-per-period", "50", "--t-end", "0.05",
        "--out-dir", str(tmp_path),
    ]) == 4
    header, columns = written["sim.csv"]
    assert len(columns[0]) == 150001
    write_csv_reference(str(tmp_path / "want.csv"), header, *columns)
    assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _exponent_runs(values) -> int:
    """Runs of one decimal exponent E in a sequence of fixed-notation cells."""
    exponents = [int(("%.16e" % x)[-3:]) for x in values]
    return 1 + sum(a != b for a, b in zip(exponents, exponents[1:]))


@pytest.mark.parametrize("low,high", [
    (-4, 15), (-4, -4), (-4, -2), (-2, -1), (-1, -1), (-1, 0), (0, 0), (1, 1), (2, 9),
    (15, 15),
])
def test_block_whose_exponents_span_low_to_high(low, high):
    # the layout masks only the slots E from low to high reach: cells of
    # every E between, in runs of uneven length and mixed signs, next to a
    # column of zeros, which adds no fixed-notation cell
    rng = np.random.default_rng(high - low)
    exponents = [low + (k * 7) % (high - low + 1) for k in range(40)]
    lengths = rng.integers(1, 60, len(exponents))
    cells = np.concatenate([
        rng.uniform(1.0, 10.0, n) * 10.0**e * rng.choice([-1.0, 1.0], n)
        for e, n in zip(exponents, lengths)
    ])
    cells = cells[(np.abs(cells) >= 1e-4) & (np.abs(cells) < 1e16)]
    _assert_same(cells, np.zeros_like(cells))
    _assert_same(np.sort(cells), cells[::-1])


def test_block_whose_every_cell_starts_a_run():
    # 4096 runs of one cell each: the same slots are masked as for one run
    cells = np.resize([0.5, 5.0], cli._CSV_BLOCK_ROWS)
    assert _exponent_runs(cells) == cli._CSV_BLOCK_ROWS
    _assert_same(cells, -cells[::-1])


def test_all_fixed_column_at_both_ends_of_the_range():
    # the smallest |x| is exactly 1e-4 and the largest the double below 1e16:
    # the column is planned from its min and max alone, as all fixed
    top = math.nextafter(1e16, 0.0)
    values = np.array([1e-4, -top, 0.5, top, -1e-4, 12.25])
    assert fallback_count([values]) == 0
    _assert_same(values, values[::-1])


@pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf, 1e16, 9.99e-5, -9.99e-5])
def test_fixed_column_with_one_cell_outside_fixed_notation(odd):
    values = np.linspace(1.0, 3.0, 9)
    for at in (0, 4, 8):
        column = values.copy()
        column[at] = odd
        assert fallback_count([column]) == 1
        _assert_same(column, values)


def test_all_zero_column_with_scattered_negative_zeros():
    rng = np.random.default_rng(3)
    zeros = np.zeros(cli._CSV_BLOCK_ROWS)
    zeros[rng.choice(zeros.size, 50, replace=False)] = -0.0
    assert np.signbit(zeros).sum() == 50
    _assert_same(zeros, np.linspace(1.0, 2.0, zeros.size), -zeros)


def test_columns_of_no_rows():
    empty = np.empty(0)
    assert format_block([empty]) == (b"", 0)
    assert format_block([empty, np.empty(0, bool), empty]) == (b"", 0)


def test_write_csv_fields_narrowed_per_block(tmp_path):
    # each block's field spans only the slots its cells use: here the sign
    # slot in one block only, the "0." prefix only where a cell at a block
    # edge has |x| < 1, and a bool column between narrowed fields
    rows = 3 * cli._CSV_BLOCK_ROWS
    rng = np.random.default_rng(21)
    block = np.arange(rows) // cli._CSV_BLOCK_ROWS
    ramp = 1.0 + np.arange(rows) / 64.0
    negative_in_one_block = np.where(block == 1, -ramp, ramp)
    small_at_edges = 2.0 + rng.uniform(0.0, 5.0, rows)
    small_at_edges[cli._CSV_BLOCK_ROWS - 1] = 0.25
    small_at_edges[2 * cli._CSV_BLOCK_ROWS] = 0.0625
    flags = rng.uniform(size=rows) < 0.5
    columns = (negative_in_one_block, flags, small_at_edges, ~flags, np.full(rows, 4.0))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    stats = cli._write_csv(str(got), "a,b,c,d,e", *columns)
    write_csv_reference(str(want), "a,b,c,d,e", *columns)
    assert got.read_bytes() == want.read_bytes()
    assert stats == {"rows": rows, "fallback_cells": 0}


# format_2f takes values below this, and refuses it and every value above
_LIMIT_2F = 2.0**52 / 100


def _refused(v: float) -> str:
    """The start of format_2f's refusal of a block whose first value outside
    its domain is v, as a regular expression."""
    return re.escape(f"format_2f takes finite values below 2**52/100 with no sign bit: {v!r}")


def _python_2f(values, separators: bytes) -> bytes:
    seps = separators.decode("ascii")
    return "".join(
        "%.2f" % v + seps[i % len(seps)] for i, v in enumerate(values)
    ).encode("ascii")


def _stepped(x: float, steps: int) -> float:
    """x moved by `steps` floats, up for positive steps, down for negative."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# exact ties (odd multiples of 1/8, and k * 0.005 where the product is
# exact), values next to them, values that round to "0.00", -0.0, and both
# sides of the 2**52/100 limit; negatives, nan and +-inf are refused, and
# their magnitudes are formatted where they lie in the domain
_2F_CELLS = st.tuples(
    st.one_of(
        st.floats(),
        st.integers(-8 * 10**6, 8 * 10**6).map(lambda k: k / 8),
        st.integers(-10**7, 10**7).map(lambda k: k * 0.005),
        st.floats(-0.005, 0.005),
        st.sampled_from([-0.0, _LIMIT_2F, -_LIMIT_2F]),
    ),
    st.integers(-2, 2),
).map(lambda cell: _stepped(*cell))


def _assert_format_2f(values, separators):
    """format_2f of every magnitude in its domain is Python's text, and
    values holding one outside it are refused, naming the first."""
    inside = [abs(v) for v in values if format_2f_takes(abs(v))]
    got = csvtext.format_2f(np.array(inside, dtype=np.float64), separators)
    assert got == _python_2f(inside, separators)
    outside = [v for v in values if not format_2f_takes(v)]
    if outside:
        with pytest.raises(ValueError, match=_refused(outside[0])):
            csvtext.format_2f(np.array(values, dtype=np.float64), separators)


@pytest.mark.oracle_property
@settings(deadline=None)
@given(st.lists(_2F_CELLS, max_size=60), st.sampled_from([b",", b", ", b"\n"]))
def test_format_2f_matches_python_text(values, separators):
    _assert_format_2f(values, separators)


def test_format_2f_at_ties_their_neighbours_and_the_limit():
    k = np.arange(-4000, 4001)
    ties = np.concatenate([k / 8, k * 0.005, -np.arange(0, 501) * 1e-5])
    near = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    limit = [_stepped(sign * _LIMIT_2F, step) for sign in (1.0, -1.0) for step in range(-3, 4)]
    values = np.concatenate([near, limit, [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308]])
    _assert_format_2f(values.tolist(), b", ")
    # each kind of value outside the domain is refused after one inside it:
    # -0.0, negatives, nan, +-inf, and the limit and the values above it
    for v in [-0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf, 1e308, *limit[3:7]]:
        with pytest.raises(ValueError, match=_refused(v)):
            csvtext.format_2f(np.array([1.0, v]), b",")
