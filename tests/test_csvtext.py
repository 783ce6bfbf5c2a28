"""The numpy CSV formatter against the per-cell "%.17g" writer it replaced."""

import itertools
import math
import os
import struct
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckforge import cli
from buckforge.csvtext import format_block, per_cell
from oracles import write_csv_reference


def _assert_same(*columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reference.csv")
        write_csv_reference(path, "h", *columns)
        with open(path, "rb") as fh:
            assert fh.readline() == b"h\n"
            text, slow = format_block(columns)
            assert text == fh.read()
    assert slow == sum(int(per_cell(np.asarray(col)).sum()) for col in columns)


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
    assert not per_cell(values).any()
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
    slow = sum(np.count_nonzero(per_cell(col)) for col in (ramp, special, flags))
    assert stats == {"rows": rows, "fallback_cells": slow}


def test_format_block_counts_the_cells_it_formats_one_at_a_time():
    cells = np.array([math.nan, math.inf, 5e-324, 1e-5, 1e16, 0.5, -0.0, 2.0])
    _, slow = format_block([cells, -cells, cells > 1.0])
    assert slow == per_cell(cells).sum() + per_cell(-cells).sum() == 10


def test_per_cell_marks_what_fixed_notation_cannot_take():
    values = np.array([0.0, -0.0, 1e-4, 9.9999999999999991e-5, 1e16, 9999999999999998.0,
                       math.nan, math.inf, 5e-324, -3.5])
    assert per_cell(values).tolist() == [
        False, False, False, True, True, False, True, True, True, False,
    ]


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        cli._write_csv(str(path), "a,b", np.zeros(3), np.zeros(2))
    assert not path.exists()
