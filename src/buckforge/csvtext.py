"""Exact ``"%.17g"`` text for blocks of CSV cells, computed with numpy.

`format_block` returns the bytes that ``"%.17g" % x`` per cell, ``","``
between cells and ``"\\n"`` after each row would give, without a Python
call per cell for the values a simulation writes, and the number of cells
it formatted one at a time.

Finite ``|x|`` in ``[1e-4, 1e16)`` is printed in fixed notation by
``%.17g``. For such x, let E = floor(log10|x|) and v = |x| * 10**(16 - E),
so that 1e16 <= v < 1e17; the 17 significant digits are the integer
D = round-half-even(v), and ``%.17g`` lays them out around the decimal
point at exponent E. D never rounds up to 1e17 here: the double closest
below a power of ten in this range, 0.09999999999999999, gives
v = 1e17 - 8.3. Computed without rounding error:

- k = 16 - E lies in [1, 20], so 10**k is an exact double (up to 10**22).
- Dekker's two-product, with Veltkamp's split of each factor, gives
  p = fl(|x| * 10**k) and e with p + e = |x| * 10**k exactly. Nothing
  overflows or underflows here: the factors lie in [1e-4, 1e20] and the
  product is near 1e16 to 1e17, far inside the normal range.
- Each step is a separate numpy ufunc call, each correctly rounded, so no
  compiler can contract a multiply and an add into an FMA and break the
  error-free transformation.
- p + e >= 1e16 > 2**53 makes p an even integer, so D = p + rint(e):
  numpy's rint rounds half to even, and with p even, a tie of p + e goes
  to the even integer as it should.
- E starts as floor(np.log10|x|), which may be one off next to a power of
  ten. Whether 1e16 <= p + e < 1e17 is decided exactly from p and e, and a
  cell outside that range is scaled again at E -/+ 1.

D's first digit is split off; the other 16 come from four int16 groups
of four digits, one division of all groups per digit position. One
`_fixed` call per block does this for the fixed-notation cells of every
column together, and lays them out as ``%g`` does (sign, integer part or
``0.``, leading zeros, digits, trailing zeros and a bare point dropped)
in NUL-padded fields. Every other cell (nan, +-inf, subnormals,
0 < |x| < 1e-4, |x| >= 1e16) takes the per-cell path, ``"%.17g"``,
through Python's own formatting.

The block is one NUL-padded uint8 array of rows, and each column gets the
field width its cells need in that block: 1 byte for a bool column, 2
when every cell is +-0, `_FIXED_FIELD` when it has fixed-notation cells
and no per-cell ones, `_FIELD` otherwise. Every row starts as a copy of
one row holding ``0`` in each field and the separators, so a zero costs
nothing, a -0.0 one write, and a bool is added to its ``0``. A column
whose cells are all fixed-notation is copied in by slice, the others by
index, and one ``bytes.translate`` drops the padding.
"""

from __future__ import annotations

import numpy as np

# "-2.2250738585072014e-308" is the longest "%.17g" text of a double
_FIELD = 24
# sign, four slots for "0.000", 17 digits and the point
_FIXED_FIELD = 23
_MINUS, _POINT, _ZERO = ord("-"), ord("."), ord("0")

# 10**k for k = 16 - E, E in [-4, 15]: exact doubles
_POW10 = np.array([float(10**k) for k in range(21)])
# Veltkamp's split: a = hi + lo with hi and lo of at most 26 significant bits
_SPLITTER = float(2**27 + 1)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
_NO_ROWS = np.empty(0, np.intp)
# slot numbers of the 17 digits, the point, and the four slots before them
_SLOTS = np.arange(18, dtype=np.int8)[:, None]
_PREFIX_SLOTS = np.arange(4, dtype=np.int8)[:, None]


def _kinds(x):
    """Masks of the fixed-notation cells and of the zeros of float array x."""
    ax = np.abs(x)
    return (ax >= 1e-4) & (ax < 1e16), x == 0


def per_cell(values: np.ndarray) -> np.ndarray:
    """Mask of the cells (float or bool) that `format_block` formats one at
    a time."""
    fixed, zero = _kinds(values)
    return ~(fixed | zero)


def _scaled(ax, exp10):
    """(p, e) with p + e = ax * 10**(16 - exp10) exactly (two-product)."""
    k = 16 - exp10
    p = ax * _POW10[k]
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _exact_digits(ax):
    """(D, E) per |x| in [1e-4, 1e16): its 17 digits as an int64, and the
    exponent of the first."""
    exp10 = np.clip(np.floor(np.log10(ax)), -4, 15).astype(np.int64)
    p, e = _scaled(ax, exp10)
    while True:
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        exp10[off] += np.where(high[off], 1, -1)
        p[off], e[off] = _scaled(ax[off], exp10[off])
    return p.astype(np.int64) + np.rint(e).astype(np.int64), exp10.astype(np.int8)


def _fixed(x):
    """NUL-padded "%.17g" text of each x, 1e-4 <= |x| < 1e16: one column
    of _FIXED_FIELD bytes per x."""
    d, point = _exact_digits(np.abs(x))
    out = np.empty((_FIXED_FIELD, len(x)), np.uint8)
    out[0] = (x < 0) * np.uint8(_MINUS)
    # "0." and the zeros after it, before the first digit of 0 < |x| < 1
    out[1:5] = (_PREFIX_SLOTS >= point + 4) * np.uint8(_ZERO)
    out[1:5] -= (_PREFIX_SLOTS == point + 5) * np.uint8(_ZERO - _POINT)

    # body[0] = 0 and body[1 + j] = digit j of d, most significant first;
    # digits 1 to 16 come from four int16 groups of four digits, divided
    # as one (4, n) array per digit position
    body = out[5:]
    body[0] = 0
    halves = np.empty((2, len(x)), np.int32)
    halves[0] = d // 10**8
    halves[1] = d - halves[0] * np.int64(10**8)
    body[1] = halves[0] // 10**8
    halves[0] -= body[1] * np.int32(10**8)
    groups = np.empty((4, len(x)), np.int16)
    groups[0::2] = halves // 10**4
    groups[1::2] = halves - groups[0::2] * np.int32(10**4)
    digits = body[2:].reshape(4, 4, -1)
    for pos in range(3, 0, -1):
        q = groups // 10
        digits[:, pos] = groups - 10 * q
        groups = q
    digits[:, 0] = groups
    # 1 + the index of the last nonzero digit
    last = (_SLOTS[1:] * (body[1:] != 0)).max(axis=0)
    # the last slot kept: the last nonzero fraction digit, else the units digit
    end = np.where(last > point + 1, last, point)
    body += _ZERO
    # slot t holds digit t while t <= E, the point at t = E + 1, then digit
    # t - 1; a slot before the first digit continues the prefix zeros
    body[:17] += (_SLOTS[:17] <= point) * (body[1:] - body[:17])
    body += (_SLOTS == point + 1) * (np.uint8(_POINT) - body)
    body *= _SLOTS <= end
    return out


def _python_text(values):
    """NUL-padded "%.17g" text of each value, formatted by Python: one row
    of _FIELD bytes per value."""
    text = (f"%-{_FIELD}.17g" * values.size) % tuple(values.tolist())
    padded = text.encode("ascii").translate(_SPACE_TO_NUL)
    return np.frombuffer(padded, np.uint8).reshape(-1, _FIELD)


def format_block(columns) -> tuple[bytes, int]:
    """Rows of ``"%.17g"`` cells, comma separated, each ending in a newline,
    and the count of cells formatted one at a time (the `per_cell` ones).

    `columns` are equal-length 1-D float or bool arrays; booleans print as
    1 and 0.
    """
    # the row every row starts as: "0" in each field, and the separators
    row = bytearray()
    # per float column: its offset in the row, and its fixed-notation rows
    # (a slice when that is all of them), per-cell rows and rows of -0.0
    flags, plans, fixed_cells, slow_cells = [], [], [], []
    for col in columns:
        col = np.asarray(col)
        at = len(row)
        if col.dtype == bool:
            flags.append((at, col))
            row += b"0,"
            continue
        x = col.astype(np.float64, copy=False)
        is_fixed, zero = _kinds(x)
        n_fixed = np.count_nonzero(is_fixed)
        if n_fixed == len(x):
            fixed_rows, slow_rows, minus_rows = slice(None), _NO_ROWS, _NO_ROWS
        else:
            fixed_rows = np.flatnonzero(is_fixed)
            slow_rows = np.flatnonzero(~(is_fixed | zero))
            minus_rows = np.flatnonzero(zero & np.signbit(x))
        plans.append((at, n_fixed, fixed_rows, slow_rows, minus_rows))
        if n_fixed:
            fixed_cells.append(x[fixed_rows])
        if slow_rows.size:
            slow_cells.append(x[slow_rows])
        width = _FIELD if slow_rows.size else _FIXED_FIELD if n_fixed else 2
        row += b"\0" * width + b","
        row[at + 1] = _ZERO
    row[-1] = ord("\n")

    fields = np.empty((len(columns[0]), len(row)), np.uint8)
    fields[:] = np.frombuffer(row, np.uint8)
    for at, col in flags:
        fields[:, at] += col
    if fixed_cells:
        fixed_text = _fixed(np.concatenate(fixed_cells)).T
    if slow_cells:
        slow_text = _python_text(np.concatenate(slow_cells))
    n_done = n_slow = 0
    for at, n_fixed, fixed_rows, slow_rows, minus_rows in plans:
        if n_fixed:
            fields[fixed_rows, at : at + _FIXED_FIELD] = fixed_text[n_done : n_done + n_fixed]
            n_done += n_fixed
        if slow_rows.size:
            fields[slow_rows, at : at + _FIELD] = slow_text[n_slow : n_slow + slow_rows.size]
            n_slow += slow_rows.size
        if minus_rows.size:
            fields[minus_rows, at] = _MINUS
    return fields.tobytes().translate(None, b"\0"), n_slow
