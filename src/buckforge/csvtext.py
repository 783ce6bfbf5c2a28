"""Exact ``"%.17g"`` text for blocks of CSV cells, and exact ``"%.2f"``
text for SVG coordinates, computed with numpy.

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
  error-free transformation. Steps that write into a buffer an earlier
  step made (``e += ...``) round the same operation on the same operands,
  in the same order, so they give the same doubles as fresh arrays would.
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
in NUL-padded slots: the sign, four prefix slots, then the body. Every
other cell (nan, +-inf, subnormals, 0 < |x| < 1e-4, |x| >= 1e16) takes
the per-cell path, ``"%.17g"``, through Python's own formatting.

Where each character goes depends on E alone: the digits shift left by
one slot up to the units digit and the point follows it when E >= 0, and
``0.`` with -E - 1 zeros precedes the digits when E < 0. The trailing
zeros, the last slot kept, depend on the cell. Per-cell masks place these
characters over the slots a block's exponents reach, and no further: with
lo and hi the block's smallest and largest E, every prefix slot before the
first that ``0.`` takes at E = lo is NUL in every cell, and every body
slot past hi + 1 holds its digit unmoved in every cell, so masks there
would change nothing. The masks' cost thus follows the block's range of
E, not how often E changes from cell to cell: a time ramp or an idle
decay between 1e-4 and 100 reaches 3 of the 18 body slots.

The block is one NUL-padded uint8 array of rows. Every row starts as a
copy of one row holding ``0`` in each field and the separators, so a zero
costs nothing, a -0.0 one write, and a bool is added to its ``0``. Each
column gets the field width its cells need in that block, planned from
the min and max of its ``|x|``: every cell lies between them, so
min >= 1e-4 and max < 1e16 make every cell fixed notation and max == 0
makes every cell +-0. numpy's min and max of a column holding a nan are
nan, which fails both tests, so that column and every other one are
planned with per-cell masks. A bool column is 1 byte wide and an all +-0
one 2. A column with per-cell cells is `_FIELD` wide. Any other column
takes only the slots its fixed-notation cells use in that block: from the
sign slot if a cell is negative, else from the first prefix slot its
smallest E uses, through the last body slot of its longest cell, and at
least two slots, for a -0.0. The slots left out hold NUL in every cell of
the column, so they would be dropped anyway. A column whose cells are all
fixed notation is copied in by slice, the others by index, and one
``bytes.translate`` drops the padding.

`format_2f` gives ``"%.2f"`` of each value, the exact binary value
rounded half to even at two decimals, as Python prints it. Where
``|x| * 100 < 2**52``:

- Dekker's two-product with 100, whose Veltkamp halves are 100 and 0,
  gives p = fl(|x| * 100) and e with p + e = |x| * 100 exactly.
- r = rint(p) is exact, and so is p - r (Sterbenz, or r = 0). Below 2**52
  ulp(p) <= 1/2, so a p that is not a half-integer lies at least ulp(p)
  from one, while |e| <= ulp(p)/2: p + e rounds to r. Where p is one,
  p - r = +-0.5, e > 0 moves a tie above r to r + 1 and e < 0 one below r
  to r - 1; e = 0 is a true tie, which rint already rounds to even.
- The digits of D, the rounded |x| * 100 as an int64, are laid out as
  sign, integer part without leading zeros, point and two digits, in
  NUL-padded slots; the sign is there for every x with its sign bit set,
  so -0.0 and a negative that rounds to 0 print "-0.00", as in C.

Every other value (nan, +-inf, |x| * 100 >= 2**52) is formatted by
Python's ``"%.2f"``.
"""

from __future__ import annotations

import numpy as np

# "-2.2250738585072014e-308" is the longest "%.17g" text of a double
_FIELD = 24
# sign, four slots for "0.000", 17 digits and the point
_FIXED_FIELD = 23
_MINUS, _POINT, _ZERO = ord("-"), ord("."), ord("0")

# Veltkamp's split: a = hi + lo with hi and lo of at most 26 significant bits
_SPLITTER = float(2**27 + 1)


def _split(a):
    hi = _SPLITTER * a
    lo = hi - a
    hi -= lo
    return hi, np.subtract(a, hi, out=lo)


# 10**(16 - E) and its halves, indexed by E + 4 for E in [-4, 16]: exact doubles
_SCALE = np.array([float(10**k) for k in range(20, -1, -1)])
_SCALE_HI, _SCALE_LO = _split(_SCALE)

_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
_NO_ROWS = np.empty(0, np.intp)
# slot numbers of the 17 digits, the point, and the four slots before them
_SLOTS = np.arange(18, dtype=np.int8)[:, None]
_PREFIX_SLOTS = np.arange(4, dtype=np.int8)[:, None]


def _scaled(ax, row):
    """(p, e) with p + e = ax * 10**(16 - E) exactly (two-product), where
    row = E + 4."""
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = np.take(_SCALE_HI, row), np.take(_SCALE_LO, row)
    p = ax * np.take(_SCALE, row)
    # e = ((a_hi*b_hi - p) + a_hi*b_lo + a_lo*b_hi) + a_lo*b_lo, in this
    # order, with the factors' buffers reused for the products
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    a_lo *= b_lo
    e += a_lo
    return p, e


def _exact_digits(ax):
    """(D, E) per |x| in [1e-4, 1e16): its 17 digits as an int64, and the
    exponent of the first."""
    row = np.log10(ax)
    np.floor(row, out=row)
    np.clip(row, -4, 15, out=row)
    row = row.astype(np.int8)
    row += 4
    p, e = _scaled(ax, row)
    while True:
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        row[off] += np.where(high[off], 1, -1).astype(np.int8)
        p[off], e[off] = _scaled(ax[off], row[off])
    row -= 4
    d = p.astype(np.int64)
    d += np.rint(e, out=e).astype(np.int64)
    return d, row


def _fixed(x):
    """NUL-padded "%.17g" text of each x, 1e-4 <= |x| < 1e16: one column
    of _FIXED_FIELD bytes per x; and per x its E and the body slot of its
    last character."""
    d, point = _exact_digits(np.abs(x))
    out = np.empty((_FIXED_FIELD, len(x)), np.uint8)
    out[0] = (x < 0) * np.uint8(_MINUS)

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
    # t - 1; a cell with E < 0 has "0." and its zeros before the first digit.
    # Only the slots the block's exponents reach are masked: the prefix slots
    # from its smallest E on, the body slots through its largest E + 1
    low, high = int(point.min()), int(point.max())
    first = min(low + 4, 4)
    out[1 : 1 + first] = 0
    prefix, prefix_slots = out[1 + first : 5], _PREFIX_SLOTS[first:]
    prefix[:] = (prefix_slots >= point + 4) * np.uint8(_ZERO)
    prefix -= (prefix_slots == point + 5) * np.uint8(_ZERO - _POINT)
    shifted = max(high + 1, 0)
    body[:shifted] += (_SLOTS[:shifted] <= point) * (body[1 : shifted + 1] - body[:shifted])
    dotted = slice(max(low + 1, 0), max(high + 2, 0))
    body[dotted] += (_SLOTS[dotted] == point + 1) * (np.uint8(_POINT) - body[dotted])
    body *= _SLOTS <= end
    return out, point, end


def _python_text(values):
    """NUL-padded "%.17g" text of each value, formatted by Python: one row
    of _FIELD bytes per value."""
    text = (f"%-{_FIELD}.17g" * values.size) % tuple(values.tolist())
    padded = text.encode("ascii").translate(_SPACE_TO_NUL)
    return np.frombuffer(padded, np.uint8).reshape(-1, _FIELD)


def _hundredths(ax):
    """|x| * 100 rounded half to even, as int64, for each |x| with
    fl(|x| * 100) < 2**52: from rint(p) and the sign of the two-product's
    error at an exact half."""
    p = ax * 100.0
    hi, lo = _split(ax)
    # e = (hi*100 - p) + lo*100: Dekker's error term with 100's low half 0
    e = np.multiply(hi, 100.0, out=hi)
    e -= p
    lo *= 100.0
    e += lo
    r = np.rint(p)
    tie = np.subtract(p, r, out=p)
    d = r.astype(np.int64)
    d += (tie == 0.5) & (e > 0.0)
    d -= (tie == -0.5) & (e < 0.0)
    return d


def format_2f(values, separators: bytes) -> bytes:
    """``"%.2f"`` of each value, each followed by a separator in turn: value i
    by separators[i % len(separators)]."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        fast = np.abs(x) * 100.0 < 2.0**52
    rows = slice(None) if fast.all() else np.flatnonzero(fast)
    slow_rows = np.flatnonzero(~fast)
    exact = x[rows]
    whole, hundredths = np.divmod(_hundredths(np.abs(exact)), 100)
    digits = len(str(int(whole.max()))) if len(exact) else 1
    slow_text = ["%.2f" % v for v in x[slow_rows].tolist()]
    width = max(digits + 4, max(map(len, slow_text), default=0))

    out = np.zeros((len(x), width + 1), np.uint8)
    out[:, -1] = np.frombuffer(separators * (len(x) // len(separators) + 1), np.uint8)[: len(x)]
    # sign, the integer digits right-aligned, the point and two digits; out[rows]
    # is a view of out where every value is exact, else a copy put back below
    text = out[rows]
    text[:, 0] = np.signbit(exact) * np.uint8(_MINUS)
    for slot in range(digits, 0, -1):
        # a digit left of the units digit is shown only while some remain
        shown = whole > 0 if slot < digits else True
        whole, digit = np.divmod(whole, 10)
        text[:, slot] = (digit + _ZERO) * shown
    text[:, digits + 1] = _POINT
    tens, ones = np.divmod(hundredths, 10)
    text[:, digits + 2] = tens + _ZERO
    text[:, digits + 3] = ones + _ZERO
    if slow_text:
        out[rows] = text
        padded = "".join(t.ljust(width) for t in slow_text).encode("ascii")
        out[slow_rows, :width] = np.frombuffer(padded.translate(_SPACE_TO_NUL), np.uint8).reshape(
            -1, width
        )
    return out.tobytes().translate(None, b"\0")


def format_block(columns) -> tuple[bytes, int]:
    """Rows of ``"%.17g"`` cells, comma separated, each ending in a newline,
    and the count of cells formatted one at a time: the float cells neither
    +-0 nor of |x| in [1e-4, 1e16).

    `columns` are equal-length 1-D float or bool arrays; booleans print as
    1 and 0.
    """
    # per float column: its fixed-notation rows (a slice when that is all of
    # them) and their count, its per-cell rows and its rows of -0.0; a bool
    # column is kept as it is
    plans, fixed_cells, slow_cells = [], [], []
    for col in columns:
        col = np.asarray(col)
        if col.dtype == bool:
            plans.append(col)
            continue
        x = col.astype(np.float64, copy=False)
        ax = np.abs(x)
        # from |x|'s min and max: all fixed notation, or all +-0 (a nan
        # fails both tests, and a column of no rows counts as all zeros)
        smallest, largest = (ax.min(), ax.max()) if len(x) else (0.0, 0.0)
        if smallest >= 1e-4 and largest < 1e16:
            fixed_rows, slow_rows, minus_rows = slice(None), _NO_ROWS, _NO_ROWS
        elif largest == 0:
            fixed_rows, slow_rows, minus_rows = _NO_ROWS, _NO_ROWS, np.flatnonzero(np.signbit(x))
        else:
            is_fixed, zero = (ax >= 1e-4) & (ax < 1e16), ax == 0
            fixed_rows = np.flatnonzero(is_fixed)
            slow_rows = np.flatnonzero(~(is_fixed | zero))
            minus_rows = np.flatnonzero(zero & np.signbit(x))
        fixed = x[fixed_rows]
        if fixed.size:
            fixed_cells.append(fixed)
        if slow_rows.size:
            slow_cells.append(x[slow_rows])
        plans.append((fixed_rows, fixed.size, slow_rows, minus_rows))

    if fixed_cells:
        fixed_text, point, end = _fixed(np.concatenate(fixed_cells))
        starts = np.cumsum([0] + [len(c) for c in fixed_cells[:-1]])
        # per column, the slots its cells use: the sign slot if one is
        # negative, else from the first slot of its smallest E, through the
        # last slot of its longest body; at least two, to cover a -0.0
        first = np.where(np.maximum.reduceat(fixed_text[0], starts) > 0, 0,
                         5 + np.minimum(np.minimum.reduceat(point, starts), 0))
        stop = np.maximum(6 + np.maximum.reduceat(end, starts), first + 2)
        spans = iter(zip(first.tolist(), stop.tolist()))
        fixed_text = fixed_text.T
    if slow_cells:
        slow_text = _python_text(np.concatenate(slow_cells))

    # the row every row starts as: "0" in each field, and the separators;
    # per column, its offset in the row and the slots of its fixed text
    row, layout = bytearray(), []
    for plan in plans:
        at = len(row)
        if not isinstance(plan, tuple):  # a bool column
            row += b"0,"
            layout.append((at, None))
            continue
        _, n_fixed, slow_rows, _ = plan
        span = next(spans) if n_fixed else (0, 2)
        width = _FIELD if slow_rows.size else span[1] - span[0]
        row += b"\0" * width + b","
        row[at + 1] = _ZERO
        layout.append((at, span))
    row[-1] = ord("\n")

    fields = np.empty((len(columns[0]), len(row)), np.uint8)
    fields[:] = np.frombuffer(row, np.uint8)
    n_done = n_slow = 0
    for plan, (at, span) in zip(plans, layout):
        if span is None:
            fields[:, at] += plan
            continue
        fixed_rows, n_fixed, slow_rows, minus_rows = plan
        if n_fixed:
            lo, hi = span
            fields[fixed_rows, at : at + hi - lo] = fixed_text[n_done : n_done + n_fixed, lo:hi]
            n_done += n_fixed
        if slow_rows.size:
            fields[slow_rows, at : at + _FIELD] = slow_text[n_slow : n_slow + slow_rows.size]
            n_slow += slow_rows.size
        if minus_rows.size:
            fields[minus_rows, at] = _MINUS
    return fields.tobytes().translate(None, b"\0"), n_slow
