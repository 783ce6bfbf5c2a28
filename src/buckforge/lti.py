"""Rational transfer functions, frequency response, Bode sweeps, margins.

Coefficients are stored in descending powers of s. No pole-zero
cancellation is ever performed, so coefficient provenance stays auditable
end to end (an uncancelled s/s survives a series product, for example).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Most samples one run may hold, Bode grid, step response or PWM trajectory
# (a PWM sample costs 33 bytes across its five arrays, so this is about
# 0.66 GB); larger requests are refused before anything is allocated.
MAX_SAMPLES = 20_000_000


class PoleOnAxisError(ValueError):
    """Evaluation requested exactly on an imaginary-axis pole."""


@dataclass(frozen=True)
class TransferFunction:
    """Proper-or-improper rational function num(s)/den(s).

    Leading zeros of the numerator are trimmed on construction; the
    denominator must be nonempty with a nonzero leading coefficient.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(x) for x in self.num)
        den = tuple(float(x) for x in self.den)
        if not den:
            raise ValueError("denominator must be nonempty")
        if den[0] == 0.0:
            raise ValueError("denominator leading coefficient must be nonzero")
        for coeffs in (num, den):
            for x in coeffs:
                if not math.isfinite(x):
                    raise ValueError(f"coefficients must be finite, got {x!r}")
        while len(num) > 1 and num[0] == 0.0:
            num = num[1:]
        if not num:
            num = (0.0,)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_proper(self) -> bool:
        return len(self.num) <= len(self.den)


@dataclass(frozen=True)
class MarginReport:
    """Stability margins of an open-loop transfer function.

    Absent crossovers are None; gain margin is +inf when L never crosses
    the negative real axis on the margin window. The loop is declared
    stable when both margins are positive, an absent crossover counting as
    an infinite margin.
    """

    gain_crossover: float | None
    phase_crossover: float | None
    gain_margin_db: float
    phase_margin_deg: float | None
    stable_loop: bool
    gain_crossover_count: int
    phase_crossover_count: int


def evaluate(tf: TransferFunction, omega: float) -> complex:
    """Frequency response num(j*omega)/den(j*omega) by Horner evaluation.

    Raises ValueError when num(j*omega), den(j*omega) or their quotient
    overflows, and when a nonzero quotient underflows to zero.
    """
    if omega < 0.0:
        raise ValueError(f"omega must be non-negative, got {omega!r}")
    s = 1j * omega
    d = 0j
    for c in tf.den:
        d = d * s + c
    if d == 0:
        raise PoleOnAxisError(f"pole on the imaginary axis at omega={omega!r} rad/s")
    n = 0j
    for c in tf.num:
        n = n * s + c
    z = n / d if cmath.isfinite(n) and cmath.isfinite(d) else complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"frequency response overflows at omega={omega!r} rad/s")
    if z == 0 and n != 0:
        raise ValueError(f"frequency response underflows at omega={omega!r} rad/s")
    return z


def magnitude_db(z: complex) -> float:
    mag = abs(z)
    if mag == 0.0:
        return -math.inf
    return 20.0 * math.log10(mag)


def phase_deg(z: complex) -> float:
    """Principal-value phase in degrees, (-180, 180]."""
    return math.degrees(cmath.phase(z))


def _origin_order(coeffs: tuple[float, ...]) -> int:
    """Number of roots at s = 0, i.e. trailing zero coefficients."""
    n = 0
    for c in reversed(coeffs):
        if c != 0.0:
            break
        n += 1
    return min(n, len(coeffs) - 1)


def _low_frequency_phase_asymptote(tf: TransferFunction) -> float:
    """Phase limit (degrees) as omega -> 0+, used to anchor unwrapping.

    Each net pole at the origin contributes -90 degrees; a negative DC
    gain of the remaining factors contributes -180 degrees (the principal
    branch approached from positive omega).
    """
    zeros = _origin_order(tf.num)
    poles = _origin_order(tf.den)
    dc_num = tf.num[len(tf.num) - 1 - zeros]
    dc_den = tf.den[len(tf.den) - 1 - poles]
    phase = -90.0 * (poles - zeros)
    if dc_num / dc_den < 0.0:
        phase -= 180.0
    return phase


def _anchor(principal: float, expected: float) -> float:
    """Shift a principal phase by whole turns to sit nearest `expected`."""
    return principal + 360.0 * round((expected - principal) / 360.0)


def log_grid(omega_min: float, omega_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced frequencies (rad/s) from omega_min to omega_max inclusive.

    The exponents are np.linspace's, as in np.logspace, but each point is
    libm's math.pow(10.0, x): numpy's SIMD power rounds some points
    differently depending on the CPU features it dispatches to. A grid of
    more than MAX_SAMPLES points is refused before it is built.
    """
    if not (0.0 < omega_min < omega_max and omega_max / omega_min < math.inf):
        raise ValueError("require 0 < omega_min < omega_max, with a finite ratio")
    log_min, log_max = math.log10(omega_min), math.log10(omega_max)
    if log_min == log_max:
        # the grid would repeat one frequency, and a log axis would have no width
        raise ValueError(
            f"omega_min {omega_min!r} and omega_max {omega_max!r} have the same log10"
        )
    # capped so that decades * points_per_decade cannot overflow a float
    if not (1 <= points_per_decade <= MAX_SAMPLES):
        raise ValueError(f"points_per_decade must be between 1 and {MAX_SAMPLES}")
    decades = math.log10(omega_max / omega_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    if n > MAX_SAMPLES:
        raise ValueError(
            f"omega_min {omega_min!r} to omega_max {omega_max!r} at "
            f"points_per_decade {points_per_decade!r} needs {n} points, over "
            f"the budget of {MAX_SAMPLES}"
        )
    exponents = np.linspace(log_min, log_max, n)
    try:
        return np.fromiter(map(math.pow, itertools.repeat(10.0), exponents), float, n)
    except OverflowError:
        # log10 of a float within a few ulps of the largest one can round up
        raise ValueError(
            f"omega_max {omega_max!r}: 10**log10(omega_max) leaves the float range"
        ) from None


# frequencies bode_sweep evaluates in one numpy pass: its temporaries take
# about 130 bytes a frequency, so a pass holds at most about 270 kB
_BODE_BLOCK = 2048


def _horner(coeffs: tuple[float, ...], w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the polynomial at s = j*w, per w: the
    steps d = d*s + c of `evaluate`, as CPython rounds them, in float64 ufuncs.

    With s = (0.0, w), CPython's product d*s is (dr*0.0 - di*w, dr*w + di*0.0)
    and the sum with c is (re + c, im + 0.0); the zero terms are kept, since
    they set the signs of zero parts. The first step, 0j*s + c, gives
    (0.0 + c, 0.0) at any finite w.
    """
    re = np.full(len(w), 0.0 + coeffs[0])
    im = np.zeros(len(w))
    for c in coeffs[1:]:
        dr_w = re * w
        re *= 0.0
        re -= im * w
        im *= 0.0
        im += dr_w
        re += c
        im += 0.0
    return re, im


def _quotient(nr, ni, dr, di, out: np.ndarray) -> None:
    """n/d into the complex array `out`, by the two branches of CPython's
    _Py_c_quot: divided through by d's real part where |dr| >= |di|, else
    by its imaginary part.

    With (big, small) = (dr, di) or (di, dr) and (p, q) = (nr, ni) or
    (ni, nr) by branch, both branches read ratio = small/big,
    denom = big + small*ratio and real part (p + q*ratio)/denom; the
    imaginary part is (q - p*ratio)/denom by the real part and
    (p*ratio - q)/denom by the imaginary one, which differ in the sign of
    a zero.
    """
    by_re = np.abs(dr) >= np.abs(di)
    big, small = np.where(by_re, dr, di), np.where(by_re, di, dr)
    p, q = np.where(by_re, nr, ni), np.where(by_re, ni, nr)
    ratio = small / big
    denom = small * ratio
    denom += big
    q_ratio = q * ratio
    q_ratio += p
    np.divide(q_ratio, denom, out=out.real)
    p *= ratio
    np.divide(np.where(by_re, q - p, p - q), denom, out=out.imag)


def _response(tf: TransferFunction, w: np.ndarray) -> tuple[np.ndarray, int]:
    """`evaluate` at each frequency of w, and the index of the first at which
    it raises (len(w) if none): where d == 0, n or d is not finite, z is not
    finite, or z == 0 while n != 0."""
    z = np.empty(len(w), complex)
    with np.errstate(all="ignore"):
        nr, ni = _horner(tf.num, w)
        dr, di = _horner(tf.den, w)
        _quotient(nr, ni, dr, di, z)
    finite = np.isfinite(nr) & np.isfinite(ni) & np.isfinite(dr) & np.isfinite(di)
    finite &= np.isfinite(z)
    underflow = (z == 0) & ((nr != 0) | (ni != 0))
    refused = np.flatnonzero(~finite | ((dr == 0) & (di == 0)) | underflow)
    return z, int(refused[0]) if len(refused) else len(w)


def _anchored(principal: np.ndarray, expected: float) -> np.ndarray:
    """`_anchor` along `principal`: each phase moved by whole turns to sit
    nearest the one before it, the first nearest `expected`.

    The turns are predicted as the running sum of the rounded steps of the
    principal phase, from the first point's exact turns, and then checked
    with _anchor's own rounding at every point. By induction each point
    that passes has _anchor's value; from the first that fails, which takes
    a step within rounding of a half turn, _anchor runs one point at a time.
    """
    turns = np.empty_like(principal)
    turns[0] = round((expected - float(principal[0])) / 360.0)
    np.rint((principal[:-1] - principal[1:]) / 360.0, out=turns[1:])
    np.cumsum(turns, out=turns)
    phases = principal + 360.0 * turns
    held = np.rint((phases[:-1] - principal[1:]) / 360.0) == turns[1:]
    if not held.all():
        first = int(held.argmin()) + 1
        p, ph = principal.tolist(), phases.tolist()
        for i in range(first, len(ph)):
            ph[i] = _anchor(p[i], ph[i - 1])
        phases[first:] = ph[first:]
    return phases


def _sweep_block(
    tf: TransferFunction, w: np.ndarray, expected: float, mags: np.ndarray, phases: np.ndarray
) -> float:
    """`bode_sweep` over the frequencies w, the first phase anchored nearest
    `expected`, into the views mags and phases; returns the last phase."""
    z, good = _response(tf, w)
    zs = z[:good].tolist()
    mags[:good] = np.fromiter(map(magnitude_db, zs), float, good)
    if good:
        phases[:good] = _anchored(np.fromiter(map(phase_deg, zs), float, good), expected)
    if good < len(w):
        evaluate(tf, float(w[good]))  # raises, as the per-point loop did
        raise AssertionError(f"evaluate accepted omega={float(w[good])!r}")
    return float(phases[-1])


def bode_sweep(
    tf: TransferFunction,
    omega_min: float,
    omega_max: float,
    points_per_decade: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spaced frequency response with continuously unwrapped phase.

    Returns the columns (omega in rad/s, magnitude in dB, phase in
    degrees), 24 bytes per frequency. Each phase is anchored to the one before
    it, the first to the analytic low-frequency asymptote (origin poles give
    -90 degrees each), so loops with integrators unwrap from the right branch.

    The values and errors are those of `evaluate`, `magnitude_db`,
    `phase_deg` and `_anchor` per point, bit for bit, computed _BODE_BLOCK
    frequencies at a time. The response is `evaluate`'s own sequence of
    IEEE operations as numpy ufuncs (`_horner`, `_quotient`), and each
    basic operation is correctly rounded in both. Magnitude and principal
    phase come from `magnitude_db` and `phase_deg` per point, since numpy's
    SIMD hypot, log10 and arctan2 may round differently from libm's; the
    chain of turns is checked point by point (`_anchored`). Where
    `evaluate` would raise, it is called at the first such frequency, after
    the magnitudes before it, so the same exception and message come out.
    """
    omegas = log_grid(omega_min, omega_max, points_per_decade)
    mags = np.empty(len(omegas))
    phases = np.empty(len(omegas))
    ph = _low_frequency_phase_asymptote(tf)
    for lo in range(0, len(omegas), _BODE_BLOCK):
        block = slice(lo, lo + _BODE_BLOCK)
        ph = _sweep_block(tf, omegas[block], ph, mags[block], phases[block])
    return omegas, mags, phases


# The crossover-search window, fixed at 1e-2 to 1e7 rad/s with 400 points
# per decade: two decades of guard band around the slowest (~3 rad/s) and
# fastest (~1e4 rad/s) dynamics of the loops this package produces.
MARGIN_OMEGA_MIN = 1e-2
MARGIN_OMEGA_MAX = 1e7
MARGIN_POINTS_PER_DECADE = 400
# the one margin grid, built at import; every margin search runs on it
MARGIN_OMEGAS = log_grid(MARGIN_OMEGA_MIN, MARGIN_OMEGA_MAX, MARGIN_POINTS_PER_DECADE)
MARGIN_OMEGAS.flags.writeable = False
_MARGIN_S = 1j * MARGIN_OMEGAS


def window_response(coeffs: tuple, den_resp) -> np.ndarray:
    """`coeffs` on the margin window, over den_resp unless None; ValueError if
    not finite.

    The value is np.polyval(coeffs, 1j * MARGIN_OMEGAS) / den_resp bit for
    bit, by the same Horner steps y = y*s + c run in place in one array.
    np.polyval's first step, 0j*s + coeffs[0], is (0.0 + coeffs[0], +0.0) at
    every finite s, so the array starts there.
    """
    # finite inputs turn non-finite only through a floating-point error
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            resp = np.full(len(_MARGIN_S), 0.0 + coeffs[0], complex)
            for c in coeffs[1:]:
                resp *= _MARGIN_S
                resp += c
            if den_resp is not None:
                resp /= den_resp
            return resp
    except FloatingPointError:
        raise ValueError("loop response is not finite on the margin window") from None


def _bisect_crossing(f, lo: float, hi: float, rel_tol: float) -> float:
    """Geometric bisection for a sign change of f inside [lo, hi] (rad/s),
    until the bracket is at most rel_tol of its upper end wide."""
    f_lo = f(lo)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= rel_tol * hi:
            break
    return math.sqrt(lo * hi)


def _wrap_steps(resp: np.ndarray, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid steps k -> k + 1, for k below `stop`, on which the principal phase
    of `resp` wraps, i.e. L crosses the negative real axis, and their whole
    turns: one for a step below -pi, minus one for a step whose step + pi
    rounds above 2*pi, none for exactly a half turn. Only steps between
    samples whose imaginary parts are not both > 0, nor both < 0, are read,
    found in one sign pass as those whose product of signs is <= 0 (the
    window's responses are finite, so no sign is nan); the others are under
    a half turn."""
    sign = np.sign(resp.imag[: stop + 1])
    k = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
    if not len(k):
        return k, k  # no step to read: no wrap, and no turns
    step = np.angle(resp[k + 1]) - np.angle(resp[k])
    turns = (step < -math.pi).astype(int) - (step + math.pi > 2.0 * math.pi)
    wraps = turns != 0
    return k[wraps], turns[wraps]


def _unwrapped_phase_at(tf: TransferFunction, resp: np.ndarray, i: int) -> float:
    """Principal phase (degrees) of resp[i] moved by the whole turns of the wrap
    steps below i, and by those that put resp[0] nearest the low-frequency
    asymptote."""
    turns = int(_wrap_steps(resp, i)[1].sum())
    first, here = np.degrees(np.angle(resp[[0, i]])).tolist()
    anchor_turns = round((_low_frequency_phase_asymptote(tf) - first) / 360.0)
    return here + 360.0 * (turns + anchor_turns)


def gain_crossing(
    tf: TransferFunction, resp: np.ndarray
) -> tuple[int, float | None, float | None]:
    """Gain crossings of `tf` from its response `resp` on the margin window:
    their number (an exact |L| = 1 at a grid point, or a sign change of
    |L| - 1 between two), and the lowest one's crossover (rad/s) and phase
    margin (deg), both None when |L| never crosses 1 there. The phase takes
    its branch from the wrap steps below the crossing only.

    |L| is compared with 1.0 itself: for a float m, m - 1.0 is 0.0 exactly
    when m == 1.0 and positive exactly when m > 1.0."""
    mag = np.abs(resp)
    zero = mag == 1.0
    pos = mag > 1.0
    hit = zero.copy()
    # a change of side onto an exact |L| = 1 is that point's own hit
    hit[:-1] |= (pos[:-1] != pos[1:]) & ~zero[1:]
    count = int(np.count_nonzero(hit))
    if not count:
        return 0, None, None
    i = int(hit.argmax())
    if zero[i]:
        crossover = float(MARGIN_OMEGAS[i])
    else:
        lo, hi = float(MARGIN_OMEGAS[i]), float(MARGIN_OMEGAS[i + 1])
        crossover = _bisect_crossing(
            lambda w: abs(evaluate(tf, w)) - 1.0, lo, hi, 1e-10
        )
    ph = _anchor(phase_deg(evaluate(tf, crossover)), _unwrapped_phase_at(tf, resp, i))
    return count, crossover, 180.0 + ph


def stability_margins(loop_tf: TransferFunction) -> MarginReport:
    """Locate gain/phase crossovers by grid scan plus bisection.

    The scan covers the margin window, MARGIN_OMEGAS (1e-2 to 1e7 rad/s
    with 400 points per decade). A phase crossover is a crossing of the
    negative real axis by L(j*omega), at any odd multiple of 180 degrees: a
    wrap step of the principal phase, bisected on that phase's sign. With
    multiple crossings the lowest-frequency one of each kind is reported and
    the totals are recorded in the count fields. Raises ValueError when the
    response leaves the float range there.
    """
    resp = window_response(loop_tf.num, window_response(loop_tf.den, None))
    gain_count, gain_crossover, pm = gain_crossing(loop_tf, resp)
    wraps = _wrap_steps(resp, len(resp) - 1)[0]

    phase_crossover = None
    gain_margin = math.inf
    if len(wraps):
        k = int(wraps[0])
        phase_crossover = _bisect_crossing(
            lambda w: phase_deg(evaluate(loop_tf, w)),
            float(MARGIN_OMEGAS[k]), float(MARGIN_OMEGAS[k + 1]), 1e-15,
        )
        gain_margin = -magnitude_db(evaluate(loop_tf, phase_crossover))

    return MarginReport(
        gain_crossover=gain_crossover,
        phase_crossover=phase_crossover,
        gain_margin_db=gain_margin,
        phase_margin_deg=pm,
        stable_loop=(pm is None or pm > 0.0) and gain_margin > 0.0,
        gain_crossover_count=gain_count,
        phase_crossover_count=len(wraps),
    )


def series(g1: TransferFunction, g2: TransferFunction) -> TransferFunction:
    """Cascade product; polynomial convolution, no cancellation."""
    num = np.convolve(g1.num, g2.num)
    den = np.convolve(g1.den, g2.den)
    product = TransferFunction(tuple(num), tuple(den))
    if not product.is_proper:
        raise ValueError("series product is improper")
    return product


def close_unity_loop(g: TransferFunction) -> TransferFunction:
    """Unity-feedback closure G/(1+G) as num_G/(den_G + num_G)."""
    if not g.is_proper:
        raise ValueError("loop transfer function must be proper")
    pad = len(g.den) - len(g.num)
    num_padded = (0.0,) * pad + g.num
    den = tuple(d + n for d, n in zip(g.den, num_padded))
    if all(x == 0.0 for x in den):
        raise ValueError("closed-loop denominator is identically zero")
    return TransferFunction(g.num, den)


def dc_gain(tf: TransferFunction) -> float:
    """Zero-frequency gain from the constant coefficients.

    Returns +/-inf for a pole at the origin and nan for an uncancelled
    0/0 (e.g. a proportional-only PI kept as k*s/s).
    """
    n0, d0 = tf.num[-1], tf.den[-1]
    if d0 != 0.0:
        return n0 / d0
    if n0 == 0.0:
        return math.nan
    # den(0+) has the sign of its lowest nonzero coefficient (den[0] is one)
    lowest = next(c for c in reversed(tf.den) if c != 0.0)
    return math.copysign(math.inf, n0 * lowest)


def poles(tf: TransferFunction) -> list[complex]:
    """Denominator roots in closed form (degree 3 at most).

    The denominator is first divided by its leading coefficient, so any
    nonzero scale of it gives the same roots; where a ratio overflows,
    _wide_roots takes over. Roots at the origin are factored out exactly. A
    cubic's real root is bisected to its own scale, then divided out from
    the end of the cubic whose terms do not cancel, leaving a quadratic.
    """
    den = [c / tf.den[0] for c in tf.den]
    if not all(map(math.isfinite, den)):
        return _wide_roots(tf.den)
    roots: list[complex] = []
    while len(den) > 1 and den[-1] == 0.0:
        roots.append(0j)
        den.pop()
    deg = len(den) - 1
    if deg > 3:
        raise ValueError(f"pole extraction supports degree <= 3, got {deg + len(roots)}")
    if deg == 1:
        roots.append(complex(-den[1]))
    elif deg == 2:
        roots.extend(_quadratic_roots(den[1], den[2]))
    elif deg == 3:
        r = _real_cubic_root(den)
        roots.append(complex(r))
        # synthetic division by (s - r): top-down while r^2 is at most the
        # squared modulus of the quotient's roots, else bottom-up; also
        # bottom-up where top-down cancels in b2: |r*b1| is within 2*|b2|
        # for a complex quotient pair, so beyond 4*|b2| the quotient's roots
        # are real and r is not the smallest of the three
        try:
            top_down = abs(r) ** 3 <= abs(den[3])
        except OverflowError:  # |r|**3 is beyond the float range
            top_down = False
        if top_down:
            b1 = den[1] + r
            b2 = den[2] + r * b1
        if not top_down or abs(r * b1) > 4.0 * abs(b2):
            b2 = -den[3] / r
            b1 = (b2 - den[2]) / r
        roots.extend(_quadratic_roots(b1, b2))
    return roots


# _wide_roots: the root-modulus gap at which it splits a denominator, and
# the bound on each scaled monic ratio (headroom for the cubic's bisection)
_SPLIT_BITS = 60
_RATIO_EXP = 1000


def _wide_roots(den: tuple[float, ...]) -> list[complex]:
    """Roots of a denominator some of whose ratios den[i]/den[0] overflow.

    With e_i the binary exponent of den[i], the roots' log2 moduli are
    about the slopes of the upper hull of the points (i, e_i) (the Newton
    polygon). Where it has a vertex v whose slopes on either side differ by
    more than _SPLIT_BITS, den[:v + 1] holds the larger roots and den[v:]
    the smaller ones, each to within about 2**-_SPLIT_BITS, and the two are
    solved apart. Else the roots are found in t = s/2**k, for the least k
    that brings every ratio below 2**_RATIO_EXP, and scaled back; a root
    beyond the float range comes back as an infinity of its sign.
    """
    exps = [math.frexp(c)[1] for c in den]
    nonzero = [i for i, c in enumerate(den) if c]
    for v in nonzero[1:-1]:
        left = min((exps[v] - exps[u]) / (v - u) for u in nonzero if u < v)
        right = max((exps[w] - exps[v]) / (w - v) for w in nonzero if w > v)
        if left - right > _SPLIT_BITS:
            return poles(TransferFunction((1.0,), den[: v + 1])) + poles(
                TransferFunction((1.0,), den[v:])
            )
    m0 = math.frexp(den[0])[0]
    k = max(-((_RATIO_EXP - exps[i] + exps[0]) // i) for i in nonzero[1:])
    scaled = tuple(
        math.ldexp(math.frexp(c)[0] / m0, exps[i] - exps[0] - k * i)
        for i, c in enumerate(den)
    )
    t = poles(TransferFunction((1.0,), scaled))
    return [complex(_ldexp(z.real, k), _ldexp(z.imag, k)) for z in t]


def _ldexp(x: float, k: int) -> float:
    """x * 2**k, an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _quadratic_roots(b: float, c: float) -> list[complex]:
    """Roots of the monic s^2 + b*s + c."""
    disc = b * b - 4.0 * c
    if not math.isfinite(disc) and math.isfinite(b) and math.isfinite(c):
        # b*b or 4*c overflows: the discriminant over m*m, for the scale
        # m = max(|b|, sqrt|c|), lies in [-4, 5]
        m = max(abs(b), math.sqrt(abs(c)))
        scaled = (b / m) * (b / m) - 4.0 * (c / m) / m
        if scaled >= 0.0:
            q = -(0.5 * b + math.copysign(0.5 * m * math.sqrt(scaled), b))
            return [complex(q), complex(c / q)]
        half = 0.5 * m * math.sqrt(-scaled)
        return [complex(-b / 2, half), complex(-b / 2, -half)]
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # avoid cancellation: compute the large-magnitude root first
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
        if q == 0.0:
            return [0j, 0j]
        return [complex(q), complex(c / q)]
    sq = math.sqrt(-disc)
    return [complex(-b / 2, sq / 2), complex(-b / 2, -sq / 2)]


def _real_cubic_root(den: list[float]) -> float:
    """A real root of the monic cubic den, bisected until the bracket is
    1e-15 of its own magnitude wide or holds no float between its ends."""
    bound = 1.0 + max(abs(x) for x in den[1:])
    lo, hi = -bound, bound

    def p(x: float) -> float:
        return ((x + den[1]) * x + den[2]) * x + den[3]

    # 1 + max|den[i]| may round down to a root's modulus or below it: the
    # bracket widens by doubling, to the largest float, then to infinity
    largest = math.nextafter(math.inf, 0.0)
    while p(lo) > 0.0:
        lo = -math.inf if lo == -largest else max(2.0 * lo, -largest)
    while p(hi) < 0.0:
        hi = math.inf if hi == largest else min(2.0 * hi, largest)
    f_lo = p(lo)
    if f_lo == 0.0:
        return lo
    # enough halvings to go from the largest bound down to a subnormal root
    for _ in range(2100):
        mid = _midpoint(lo, hi)
        if mid == lo or mid == hi:
            break
        f_mid = p(mid)
        if f_mid == 0.0:
            return mid
        # compare signs: near a tiny root the product f_lo * f_mid underflows
        if (f_mid < 0.0) != (f_lo < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15 * max(abs(lo), abs(hi)):
            break
    return _midpoint(lo, hi)


def _midpoint(lo: float, hi: float) -> float:
    """0.5*(lo + hi), halved first where the sum overflows."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi
