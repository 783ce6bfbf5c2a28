"""Rational transfer functions, frequency response, Bode sweeps, margins.

Coefficients are stored in descending powers of s. No pole-zero
cancellation is ever performed, so coefficient provenance stays auditable
end to end (an uncancelled s/s survives a series product, for example).
"""

from __future__ import annotations

import cmath
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

    Absent crossovers are None; gain margin is +inf when the phase never
    reaches -180 degrees. The loop is declared stable when both margins
    are positive, an absent crossover counting as an infinite margin.
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


def _wrap_delta(delta: float) -> float:
    """Map a phase increment into (-180, 180]."""
    return delta - 360.0 * math.floor((delta + 180.0) / 360.0)


def log_grid(omega_min: float, omega_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced frequencies (rad/s) from omega_min to omega_max inclusive.

    A grid of more than MAX_SAMPLES points is refused before it is built.
    """
    if not (0.0 < omega_min < omega_max and omega_max / omega_min < math.inf):
        raise ValueError("require 0 < omega_min < omega_max, with a finite ratio")
    log_min, log_max = math.log10(omega_min), math.log10(omega_max)
    if log_min == log_max:
        # logspace would repeat one frequency, and a log axis would have no width
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
    return np.logspace(log_min, log_max, n)


def bode_sweep(
    tf: TransferFunction,
    omega_min: float,
    omega_max: float,
    points_per_decade: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spaced frequency response with continuously unwrapped phase.

    Returns the columns (omega in rad/s, magnitude in dB, phase in
    degrees), 24 bytes per frequency. The first point's phase is anchored
    to the analytic low-frequency asymptote (origin poles contribute -90
    degrees each), so loops with integrators unwrap from the correct branch.
    """
    omegas = log_grid(omega_min, omega_max, points_per_decade)
    mags = np.empty(len(omegas))
    phases = np.empty(len(omegas))
    prev_phase = 0.0
    for i, w in enumerate(omegas):
        z = evaluate(tf, float(w))
        ph = phase_deg(z)
        if i == 0:
            ph = _anchor(ph, _low_frequency_phase_asymptote(tf))
        else:
            ph = prev_phase + _wrap_delta(ph - prev_phase)
        prev_phase = ph
        mags[i] = magnitude_db(z)
        phases[i] = ph
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
    not finite."""
    # finite inputs turn non-finite only through a floating-point error
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            resp = np.polyval(coeffs, _MARGIN_S)
            return resp if den_resp is None else resp / den_resp
    except FloatingPointError:
        raise ValueError("loop response is not finite on the margin window") from None


def _refine_gain_crossover(tf: TransferFunction, lo: float, hi: float) -> float:
    f_lo = abs(evaluate(tf, lo)) - 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        f_mid = abs(evaluate(tf, mid)) - 1.0
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-10 * hi:
            break
    return math.sqrt(lo * hi)


def _refine_phase_crossover(
    tf: TransferFunction, lo: float, hi: float, phase_lo: float
) -> float:
    """Bisect for unwrapped phase = -180 inside [lo, hi].

    `phase_lo` is the unwrapped phase at `lo`; phases inside the bracket
    are continued from it, which is safe because adjacent sweep points
    move by far less than a half turn.
    """
    f_lo = phase_lo + 180.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        ph_mid = phase_lo + _wrap_delta(phase_deg(evaluate(tf, mid)) - phase_lo)
        f_mid = ph_mid + 180.0
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, phase_lo, f_lo = mid, ph_mid, f_mid
        if (hi - lo <= 1e-10 * hi and abs(f_mid) <= 1e-7) or hi - lo <= 1e-15 * hi:
            break
    return math.sqrt(lo * hi)


def _find_crossings(values: np.ndarray) -> list[tuple[bool, int]]:
    """Zero crossings of a sampled function, lowest index first.

    Returns (is_exact, index) pairs: an exact zero at a grid point, or a
    sign change over [index, index + 1]. Exact zeros do not additionally
    count as sign changes with their neighbors.
    """
    hits = [(True, int(i)) for i in np.nonzero(values == 0.0)[0]]
    pos = values > 0.0
    flips = np.nonzero(
        pos[:-1] != pos[1:]
    )[0]
    for i in flips:
        if values[i] != 0.0 and values[i + 1] != 0.0:
            hits.append((False, int(i)))
    hits.sort(key=lambda h: h[1])
    return hits


def _unwrapped_phase_at(tf: TransferFunction, resp: np.ndarray, i: int) -> float:
    """Anchored unwrapped phase (degrees) of `resp` at index i.

    np.unwrap is elementwise work plus a sequential running sum, so the
    unwrap of resp[:i+1] ends in element i of the full unwrap, bit for bit.
    """
    angles = np.unwrap(np.angle(resp[: i + 1]))
    first = np.degrees(angles[0])
    shift = _anchor(first, _low_frequency_phase_asymptote(tf)) - first
    return float(np.degrees(angles[i]) + shift)


def _crossover_and_phase_margin(
    tf: TransferFunction, hit: tuple[bool, int], phase_at_hit: float
) -> tuple[float, float]:
    """Gain crossover and phase margin from the lowest window crossing `hit`;
    `phase_at_hit` is the unwrapped phase (deg) at its grid point."""
    exact, i = hit
    if exact:
        crossover = float(MARGIN_OMEGAS[i])
    else:
        lo, hi = float(MARGIN_OMEGAS[i]), float(MARGIN_OMEGAS[i + 1])
        crossover = _refine_gain_crossover(tf, lo, hi)
    ph = phase_at_hit + _wrap_delta(phase_deg(evaluate(tf, crossover)) - phase_at_hit)
    return crossover, 180.0 + ph


def phase_margin(loop_tf: TransferFunction, resp: np.ndarray) -> float | None:
    """Phase margin (deg) of `loop_tf` from its response `resp` on the margin
    window, with no phase-crossover or gain-margin work.

    This equals the `phase_margin_deg` of `stability_margins(loop_tf)`: the
    phase is unwrapped only up to the crossing. Returns None when |L| never
    crosses 1 on the window.
    """
    gain_hits = _find_crossings(np.abs(resp) - 1.0)
    if not gain_hits:
        return None
    hit = gain_hits[0]
    phase_at_hit = _unwrapped_phase_at(loop_tf, resp, hit[1])
    return _crossover_and_phase_margin(loop_tf, hit, phase_at_hit)[1]


def stability_margins(loop_tf: TransferFunction) -> MarginReport:
    """Locate gain/phase crossovers by grid scan plus bisection.

    The scan covers the margin window, MARGIN_OMEGAS (1e-2 to 1e7 rad/s
    with 400 points per decade). With multiple crossings the lowest-frequency
    one of each kind is reported and the totals are recorded in the count
    fields. Raises ValueError when the response leaves the float range there.
    """
    resp = window_response(loop_tf.num, window_response(loop_tf.den, None))
    mags = np.abs(resp)
    phases = np.degrees(np.unwrap(np.angle(resp)))
    phases += _anchor(phases[0], _low_frequency_phase_asymptote(loop_tf)) - phases[0]

    gain_hits = _find_crossings(mags - 1.0)
    phase_hits = _find_crossings(phases + 180.0)

    gain_crossover = None
    pm = None
    if gain_hits:
        hit = gain_hits[0]
        phase_at_hit = float(phases[hit[1]])
        gain_crossover, pm = _crossover_and_phase_margin(loop_tf, hit, phase_at_hit)

    phase_crossover = None
    gain_margin = math.inf
    if phase_hits:
        exact, i = phase_hits[0]
        if exact:
            phase_crossover = float(MARGIN_OMEGAS[i])
        else:
            lo, hi = float(MARGIN_OMEGAS[i]), float(MARGIN_OMEGAS[i + 1])
            phase_crossover = _refine_phase_crossover(loop_tf, lo, hi, float(phases[i]))
        gain_margin = -magnitude_db(evaluate(loop_tf, phase_crossover))

    pm_ok = pm > 0.0 if pm is not None else True
    gm_ok = gain_margin > 0.0
    return MarginReport(
        gain_crossover=gain_crossover,
        phase_crossover=phase_crossover,
        gain_margin_db=gain_margin,
        phase_margin_deg=pm,
        stable_loop=pm_ok and gm_ok,
        gain_crossover_count=len(gain_hits),
        phase_crossover_count=len(phase_hits),
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
    if d0 == 0.0:
        if n0 == 0.0:
            return math.nan
        return math.copysign(math.inf, n0 * _leading_sign_at_zero(tf.den))
    return n0 / d0


def _leading_sign_at_zero(den: tuple[float, ...]) -> float:
    # sign of den(0+) along the real axis, from the lowest nonzero coefficient
    for c in reversed(den):
        if c != 0.0:
            return math.copysign(1.0, c)
    return 1.0


def poles(tf: TransferFunction) -> list[complex]:
    """Denominator roots in closed form (degree 3 at most).

    Roots at the origin are factored out exactly; a cubic is reduced by
    bisecting for one real root and deflating to a quadratic.
    """
    den = list(tf.den)
    roots: list[complex] = []
    while len(den) > 1 and den[-1] == 0.0:
        roots.append(0j)
        den.pop()
    deg = len(den) - 1
    if deg > 3:
        raise ValueError(f"pole extraction supports degree <= 3, got {deg + len(roots)}")
    if deg == 1:
        roots.append(complex(-den[1] / den[0]))
    elif deg == 2:
        roots.extend(_quadratic_roots(den[0], den[1], den[2]))
    elif deg == 3:
        r = _real_cubic_root(den)
        roots.append(complex(r))
        # synthetic division by (s - r)
        b0 = den[0]
        b1 = den[1] + r * b0
        b2 = den[2] + r * b1
        roots.extend(_quadratic_roots(b0, b1, b2))
    return roots


def _quadratic_roots(a: float, b: float, c: float) -> list[complex]:
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # avoid cancellation: compute the large-magnitude root first
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
        if q == 0.0:
            return [0j, 0j]
        return [complex(q / a), complex(c / q)]
    sq = math.sqrt(-disc)
    return [complex(-b / (2 * a), sq / (2 * a)), complex(-b / (2 * a), -sq / (2 * a))]


def _real_cubic_root(den: list[float]) -> float:
    a = den[0]
    coeffs = [x / a for x in den]
    bound = 1.0 + max(abs(x) for x in coeffs[1:])
    lo, hi = -bound, bound

    def p(x: float) -> float:
        return ((x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]

    f_lo = p(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = p(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)
