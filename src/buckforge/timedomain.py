"""Step-response simulation and time-domain performance metrics.

Responses are computed from a controllable-canonical state-space
realization advanced with the exact zero-order-hold update, so a step
response is sampled from the true continuous solution; refining the grid
only changes where it is sampled, not the values.

`step_response` holds its most recent result, one per process, and returns
that same frozen Trajectory to a call whose inputs have the same bits: the
`step` command at the gains `tune` just designed, run in the same process,
reuses the design report's response instead of computing it again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lti import MAX_SAMPLES, TransferFunction

# half-width of the settling band, as a fraction of the final value
SETTLING_BAND = 0.05


class NotSettledError(RuntimeError):
    """Trajectory tail still moving; metrics would be meaningless."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled scalar output record."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if len(times) < 2:
            raise ValueError("a trajectory needs at least 2 samples")
        dt = np.diff(times)
        if dt.min() <= 0.0:
            raise ValueError("times must be strictly increasing")
        # allow the representation jitter of a float grid (~eps * t_end)
        slack = 1e-12 * dt.max() + 8.0 * np.finfo(float).eps * abs(float(times[-1]))
        if dt.max() - dt.min() > slack:
            raise ValueError("sample spacing must be uniform")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class StepMetrics:
    """Classic unit-step figures of merit (times in seconds)."""

    final_value: float
    delay_time: float          # first 50% crossing
    rise_time: float           # 10% -> 90% interval
    settling_time: float       # last exit from the +/-5% band
    max_overshoot_pct: float
    steady_state_error: float  # reference - final value


def zoh(a, b, dt: float) -> tuple[list[list[float]], list[float]]:
    """Exact zero-order-hold pair (Phi, Gamma) for dx/dt = a x + b over dt.

    Van Loan's augmented matrix: the exponential of [[a, b], [0, 0]] * dt
    holds Phi = e^{a dt} in its leading block and Gamma = (integral of
    e^{a s} over [0, dt]) b in its last column. Both come back as plain
    floats so per-step loops stay out of numpy scalar overhead. Raises
    ValueError when the exponential overflows.
    """
    n = len(b)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = b
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(aug * dt)
    if not np.isfinite(E).all():
        raise ValueError(f"the zero-order-hold map over dt={dt!r} s overflows")
    return E[:n, :n].tolist(), E[:n, n].tolist()


# the most recent response as (key, Trajectory), keyed on the bits of its
# inputs: float.hex keeps 0.0 and -0.0 apart, which float equality would not
_held: list = [None]


def step_response(tf: TransferFunction, t_end: float, samples: int) -> Trajectory:
    """Unit-step output on a uniform grid of `samples` points over [0, t_end].

    The per-step transition pair (Phi, Gamma) is computed once from the
    augmented system matrix, making every step exact for the constant
    input. An unstable transfer function is simulated as it is. A call
    with the same input bits as the last computed one returns that call's
    Trajectory again; a refused call leaves it held.
    """
    if not tf.is_proper:
        raise ValueError("step response requires a proper transfer function")
    if len(tf.den) - 1 > 3:
        raise ValueError("step response supports denominator degree <= 3")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if samples < 10:
        raise ValueError(f"need at least 10 samples, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples {samples!r} is over the budget of {MAX_SAMPLES}")
    dt = t_end / (samples - 1)
    if dt < np.finfo(float).tiny:
        raise ValueError(
            f"t_end {t_end!r} over samples {samples!r} spaces the samples {dt!r} s "
            "apart, below the smallest normal float"
        )

    key = (
        tuple(map(float.hex, tf.num)),
        tuple(map(float.hex, tf.den)),
        float(t_end).hex(),
        operator.index(samples),
    )
    held = _held[0]
    if held is None or held[0] != key:
        _held[0] = held = None  # freed before the next response is computed
        held = _held[0] = (key, _exact_step(tf, t_end, samples, dt))
    return held[1]


def _exact_step(tf: TransferFunction, t_end: float, samples: int, dt: float) -> Trajectory:
    """The response `step_response` validated, computed afresh."""
    times = np.linspace(0.0, t_end, samples)
    n = len(tf.den) - 1
    if n == 0:
        gain = tf.num[-1] / tf.den[-1]
        return Trajectory(times, np.full(samples, gain))

    # controllable canonical form of the monic denominator
    a = [c / tf.den[0] for c in tf.den[1:]]
    D, *b = [0.0] * (n + 1 - len(tf.num)) + [c / tf.den[0] for c in tf.num]
    A = [[-x for x in a]] + [[float(j == i - 1) for j in range(n)] for i in range(1, n)]
    phi, gamma = zoh(A, [1.0] + [0.0] * (n - 1), dt)
    # orders 1 and 2 run in the third-order loop; their zero-padded states
    # stay exactly 0 while the response is finite (0 * inf is nan)
    pad = [0.0] * (3 - n)
    phi = [row + pad for row in phi] + [[0.0] * 3 for _ in pad]
    (f11, f12, f13), (f21, f22, f23), (f31, f32, f33) = phi
    g1, g2, g3 = gamma + pad
    c1, c2, c3 = [bi - D * ai for bi, ai in zip(b, a)] + pad

    # a list takes each sample cheaper than an array's item assignment;
    # Trajectory converts it
    y = [0.0] * samples
    x1 = x2 = x3 = 0.0
    for k in range(samples):
        y[k] = c1 * x1 + c2 * x2 + c3 * x3 + D
        x1, x2, x3 = (
            f11 * x1 + f12 * x2 + f13 * x3 + g1,
            f21 * x1 + f22 * x2 + f23 * x3 + g2,
            f31 * x1 + f32 * x2 + f33 * x3 + g3,
        )
    return Trajectory(times, y)


def _cross_time(times: np.ndarray, values: np.ndarray, level: float) -> float:
    """First upward crossing of `level`, linearly interpolated."""
    above = values >= level
    if above[0]:
        return float(times[0])
    idx = np.nonzero(above)[0]
    if len(idx) == 0:
        raise NotSettledError(f"response never reaches level {level!r}")
    i = int(idx[0])
    y0, y1 = values[i - 1], values[i]
    frac = (level - y0) / (y1 - y0) if y1 != y0 else 1.0
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def step_metrics(traj: Trajectory, reference: float) -> StepMetrics:
    """Extract delay, rise, settling, overshoot, and steady-state error.

    The final value is the mean of the trailing 10% of samples; the tail
    must itself have stopped moving. Threshold crossings are located by
    linear interpolation between bracketing samples. Raises ValueError,
    naming the first such sample, when the response is not finite, and when
    the tail's mean or spread overflows, when the distance between two
    samples does, and when the overshoot in percent does.
    """
    times = traj.times
    values = traj.values
    finite = np.isfinite(values)
    if not finite.all():
        t = float(times[finite.argmin()])
        raise ValueError(f"step response leaves the float range at t={t!r} s")
    tail = values[-max(2, len(values) // 10):]
    # a finite tail can still overflow its mean or its spread
    with np.errstate(over="ignore", invalid="ignore"):
        final = float(tail.mean())
        wiggle = float(tail.max() - tail.min())
    if not (math.isfinite(final) and math.isfinite(wiggle)):
        raise ValueError(
            f"step response's trailing mean {final!r} or spread {wiggle!r} "
            "leaves the float range"
        )
    # the crossings and the settling band take differences of samples and of
    # the final value, each at most the response's span
    lo, hi = float(values.min()), float(values.max())
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"step response spans {lo!r} to {hi!r}, a distance beyond the float range"
        )
    # max(1.0, -lo, hi) is max(1.0, max|values|)
    if wiggle > 0.01 * abs(final) + 1e-12 * max(1.0, -lo, hi):
        raise NotSettledError(
            f"trailing samples still vary by {wiggle!r} around {final!r}; "
            "extend the simulation window"
        )

    delay = _cross_time(times, values, 0.5 * final)
    t10 = _cross_time(times, values, 0.1 * final)
    t90 = _cross_time(times, values, 0.9 * final)

    band = SETTLING_BAND * abs(final)
    outside = np.abs(values - final) > band
    if outside.any():
        i = int(np.nonzero(outside)[0][-1])
        if i + 1 >= len(times):
            raise NotSettledError("response still outside the settling band at t_end")
        d0 = abs(values[i] - final) - band
        d1 = abs(values[i + 1] - final) - band
        frac = d0 / (d0 - d1) if d1 != d0 else 1.0
        settling = float(times[i] + frac * (times[i + 1] - times[i]))
    else:
        settling = 0.0

    peak = float(values.max())
    overshoot = max(0.0, peak - final)
    # a peak within the tail's own residual motion is noise, not overshoot
    if overshoot <= wiggle:
        overshoot = 0.0
    overshoot_pct = 100.0 * overshoot / abs(final) if final != 0.0 else 0.0
    if not math.isfinite(overshoot_pct):
        raise ValueError(
            f"step response's overshoot {overshoot!r} over its final value "
            f"{final!r} is beyond the float range as a percentage"
        )

    return StepMetrics(
        final_value=final,
        delay_time=delay,
        rise_time=t90 - t10,
        settling_time=settling,
        max_overshoot_pct=overshoot_pct,
        steady_state_error=reference - final,
    )
