"""Independent reference computations used to check the package.

Everything here works directly on coefficient arrays with numpy; nothing
imports the package's own analysis paths, so these stay valid oracles for
them.
"""

import cmath
import math

import numpy as np


def sweep_margins(num, den, lo=1e-2, hi=1e7, points_per_decade=10_000):
    """Dense-sweep margin estimate: crossings located on a log grid and
    polished by bisection on the raw complex response."""
    n = int(round(math.log10(hi / lo) * points_per_decade)) + 1
    w = np.logspace(math.log10(lo), math.log10(hi), n)
    resp = np.polyval(num, 1j * w) / np.polyval(den, 1j * w)
    mag = np.abs(resp)
    phase = np.degrees(np.unwrap(np.angle(resp)))

    out = {"gain_crossover": None, "phase_margin_deg": None,
           "phase_crossover": None, "gain_margin_db": math.inf}

    gc = np.nonzero(np.diff(np.sign(mag - 1.0)) != 0)[0]
    if len(gc):
        i = int(gc[0])
        a, b = float(w[i]), float(w[i + 1])

        def res(x):
            return abs(np.polyval(num, 1j * x) / np.polyval(den, 1j * x)) - 1.0

        fa = res(a)
        for _ in range(200):
            m = math.sqrt(a * b)
            fm = res(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
            if b - a <= 1e-12 * b:
                break
        wg = math.sqrt(a * b)
        z = np.polyval(num, 1j * wg) / np.polyval(den, 1j * wg)
        delta = math.degrees(np.angle(z)) - (phase[i] % 360.0)
        delta -= 360.0 * round(delta / 360.0)
        out["gain_crossover"] = wg
        out["phase_margin_deg"] = 180.0 + phase[i] + delta

    pc = np.nonzero(np.diff(np.sign(phase + 180.0)) != 0)[0]
    if len(pc):
        i = int(pc[0])
        out["phase_crossover"] = math.sqrt(float(w[i]) * float(w[i + 1]))
        out["gain_margin_db"] = -20.0 * math.log10(float(mag[i]))
    return out


def zoh_2x2_cayley_hamilton(a, b, dt):
    """Exact ZOH pair of a 2x2 system from the Cayley-Hamilton closed form.

    e^{A t} = e^{m t} [cosh(d t) I + sinh(d t)/d (A - m I)] with m the mean
    eigenvalue and d^2 = m^2 - det(A); Gamma = A^-1 (Phi - I) b, which
    loses about -log10(|A| dt) digits to cancellation, so keep |A| dt >~ 1.
    """
    a = np.asarray(a, dtype=float)
    m = 0.5 * (a[0, 0] + a[1, 1])
    d = cmath.sqrt(m * m - (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    ch = cmath.cosh(d * dt).real
    sh = (cmath.sinh(d * dt) / d).real if d != 0 else dt
    phi = math.exp(m * dt) * (ch * np.eye(2) + sh * (a - m * np.eye(2)))
    gamma = np.linalg.solve(a, (phi - np.eye(2)) @ np.asarray(b, dtype=float))
    return phi, gamma


def second_order_step(t, gain, wn, zeta):
    """Unit-step response of gain * wn^2 / (s^2 + 2 zeta wn s + wn^2)."""
    t = np.asarray(t, dtype=float)
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    phi = math.acos(zeta)
    return gain * (
        1.0
        - np.exp(-zeta * wn * t) / math.sqrt(1.0 - zeta * zeta) * np.sin(wd * t + phi)
    )


def second_order_overshoot_pct(zeta):
    return 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))


def second_order_peak_time(wn, zeta):
    return math.pi / (wn * math.sqrt(1.0 - zeta * zeta))


def refined_peak_time(times, values):
    """Peak instant from samples with parabolic vertex refinement."""
    i = int(np.argmax(values))
    if i == 0 or i == len(values) - 1:
        return float(times[i])
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(times[i])
    shift = 0.5 * (y0 - y2) / denom
    dt = times[1] - times[0]
    return float(times[i] + shift * dt)
