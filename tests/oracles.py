"""Independent reference computations used to check the package.

Everything here works directly on coefficient arrays with numpy; nothing
imports the package's own analysis paths, so these stay valid oracles for
them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def sweep_margins(num, den, lo=1e-2, hi=1e7, points_per_decade=10_000):
    """Dense-sweep margin estimate: crossings located on a log grid, the gain
    crossover polished by bisection on the raw complex response and the phase
    crossover taken at its grid step's geometric middle.

    Its phase crossings are those of -180 degrees only, by the phase unwrapped
    from the first sample's principal value; the package counts every
    crossing of the negative real axis (-540 and +180 degrees as well)."""
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


def unwrapped_phase_at_reference(resp, i, asymptote_deg):
    """Element i (degrees) of np.unwrap over the angles of resp[: i + 1],
    shifted by whole turns so that element 0 sits nearest asymptote_deg.

    np.unwrap is elementwise work plus a sequential running sum, so the
    unwrap of the prefix ends in element i of the full unwrap, bit for bit.
    """
    angles = np.unwrap(np.angle(resp[: i + 1]))
    first = np.degrees(angles[0])
    anchored = first + 360.0 * round((asymptote_deg - first) / 360.0)
    return float(np.degrees(angles[i]) + (anchored - first))


def bode_sweep_reference(lti, tf, omega_min, omega_max, points_per_decade):
    """The package's Bode sweep as it was before it evaluated blocks of
    frequencies with numpy: one `evaluate`, `phase_deg`, `_anchor` and
    `magnitude_db` per frequency, in grid order.

    Kept as the reference for ``lti.bode_sweep``: the two must return the same
    columns bit for bit and raise the same errors. ``lti`` is the module under
    test, read by attribute only for its grid and those per-point functions;
    the loop is this copy.
    """
    omegas = lti.log_grid(omega_min, omega_max, points_per_decade)
    mags = np.empty(len(omegas))
    phases = np.empty(len(omegas))
    ph = lti._low_frequency_phase_asymptote(tf)
    for i, w in enumerate(omegas):
        z = lti.evaluate(tf, float(w))
        ph = lti._anchor(lti.phase_deg(z), ph)
        mags[i] = lti.magnitude_db(z)
        phases[i] = ph
    return omegas, mags, phases


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


def closed_loop_reference(p, cfg, zoh):
    """Substep-by-substep closed-loop PWM run, written as plainly as possible.

    This is the package's earlier per-sample loop, kept as the reference for
    ``simulate_closed_loop``: the two must agree bit for bit. ``p`` and
    ``cfg`` are a ConverterParams and a SimConfig (read by attribute only);
    ``zoh(a, b, dt)`` is the exact ZOH map under test elsewhere. Returns
    (times, il, vc, duty, switch_state, dcm_encountered).
    """
    kp, ki = cfg.gains.kp, cfg.gains.ki
    H = p.vref / p.vo_target
    lim_lo, lim_hi = (0.0, p.vs)
    spp = cfg.steps_per_period
    n_periods = int(round(cfg.t_end * p.fs))
    dt = 1.0 / (p.fs * spp)
    vref, vs = p.vref, p.vs

    a = ((-p.r_l / p.l, -1.0 / p.l), (1.0 / p.c, -1.0 / (p.r_load * p.c)))
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(a, (1.0 / p.l * p.vg, 0.0 * p.vg), dt)
    k_idle = math.exp(a[1][1] * dt)

    n_samples = n_periods * spp + 1
    out_t = np.arange(n_samples) * dt
    out_il = np.empty(n_samples)
    out_vc = np.empty(n_samples)
    out_duty = np.empty(n_samples)
    out_q = np.zeros(n_samples, dtype=bool)
    il, vc = float(cfg.initial_state[0]), float(cfg.initial_state[1])
    out_il[0] = il
    out_vc[0] = vc
    integ = float(cfg.integrator_init)
    half_ki_dt = 0.5 * ki * dt
    saw_step = vs / spp
    dcm = False
    i = 1
    for per in range(n_periods):
        on_count = 0
        for k in range(spp):
            e = vref - H * vc
            u = kp * e + integ
            if u > lim_hi:
                u_sat = lim_hi
                sat = 1
            elif u < lim_lo:
                u_sat = lim_lo
                sat = -1
            else:
                u_sat = u
                sat = 0
            q = u_sat > saw_step * k
            if q:
                on_count += 1
                il, vc = f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2
                out_q[i - 1] = True
            else:
                if il == 0.0:
                    nil = f12 * vc
                    if nil <= 0.0:
                        vc = k_idle * vc
                        dcm = True
                    else:
                        vc = f22 * vc
                        il = nil
                else:
                    nil = f11 * il + f12 * vc
                    nvc = f21 * il + f22 * vc
                    if nil < 0.0:
                        nil = 0.0
                        dcm = True
                    il, vc = nil, nvc
            s = e + (vref - H * vc)
            if not ((sat == 1 and s > 0.0) or (sat == -1 and s < 0.0)):
                integ += half_ki_dt * s
            out_il[i] = il
            out_vc[i] = vc
            i += 1
        out_duty[per * spp : (per + 1) * spp] = on_count / spp
    out_duty[n_samples - 1] = out_duty[n_samples - 2]
    if n_samples > 1:
        out_q[n_samples - 1] = out_q[n_samples - 2]
    return out_t, out_il, out_vc, out_duty, out_q, dcm


def open_loop_reference(p, d, cfg, zoh):
    """Substep-by-substep fixed-duty PWM run, written as plainly as possible.

    The reference for ``simulate_open_loop``: the two must agree bit for
    bit. Substep k of a period is ON for k < n_on; when d*spp has a
    fractional part, substep n_on is ON for frac*dt and OFF for the rest
    (and counts as ON); every other substep is OFF. Every OFF segment obeys
    one diode rule: with il == 0 and m12*vc <= 0 the current stays at zero
    and vc decays through the load alone; otherwise the OFF map runs and a
    negative il is clamped to zero. The full OFF map is the state part of
    the full ON map, as in the simulator. Returns (times, il, vc, duty,
    switch_state, dcm_encountered).
    """
    spp = cfg.steps_per_period
    n_periods = int(round(cfg.t_end * p.fs))
    dt = 1.0 / (p.fs * spp)
    a = ((-p.r_l / p.l, -1.0 / p.l), (1.0 / p.c, -1.0 / (p.r_load * p.c)))
    b_on = (1.0 / p.l * p.vg, 0.0 * p.vg)

    n_on = math.floor(d * spp)
    frac = d * spp - n_on
    if frac < 1e-9:
        frac = 0.0
    elif frac > 1.0 - 1e-9:
        frac, n_on = 0.0, n_on + 1
    full_on = zoh(a, b_on, dt)
    full_off, full_decay = full_on[0], math.exp(a[1][1] * dt)
    if frac:
        part_on = zoh(a, b_on, frac * dt)
        part_off = zoh(a, (0.0, 0.0), (1.0 - frac) * dt)[0]
        part_decay = math.exp(a[1][1] * (1.0 - frac) * dt)

    def on(m, il, vc):
        ((m11, m12), (m21, m22)), (g1, g2) = m
        return m11 * il + m12 * vc + g1, m21 * il + m22 * vc + g2

    def off(m, decay, il, vc):
        (m11, m12), (m21, m22) = m
        if il == 0.0 and m12 * vc <= 0.0:
            return il, decay * vc, True
        nil, nvc = m11 * il + m12 * vc, m21 * il + m22 * vc
        return max(nil, 0.0), nvc, nil < 0.0

    n_samples = n_periods * spp + 1
    out_il = np.empty(n_samples)
    out_vc = np.empty(n_samples)
    out_q = np.zeros(n_samples, dtype=bool)
    il, vc = float(cfg.initial_state[0]), float(cfg.initial_state[1])
    out_il[0] = il
    out_vc[0] = vc
    dcm = False
    i = 1
    for _ in range(n_periods):
        for k in range(spp):
            if k < n_on:
                il, vc = on(full_on, il, vc)
                out_q[i - 1] = True
            elif k == n_on and frac:
                il, vc = on(part_on, il, vc)
                il, vc, clamped = off(part_off, part_decay, il, vc)
                dcm = dcm or clamped
                out_q[i - 1] = True
            else:
                il, vc, clamped = off(full_off, full_decay, il, vc)
                dcm = dcm or clamped
            out_il[i] = il
            out_vc[i] = vc
            i += 1
    out_q[n_samples - 1] = out_q[n_samples - 2]
    out_t = np.arange(n_samples) * dt
    return out_t, out_il, out_vc, np.full(n_samples, float(d)), out_q, dcm


def cycle_means_reference(il, vc, duty, spp):
    """Per-period trapezoidal means, one 1-D slice sum per period.

    Returns a list of (il_mean, vc_mean, duty) tuples of plain floats; a
    trailing partial period is dropped.
    """
    n = (len(il) - 1) // spp
    out = []
    for per in range(n):
        lo = per * spp
        hi = lo + spp
        il_mean = (il[lo:hi].sum() - 0.5 * il[lo] + 0.5 * il[hi]) / spp
        vc_mean = (vc[lo:hi].sum() - 0.5 * vc[lo] + 0.5 * vc[hi]) / spp
        out.append((float(il_mean), float(vc_mean), float(duty[lo])))
    return out


# The package's phase-margin path as it was before its margin window took
# fewer numpy passes: np.polyval on the window, sign tests on |L| - 1 and the
# upper/lower wrap scan. The package's `window_response`, `gain_crossing` and
# `stability_margins` must give the same values bit for bit and raise the same
# errors. ``lti`` is the module under test, read by attribute only for its
# grid, `MarginReport` and the per-point functions (`evaluate`,
# `_bisect_crossing`, `_anchor`, `phase_deg`, `magnitude_db`,
# `_low_frequency_phase_asymptote`); the passes over the window are this copy.


def window_response_reference(lti, coeffs, den_resp):
    """`coeffs` on the margin window, over den_resp unless None; ValueError if
    not finite."""
    # finite inputs turn non-finite only through a floating-point error
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            resp = np.polyval(coeffs, 1j * lti.MARGIN_OMEGAS)
            return resp if den_resp is None else resp / den_resp
    except FloatingPointError:
        raise ValueError("loop response is not finite on the margin window") from None


def wrap_steps_reference(resp, stop):
    """Grid steps k -> k + 1, for k below `stop`, on which the principal phase
    of `resp` wraps, i.e. L crosses the negative real axis, and their whole
    turns: one for a step below -pi, minus one for a step whose step + pi
    rounds above 2*pi, none for exactly a half turn. Only steps between
    samples whose imaginary parts are not both > 0, nor both < 0, are read;
    the others are under a half turn."""
    im = resp.imag[: stop + 1]
    upper, lower = im > 0.0, im < 0.0
    k = np.flatnonzero(~(upper[:-1] & upper[1:] | lower[:-1] & lower[1:]))
    step = np.angle(resp[k + 1]) - np.angle(resp[k])
    turns = (step < -math.pi).astype(int) - (step + math.pi > 2.0 * math.pi)
    wraps = turns != 0
    return k[wraps], turns[wraps]


def margin_phase_at_reference(lti, tf, resp, i):
    """Principal phase (degrees) of resp[i] moved by the whole turns of the wrap
    steps below i, and by those that put resp[0] nearest the low-frequency
    asymptote."""
    turns = int(wrap_steps_reference(resp, i)[1].sum())
    first, here = np.degrees(np.angle(resp[[0, i]])).tolist()
    anchor_turns = round((lti._low_frequency_phase_asymptote(tf) - first) / 360.0)
    return here + 360.0 * (turns + anchor_turns)


def gain_crossing_reference(lti, tf, resp):
    """Gain crossings of `tf` from its response `resp` on the margin window:
    their number (an exact |L| = 1 at a grid point, or a sign change of
    |L| - 1 between two), and the lowest one's crossover (rad/s) and phase
    margin (deg), both None when |L| never crosses 1 there. The phase takes
    its branch from the wrap steps below the crossing only."""
    above = np.abs(resp) - 1.0
    zero = above == 0.0
    hit = zero.copy()
    pos = above > 0.0
    # a change of sign onto an exact zero is that zero's own hit
    hit[:-1] |= (pos[:-1] != pos[1:]) & ~zero[1:]
    idx = np.flatnonzero(hit)
    if not len(idx):
        return 0, None, None
    i = int(idx[0])
    if zero[i]:
        crossover = float(lti.MARGIN_OMEGAS[i])
    else:
        lo, hi = float(lti.MARGIN_OMEGAS[i]), float(lti.MARGIN_OMEGAS[i + 1])
        crossover = lti._bisect_crossing(
            lambda w: abs(lti.evaluate(tf, w)) - 1.0, lo, hi, 1e-10
        )
    ph = lti._anchor(
        lti.phase_deg(lti.evaluate(tf, crossover)), margin_phase_at_reference(lti, tf, resp, i)
    )
    return len(idx), crossover, 180.0 + ph


def stability_margins_reference(lti, loop_tf):
    """Locate gain/phase crossovers by grid scan plus bisection.

    The scan covers the margin window, MARGIN_OMEGAS (1e-2 to 1e7 rad/s
    with 400 points per decade). A phase crossover is a crossing of the
    negative real axis by L(j*omega), at any odd multiple of 180 degrees: a
    wrap step of the principal phase, bisected on that phase's sign. With
    multiple crossings the lowest-frequency one of each kind is reported and
    the totals are recorded in the count fields. Raises ValueError when the
    response leaves the float range there.
    """
    resp = window_response_reference(
        lti, loop_tf.num, window_response_reference(lti, loop_tf.den, None)
    )
    gain_count, gain_crossover, pm = gain_crossing_reference(lti, loop_tf, resp)
    wraps = wrap_steps_reference(resp, len(resp) - 1)[0]

    phase_crossover = None
    gain_margin = math.inf
    if len(wraps):
        k = int(wraps[0])
        phase_crossover = lti._bisect_crossing(
            lambda w: lti.phase_deg(lti.evaluate(loop_tf, w)),
            float(lti.MARGIN_OMEGAS[k]), float(lti.MARGIN_OMEGAS[k + 1]), 1e-15,
        )
        gain_margin = -lti.magnitude_db(lti.evaluate(loop_tf, phase_crossover))

    return lti.MarginReport(
        gain_crossover=gain_crossover,
        phase_crossover=phase_crossover,
        gain_margin_db=gain_margin,
        phase_margin_deg=pm,
        stable_loop=(pm is None or pm > 0.0) and gain_margin > 0.0,
        gain_crossover_count=gain_count,
        phase_crossover_count=len(wraps),
    )


def tune_kp_for_pm_reference(pi_design, lti, plant, ki, target_pm, tolerance_deg=0.05):
    """The package's kp search with one full margin report per kp, over the
    whole grid.

    Kept as the reference for ``tune_kp_for_pm``, whose scan stops early and
    reads only the top of the grid: the two must return the same kp and
    margins bit for bit and raise the same errors. ``pi_design`` is the
    module under test, read by attribute only for its loop assembly, gain and
    error types; the margins are `stability_margins_reference`'s over ``lti``,
    and the search itself is this copy. Returns the tuned gains and the full
    margin report of their loop.
    """

    def stability_margins(loop):
        return stability_margins_reference(lti, loop)

    compensated_loop = pi_design.compensated_loop
    PIGains = pi_design.PIGains
    if not (0.0 < target_pm < 180.0):
        raise ValueError(f"target phase margin must be in (0, 180), got {target_pm!r}")
    if not (0.0 < ki < math.inf):
        raise ValueError(f"ki must be positive and finite for PI tuning, got {ki!r}")

    def pm_of(kp: float) -> float:
        report = stability_margins(compensated_loop(plant, PIGains(kp, ki)))
        if report.phase_margin_deg is None:
            # no gain crossover: the loop never reaches unit magnitude
            return math.inf
        return report.phase_margin_deg

    lo, hi = (1e-6, 1e3)
    n = int(round(math.log10(hi / lo) * 10)) + 1
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    f = [pm_of(k) - target_pm for k in grid]

    # the largest kp rule: an exact grid hit wins only above the highest
    # falling edge; below it, the falling edge does
    falling = next((i for i in reversed(range(n - 1)) if f[i] > 0.0 > f[i + 1]), -1)
    hit = next((i for i in reversed(range(n)) if f[i] == 0.0), None)
    if hit is not None and hit > falling:
        kp = grid[hit]
        return PIGains(kp, ki), stability_margins(compensated_loop(plant, PIGains(kp, ki)))

    if falling >= 0:
        bracket = falling
    else:
        # no falling edge: the lowest rising edge
        rising = [i for i in range(n - 1) if f[i] < 0.0 < f[i + 1]]
        bracket = rising[0] if rising else None
    if bracket is None:
        pms = [x + target_pm for x in f if math.isfinite(x)]
        observed = (
            f"observed margins span [{min(pms):.3f}, {max(pms):.3f}] deg"
            if pms
            else "no kp gives a gain crossover (|L| never crosses 1 on the "
            "margin window)"
        )
        raise pi_design.TuningError(
            f"phase margin target {target_pm!r} deg not bracketed for "
            f"kp in [{lo!r}, {hi!r}]; {observed}"
        )

    a, b = grid[bracket], grid[bracket + 1]
    fa = f[bracket]
    for _ in range(100):
        mid = math.sqrt(a * b)
        fm = pm_of(mid) - target_pm
        if abs(fm) <= tolerance_deg:
            a = b = mid
            break
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= 1e-12 * b:
            break
    kp = math.sqrt(a * b)
    return PIGains(kp, ki), stability_margins(compensated_loop(plant, PIGains(kp, ki)))


# The package's SVG figures as they were before one stacked-panel builder
# drew both, with the CLI's decimation of time series: the new functions
# must return these strings character for character.

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 28, 40
_PANEL_W, _PANEL_H = 560, 220


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


class _Panel:
    """One x/y plot area with linear y and linear-or-log x."""

    def __init__(self, x0, y0, xlim, ylim, log_x):
        self.x0, self.y0 = x0, y0
        self.xlim, self.ylim = xlim, ylim
        self.log_x = log_x

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        if self.log_x:
            frac = (math.log10(x) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        else:
            frac = (x - lo) / (hi - lo)
        return self.x0 + frac * _PANEL_W

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + _PANEL_H * (1.0 - (y - lo) / (hi - lo))

    def frame(self, out, xlabel, ylabel):
        out.append(
            f'<rect x="{self.x0}" y="{self.y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        if self.log_x:
            d0 = math.ceil(math.log10(self.xlim[0]))
            d1 = math.floor(math.log10(self.xlim[1]))
            for d in range(d0, d1 + 1):
                x = self.px(10.0 ** d)
                out.append(
                    f'<line x1="{x:.1f}" y1="{self.y0}" x2="{x:.1f}" '
                    f'y2="{self.y0 + _PANEL_H}" stroke="#ddd" stroke-width="1"/>'
                )
                out.append(
                    f'<text x="{x:.1f}" y="{self.y0 + _PANEL_H + 16}" font-size="11" '
                    f'text-anchor="middle">1e{d}</text>'
                )
        else:
            for t in _nice_ticks(*self.xlim):
                x = self.px(t)
                out.append(
                    f'<line x1="{x:.1f}" y1="{self.y0}" x2="{x:.1f}" '
                    f'y2="{self.y0 + _PANEL_H}" stroke="#ddd" stroke-width="1"/>'
                )
                out.append(
                    f'<text x="{x:.1f}" y="{self.y0 + _PANEL_H + 16}" font-size="11" '
                    f'text-anchor="middle">{t:g}</text>'
                )
        for t in _nice_ticks(*self.ylim):
            y = self.py(t)
            out.append(
                f'<line x1="{self.x0}" y1="{y:.1f}" x2="{self.x0 + _PANEL_W}" '
                f'y2="{y:.1f}" stroke="#eee" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{self.x0 - 6}" y="{y + 4:.1f}" font-size="11" '
                f'text-anchor="end">{t:g}</text>'
            )
        out.append(
            f'<text x="{self.x0 + _PANEL_W / 2}" y="{self.y0 + _PANEL_H + 32}" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>'
        )
        out.append(
            f'<text x="{self.x0 - 48}" y="{self.y0 + _PANEL_H / 2}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 {self.x0 - 48} '
            f'{self.y0 + _PANEL_H / 2})">{ylabel}</text>'
        )

    def polyline(self, out, xs, ys, color="#1f4e9c"):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def vline(self, out, x, color, label=None):
        if not (self.xlim[0] <= x <= self.xlim[1]):
            return
        xp = self.px(x)
        out.append(
            f'<line x1="{xp:.1f}" y1="{self.y0}" x2="{xp:.1f}" '
            f'y2="{self.y0 + _PANEL_H}" stroke="{color}" stroke-width="1" '
            'stroke-dasharray="4 3"/>'
        )
        if label:
            out.append(
                f'<text x="{xp + 4:.1f}" y="{self.y0 + 14}" font-size="11" '
                f'fill="{color}">{label}</text>'
            )

    def hline(self, out, y, color):
        if not (self.ylim[0] <= y <= self.ylim[1]):
            return
        yp = self.py(y)
        out.append(
            f'<line x1="{self.x0}" y1="{yp:.1f}" x2="{self.x0 + _PANEL_W}" '
            f'y2="{yp:.1f}" stroke="{color}" stroke-width="1" stroke-dasharray="4 3"/>'
        )


def _pad(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span <= 0.0:
        span = max(abs(hi), 1.0)
    return lo - 0.05 * span, hi + 0.05 * span


def bode_svg_reference(
    points: list[FrequencyPoint], margins: MarginReport | None = None, title: str = ""
) -> str:
    """Two-panel magnitude/phase plot with crossover markers."""
    omegas = [pt.omega for pt in points]
    mags = [pt.magnitude_db for pt in points]
    phases = [pt.phase_deg for pt in points]
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + 2 * _PANEL_H + 60 + _MARGIN_B
    mag_panel = _Panel(
        _MARGIN_L, _MARGIN_T, (omegas[0], omegas[-1]), _pad(min(mags), max(mags)), True
    )
    ph_panel = _Panel(
        _MARGIN_L,
        _MARGIN_T + _PANEL_H + 60,
        (omegas[0], omegas[-1]),
        _pad(min(phases), max(phases)),
        True,
    )
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>',
    ]
    mag_panel.frame(out, "omega (rad/s)", "magnitude (dB)")
    mag_panel.polyline(out, omegas, mags)
    mag_panel.hline(out, 0.0, "#888")
    ph_panel.frame(out, "omega (rad/s)", "phase (deg)")
    ph_panel.polyline(out, omegas, phases, color="#9c2f1f")
    ph_panel.hline(out, -180.0, "#888")
    if margins is not None:
        if margins.gain_crossover is not None:
            pm = margins.phase_margin_deg
            label = f"PM {pm:.1f} deg" if pm is not None else "gain crossover"
            mag_panel.vline(out, margins.gain_crossover, "#1a7a3c")
            ph_panel.vline(out, margins.gain_crossover, "#1a7a3c", label)
        if margins.phase_crossover is not None:
            gm = margins.gain_margin_db
            mag_panel.vline(out, margins.phase_crossover, "#b06e10", f"GM {gm:.2f} dB")
            ph_panel.vline(out, margins.phase_crossover, "#b06e10")
    out.append("</svg>")
    return "\n".join(out)


def timeseries_svg_reference(times, values, xlabel: str, ylabel: str, title: str = "") -> str:
    """Single-panel line plot on linear axes."""
    xs = [float(x) for x in times]
    ys = [float(y) for y in values]
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + _PANEL_H + _MARGIN_B
    panel = _Panel(
        _MARGIN_L, _MARGIN_T, (xs[0], xs[-1]), _pad(min(ys), max(ys)), False
    )
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>',
    ]
    panel.frame(out, xlabel, ylabel)
    panel.polyline(out, xs, ys)
    out.append("</svg>")
    return "\n".join(out)


# most points a time-series plot draws
_SVG_MAX_POINTS = 2000


def decimate_reference(xs, ys):
    step = max(1, len(xs) // _SVG_MAX_POINTS)
    return xs[::step], ys[::step]


# The CLI's CSV writer as it was before csvtext formatted blocks with numpy:
# one "%.17g" per cell, through Python's own float formatting.

_CSV_BLOCK_ROWS = 4096


def fallback_count(rows):
    """Cells neither zero nor in 1e-4 <= |x| < 1e16, which "%.17g" does not
    print in fixed notation: the ones a CSV writer formats one at a time.
    Rows hold numbers, bools or their text."""
    return sum(
        not (x == 0.0 or 1e-4 <= abs(x) < 1e16) for row in rows for x in map(float, row)
    )


def write_csv_reference(path: str, header: str, *columns) -> None:
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = zip(*(col[lo : lo + _CSV_BLOCK_ROWS].tolist() for col in columns))
            fh.write("".join(map(row.__mod__, block)))
