"""Switched-mode PWM simulation of the converter, open and closed loop.

The plant is piecewise linear, so each substep advances the state with the
exact zero-order-hold update of the active mode; no ODE tolerances exist
anywhere. Within a period the comparator is sampled once per substep, and
in open loop the ON/OFF transition lands exactly at d*Ts through one pair
of shortened boundary substeps. In closed loop the output is sensed
through vref/vo_target and the control voltage is compared with a 0..vs
sawtooth: the control window is [0, vs], and saturation on either side of
it freezes the integrator.

Continuous conduction is assumed. Both simulators apply one diode rule
to every OFF substep (and to the OFF completion of a boundary substep):
if the inductor current is exactly zero and the OFF map would not drive
it positive (f12*vc <= 0), the diode stays blocked, the current stays
zero and the capacitor discharges through the load alone; otherwise the
full OFF map is applied and a negative current is clamped to zero. Either
clamp flags the trajectory (dcm_encountered) rather than modeling
discontinuous-conduction dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import _check_duty, averaged_model
from .converter import ConverterParams, default_sensor_gain
from .converter import mode_off_model, mode_on_model
from .lti import MAX_SAMPLES
from .pi_design import PIGains
from .timedomain import zoh

# regulation passes when the final-cycle mean is this close to the target
REGULATION_TOLERANCE_PCT = 2.0


@dataclass(frozen=True)
class SimConfig:
    """Settings for a switched simulation run.

    The divider vref/vo_target and the control window [0, vs] come from the
    ConverterParams. integrator_init preloads the integral state, so that a
    run can start from an operating point, e.g. for input-voltage steps.
    """

    t_end: float
    gains: PIGains | None = None
    steps_per_period: int = 200
    initial_state: tuple[float, float] = (0.0, 0.0)
    integrator_init: float = 0.0

    def __post_init__(self):
        if self.steps_per_period < 20:
            raise ValueError(
                f"steps_per_period must be at least 20, got {self.steps_per_period!r}"
            )
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")


@dataclass(frozen=True)
class SwitchedTrajectory:
    """Per-substep samples of the switched converter state.

    switch_state[k] and duty_cmd[k] describe the substep starting at
    times[k] (the last entry repeats its predecessor); duty_cmd holds each
    period's effective ON fraction.
    """

    times: np.ndarray
    il: np.ndarray
    vc: np.ndarray
    duty_cmd: np.ndarray
    switch_state: np.ndarray
    dcm_encountered: bool = False

    def __post_init__(self):
        for name in ("times", "il", "vc", "duty_cmd", "switch_state"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def _periods(p: ConverterParams, cfg: SimConfig) -> int:
    """Whole switching periods in cfg.t_end, refused beyond MAX_SAMPLES."""
    spp = cfg.steps_per_period
    periods = cfg.t_end * p.fs
    # clamped so that an infinite product never reaches round(); any
    # period count at the clamp is over budget
    n = int(round(periods)) if periods < MAX_SAMPLES else MAX_SAMPLES
    if n * spp + 1 > MAX_SAMPLES:
        raise ValueError(
            f"t_end {cfg.t_end!r} at steps_per_period {spp!r} needs "
            f"{periods * spp + 1:.3g} samples, over the budget of {MAX_SAMPLES}"
        )
    if n < 10:
        raise ValueError(
            f"t_end {cfg.t_end!r} covers fewer than 10 switching periods"
        )
    return n


def simulate_open_loop(
    p: ConverterParams, d: float, cfg: SimConfig
) -> SwitchedTrajectory:
    """Fixed-duty PWM run with the switch transition exactly at d*Ts.

    Full substeps use precomputed mode maps. When d*Ts falls inside a
    substep, that substep is a shortened ON segment followed by its OFF
    completion, so every sample stays on the uniform grid; the substep
    counts as ON. The OFF completion and the full OFF substeps run through
    one loop under the diode rule.
    """
    _check_duty(d)
    spp = cfg.steps_per_period
    n_periods = _periods(p, cfg)
    dt = 1.0 / (p.fs * spp)

    on = mode_on_model(p)
    a = on.a
    b_on = (on.b[0] * p.vg, on.b[1] * p.vg)
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(a, b_on, dt)

    frac = d * spp - math.floor(d * spp)
    n_on = int(math.floor(d * spp))
    if frac < 1e-9:
        frac = 0.0
    elif frac > 1.0 - 1e-9:
        frac = 0.0
        n_on += 1
    has_partial = frac > 0.0
    # one period's OFF maps (m11, m12, m21, m22, idle decay), in order
    off_maps = [(f11, f12, f21, f22, math.exp(a[1][1] * dt))] * (spp - n_on)
    if has_partial:
        ((p11, p12), (p21, p22)), (pg1, pg2) = zoh(a, b_on, frac * dt)
        ((q11, q12), (q21, q22)), _ = zoh(a, (0.0, 0.0), (1.0 - frac) * dt)
        off_maps[0] = (q11, q12, q21, q22, math.exp(a[1][1] * (1.0 - frac) * dt))

    n_samples = n_periods * spp + 1
    out_t = np.arange(n_samples) * dt
    out_il = np.empty(n_samples)
    out_vc = np.empty(n_samples)
    il, vc = float(cfg.initial_state[0]), float(cfg.initial_state[1])
    out_il[0] = il
    out_vc[0] = vc
    dcm = False
    i = 1
    for _ in range(n_periods):
        for _ in range(n_on):
            il, vc = f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2
            out_il[i] = il
            out_vc[i] = vc
            i += 1
        if has_partial:
            il, vc = p11 * il + p12 * vc + pg1, p21 * il + p22 * vc + pg2
        for m11, m12, m21, m22, k_idle in off_maps:
            if il == 0.0:
                nil = m12 * vc
                if nil <= 0.0:
                    vc = k_idle * vc
                    dcm = True
                else:
                    vc = m22 * vc
                    il = nil
            else:
                nil = m11 * il + m12 * vc
                vc = m21 * il + m22 * vc
                if nil < 0.0:
                    nil = 0.0
                    dcm = True
                il = nil
            out_il[i] = il
            out_vc[i] = vc
            i += 1
    duty = np.full(n_samples, float(d))
    switch = np.tile(np.arange(spp) < n_on + has_partial, n_periods)
    out_q = np.append(switch, switch[-1])
    return SwitchedTrajectory(out_t, out_il, out_vc, duty, out_q, dcm)


def simulate_closed_loop(p: ConverterParams, cfg: SimConfig) -> SwitchedTrajectory:
    """PI-controlled PWM run per the standard voltage-mode loop.

    Each substep: sense the output through the divider, form the PI
    control voltage u (trapezoidal integral), compare it with the sawtooth
    at the substep's exact phase, and advance the state one exact substep
    under the selected mode. As every threshold lies in [0, vs) (a normal
    vs, spp below 2e6), u > threshold decides a saturated u too; saturation
    freezes the integrator while the error would deepen it.
    """
    if cfg.gains is None:
        raise ValueError("closed-loop simulation requires cfg.gains")
    kp, ki = cfg.gains.kp, cfg.gains.ki
    H = default_sensor_gain(p)
    spp = cfg.steps_per_period
    n_periods = _periods(p, cfg)
    dt = 1.0 / (p.fs * spp)
    vref, vs = p.vref, p.vs

    on = mode_on_model(p)
    a = on.a
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(a, (on.b[0] * p.vg, on.b[1] * p.vg), dt)
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
    thresholds = [saw_step * k for k in range(spp)]
    # one period of samples is buffered in lists and stored with three slice
    # assignments; whole-run lists would cost ~67 MB each at 2.1M samples
    buf_il = [0.0] * spp
    buf_vc = [0.0] * spp
    buf_q = [False] * spp
    dcm = False
    e = vref - H * vc
    for lo in range(0, n_samples - 1, spp):
        on_count = 0
        for k, thr in enumerate(thresholds):
            u = kp * e + integ
            q = u > thr
            if q:
                on_count += 1
                il, vc = f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2
            elif il == 0.0:
                nil = f12 * vc
                if nil <= 0.0:
                    vc = k_idle * vc
                    dcm = True
                else:
                    vc = f22 * vc
                    il = nil
            else:
                nil = f11 * il + f12 * vc
                vc = f21 * il + f22 * vc
                if nil < 0.0:
                    nil = 0.0
                    dcm = True
                il = nil
            # the sensed error after this substep is the next substep's error
            e_next = vref - H * vc
            s = e + e_next
            if not ((u > vs and s > 0.0) or (u < 0.0 and s < 0.0)):
                integ += half_ki_dt * s
            e = e_next
            buf_il[k] = il
            buf_vc[k] = vc
            buf_q[k] = q
        hi = lo + spp
        out_il[lo + 1 : hi + 1] = buf_il
        out_vc[lo + 1 : hi + 1] = buf_vc
        out_q[lo:hi] = buf_q
        out_duty[lo:hi] = on_count / spp
    out_duty[n_samples - 1] = out_duty[n_samples - 2]
    out_q[n_samples - 1] = out_q[n_samples - 2]
    return SwitchedTrajectory(out_t, out_il, out_vc, out_duty, out_q, dcm)


def _cycle_means(times: np.ndarray, fs: float, *series: np.ndarray) -> tuple:
    """Substeps per period, full-period count, and each series' period means.

    Means are trapezoidal over each full period; a trailing partial period
    is dropped. Each row sum takes the same pairwise order as summing that
    period's 1-D slice, so the means match a per-period loop bit for bit.
    """
    dt = float(times[1] - times[0])
    spp = int(round(1.0 / (fs * dt)))
    n = (len(times) - 1) // spp
    if n < 1:
        raise ValueError("trajectory spans less than one full switching period")
    end = n * spp

    def means(x: np.ndarray) -> np.ndarray:
        rows = x[:end].reshape(n, spp).sum(axis=1)
        return (rows - 0.5 * x[:end:spp] + 0.5 * x[spp : end + 1 : spp]) / spp

    return (spp, n, *map(means, series))


def _last_period_pkpk(x: np.ndarray, spp: int, n: int) -> float:
    """Peak-to-peak of x over the last of n full periods, both ends included."""
    last = x[(n - 1) * spp : n * spp + 1]
    return float(last.max() - last.min())


def cycle_average(
    traj: SwitchedTrajectory, fs: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoidal per-period means of il and vc, and each period's duty;
    a trailing partial period is dropped."""
    spp, n, il, vc = _cycle_means(traj.times, fs, traj.il, traj.vc)
    return il, vc, traj.duty_cmd[: n * spp : spp]


@dataclass(frozen=True)
class AveragingComparison:
    """Cycle-averaged switched run versus the averaged model, same grid."""

    duty: float
    max_il_avg_deviation: float
    max_vc_avg_deviation: float
    final_switched_il_avg: float
    final_switched_vc_avg: float
    final_averaged_il_avg: float
    final_averaged_vc_avg: float
    il_ripple_pkpk: float
    vc_ripple_pkpk: float
    dcm_encountered: bool


def compare_to_averaged(
    p: ConverterParams, d: float, cfg: SimConfig
) -> AveragingComparison:
    """Quantify how well duty-weighted averaging tracks the switched run.

    The averaged model is integrated with the same exact-substep method on
    the same grid and from the same initial state; both trajectories are
    then reduced to per-cycle means and compared, alongside the steady
    ripple amplitudes of the switched states.
    """
    traj = simulate_open_loop(p, d, cfg)
    avg = averaged_model(mode_on_model(p), mode_off_model(p), d)
    dt = 1.0 / (p.fs * cfg.steps_per_period)
    b_scaled = (avg.b[0] * p.vg, avg.b[1] * p.vg)
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(avg.a, b_scaled, dt)

    n_samples = len(traj.times)
    a_il = np.empty(n_samples)
    a_vc = np.empty(n_samples)
    il, vc = float(cfg.initial_state[0]), float(cfg.initial_state[1])
    a_il[0] = il
    a_vc[0] = vc
    for i in range(1, n_samples):
        il, vc = f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2
        a_il[i] = il
        a_vc[i] = vc
    spp, n, sw_il, sw_vc, av_il, av_vc = _cycle_means(
        traj.times, p.fs, traj.il, traj.vc, a_il, a_vc
    )
    return AveragingComparison(
        duty=d,
        max_il_avg_deviation=float(np.abs(sw_il - av_il).max()),
        max_vc_avg_deviation=float(np.abs(sw_vc - av_vc).max()),
        final_switched_il_avg=float(sw_il[-1]),
        final_switched_vc_avg=float(sw_vc[-1]),
        final_averaged_il_avg=float(av_il[-1]),
        final_averaged_vc_avg=float(av_vc[-1]),
        il_ripple_pkpk=_last_period_pkpk(traj.il, spp, n),
        vc_ripple_pkpk=_last_period_pkpk(traj.vc, spp, n),
        dcm_encountered=traj.dcm_encountered,
    )


@dataclass(frozen=True)
class RegulationReport:
    """Final-cycle regulation verdict for a closed-loop run."""

    target_v: float
    final_vc_mean: float
    final_il_mean: float
    vc_ripple_pkpk: float
    duty_final: float
    deviation_pct: float
    tolerance_pct: float
    passed: bool
    duty_saturated: bool
    dcm_encountered: bool


def regulation_report(traj: SwitchedTrajectory, p: ConverterParams) -> RegulationReport:
    """Judge the last full cycle against the output-voltage target.

    The run passes when the final-cycle mean is within
    REGULATION_TOLERANCE_PCT of the target. duty_final averages the
    trailing 10 complete cycles, since the comparator quantizes each
    period's duty to 1/steps_per_period and the integrator dithers between
    adjacent levels at steady state.
    """
    spp, n, il, vc = _cycle_means(traj.times, p.fs, traj.il, traj.vc)
    trailing = traj.duty_cmd[: n * spp : spp][-10:].tolist()
    duty_final = sum(trailing) / len(trailing)
    final_vc_mean = float(vc[-1])
    deviation = abs(final_vc_mean - p.vo_target) / p.vo_target * 100.0
    return RegulationReport(
        target_v=p.vo_target,
        final_vc_mean=final_vc_mean,
        final_il_mean=float(il[-1]),
        vc_ripple_pkpk=_last_period_pkpk(traj.vc, spp, n),
        duty_final=duty_final,
        deviation_pct=deviation,
        tolerance_pct=REGULATION_TOLERANCE_PCT,
        passed=deviation <= REGULATION_TOLERANCE_PCT,
        duty_saturated=duty_final == 0.0 or duty_final == 1.0,
        dcm_encountered=traj.dcm_encountered,
    )


def pwm_equivalent_gains(analysis_gains: PIGains, p: ConverterParams) -> PIGains:
    """Rescale duty-domain PI gains for the physical PWM loop.

    The comparator divides the control voltage by vs and the sensor
    scales the output by H = vref/vo_target, so multiplying the gains by
    vs/H = vs*vo_target/vref makes the physical loop's frequency response
    match the duty-domain design.
    """
    factor = p.vs / default_sensor_gain(p)
    return PIGains(analysis_gains.kp * factor, analysis_gains.ki * factor)
