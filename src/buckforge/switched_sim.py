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

The closed-loop kernel steps whole periods, one substep at a time in
Python. It buffers a period's il and vc in two lists and stores each with
one struct.pack_into; the switch record starts all OFF, and only an ON
substep writes its entry. Idle runs, in which each substep only decays
vc, are stepped in numpy passes instead, and so is the controller over a
conducting OFF run to a period's end (see simulate_closed_loop).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .averaging import _check_duty, full_duty_output
from .converter import ConverterParams, default_sensor_gain, mode_on_model
from .lti import MAX_SAMPLES
from .pi_design import PIGains
from .timedomain import zoh

# regulation passes when the final-cycle mean is this close to the target
REGULATION_TOLERANCE_PCT = 2.0
# the trailing whole periods whose duties regulation_report's duty_final averages
JUDGED_PERIODS = 10
# idle substeps per numpy pass of the closed-loop kernel; bounds its temporaries
IDLE_CHUNK = 4096
# the shortest OFF run to a period's end that goes to the controller's numpy
# pass: about its break-even against the per-substep loop
OFF_RUN_MIN = 96


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
        _check_steps_per_period(self.steps_per_period, 20)
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        state = self.initial_state
        if len(state) != 2 or not all(math.isfinite(x) for x in state):
            raise ValueError(f"initial_state must be finite (il, vc), got {state!r}")
        if not math.isfinite(self.integrator_init):
            raise ValueError(
                f"integrator_init must be finite, got {self.integrator_init!r}"
            )


def _check_steps_per_period(spp, least: int) -> None:
    # an integer is a value that operator.index accepts, bool aside
    if isinstance(spp, bool) or not hasattr(type(spp), "__index__") or spp < least:
        raise ValueError(
            f"steps_per_period must be an integer of at least {least}, got {spp!r}"
        )


@dataclass(frozen=True)
class SwitchedTrajectory:
    """Per-substep samples of the switched converter state.

    Period j spans samples j*steps_per_period through
    (j + 1)*steps_per_period; construction refuses arrays of unequal length
    and a record shorter than one whole period. switch_state[k] and
    duty_cmd[k] describe the substep starting at times[k] (the last entry
    repeats its predecessor); duty_cmd holds each period's effective ON
    fraction. idle_run_substeps and off_run_substeps count the substeps
    that the closed-loop kernel's idle fast-forward and OFF-run pass
    committed (0 in open loop).
    """

    times: np.ndarray
    il: np.ndarray
    vc: np.ndarray
    duty_cmd: np.ndarray
    switch_state: np.ndarray
    steps_per_period: int
    dcm_encountered: bool = False
    idle_run_substeps: int = 0
    off_run_substeps: int = 0

    def __post_init__(self):
        spp = self.steps_per_period
        _check_steps_per_period(spp, 1)
        arrays = (self.times, self.il, self.vc, self.duty_cmd, self.switch_state)
        lengths = [len(arr) for arr in arrays]
        if len(set(lengths)) > 1:
            raise ValueError(f"trajectory arrays differ in length: {lengths}")
        if lengths[0] < spp + 1:
            raise ValueError(f"{lengths[0]} samples are less than one period of {spp} substeps")
        for arr in arrays:
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


def _grid(p: ConverterParams, cfg: SimConfig):
    """The run's whole periods, substep length, sample times, and il and vc
    arrays over those times that hold the start state at index 0."""
    n_periods = _periods(p, cfg)
    dt = 1.0 / (p.fs * cfg.steps_per_period)
    n_samples = n_periods * cfg.steps_per_period + 1
    # times first: malloc then reuses the freed arange temporary (peak RSS)
    out_t = np.arange(n_samples) * dt
    out_il = np.empty(n_samples)
    out_vc = np.empty(n_samples)
    out_il[0], out_vc[0] = cfg.initial_state
    return n_periods, dt, out_t, out_il, out_vc


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
    n_periods, dt, out_t, out_il, out_vc = _grid(p, cfg)

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

    il, vc = float(out_il[0]), float(out_vc[0])
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
    duty = np.full(len(out_t), float(d))
    switch = np.tile(np.arange(spp) < n_on + has_partial, n_periods)
    out_q = np.append(switch, switch[-1])
    return SwitchedTrajectory(out_t, out_il, out_vc, duty, out_q, spp, dcm)


def _idle_run(out_il, out_vc, start, spp, il, vc, integ, kp, vref, H, k_idle):
    """Write the idle, frozen substeps from start, a period boundary, on;
    return the substeps of the whole periods among them.

    Passes of at most IDLE_CHUNK substeps repeat the per-substep loop's IEEE
    operations in its order: vc by a sequential multiply.accumulate, then
    e, u = kp*e + integ and s = e + e_next elementwise. A substep with
    u < 0 (switch off) and s < 0 (integrator frozen) leaves il (+0 or -0)
    and integ as they were. The passes stop at the first substep that fails
    either check, or at the window's end; the substeps before it are written
    to out_il and out_vc, and the per-substep loop overwrites those past the
    last whole period. The diode needs no check: at the hand-over f12 <= 0,
    0 < k_idle <= 1 and vc > level > 0, so every decayed vc is >= 0 and
    f12*vc <= 0 holds on every substep.
    """
    stop = len(out_vc) - 1
    i = start
    while i < stop:
        n = min(IDLE_CHUNK, stop - i)
        vcs = np.full(n + 1, k_idle)
        vcs[0] = vc
        np.multiply.accumulate(vcs, out=vcs)
        es = vref - H * vcs
        ok = kp * es[:-1] + integ < 0.0
        ok &= es[:-1] + es[1:] < 0.0
        m = n if ok.all() else int(ok.argmin())
        out_il[i + 1 : i + m + 1] = il
        out_vc[i + 1 : i + m + 1] = vcs[1 : m + 1]
        i += m
        vc = float(vcs[m])
        if m < n:
            break
    n = i - start
    return n - n % spp


def _off_run(out_vc, start, thresholds, integ, kp, vref, H, half_ki_dt):
    """Return how many OFF substeps from start the controller lets stand, and
    the integrator after them.

    out_vc[start : start + n + 1] holds the plant's vc over n = len(thresholds)
    switch-off, conducting substeps. The pass repeats the per-substep loop's
    IEEE operations in its order: e = vref - H*vc and s = e + e_next
    elementwise, the integrator by a sequential add.accumulate of
    half_ki_dt*s from integ, then u = kp*e + integ. It stops at the first
    substep where the loop acts otherwise: the comparator fires
    (u > threshold, which covers a u above vs), or the integrator freezes
    (u < 0 and s < 0). Both tests are one: min(threshold - u, max(u, s)) < 0,
    where fmin skips a NaN threshold - u and maximum keeps a NaN, as the
    loop's comparisons are false on NaN.
    """
    n = len(thresholds)
    integs = np.empty(n + 1)
    integs[0] = integ
    es = vref - H * out_vc[start : start + n + 1]
    e0 = es[:-1]
    ss = e0 + es[1:]
    np.multiply(half_ki_dt, ss, out=integs[1:])
    np.add.accumulate(integs, out=integs)
    us = kp * e0
    us += integs[:-1]
    np.maximum(us, ss, out=ss)
    np.subtract(thresholds, us, out=us)
    stop = np.fmin(us, ss, out=us) < 0.0
    m = int(stop.argmax())
    if not stop[m]:
        m = n
    return m, float(integs[m])


# a diverged state must run on through the numpy passes as silently as
# Python floats do
@np.errstate(over="ignore", invalid="ignore")
def simulate_closed_loop(p: ConverterParams, cfg: SimConfig) -> SwitchedTrajectory:
    """PI-controlled PWM run per the standard voltage-mode loop.

    Each substep: sense the output through the divider, form the PI
    control voltage u (trapezoidal integral), compare it with the sawtooth
    at the substep's exact phase, and advance the state one exact substep
    under the selected mode. As every threshold lies in [0, vs) (a normal
    vs, spp below 2e6), u > threshold decides a saturated u too; saturation
    freezes the integrator while the error would deepen it.

    Idle fast-forward: from il == 0 with u < 0, f12 <= 0 < k_idle and
    vc > 0, a substep keeps the switch off and the diode blocked, and only
    decays vc by k_idle. It keeps the integrator frozen at the bottom of
    the window while vc > level: the larger of 2*vref/(H*(1 + k_idle)),
    below which e + e_next >= 0, and, for kp > 0, (vref + integ/kp)/H,
    below which u >= 0. A period that starts so, and whose vc stays above
    level after a whole period of decay, goes to _idle_run; the loop steps
    the next period from the last vc that it commits. The hand-over decides
    only speed: each committed value comes from the per-substep loop's IEEE
    operations in its order, so the trajectory is bit for bit the same.
    idle_run_substeps counts the committed substeps, and each period's duty
    is its ON count over spp.

    OFF-run pass: while the switch stays off and il stays positive, each
    substep applies the OFF map whatever the controller does. A period's
    first OFF substep with il != 0, if u >= 0 there and at least
    OFF_RUN_MIN substeps remain (about the pass's break-even), hands the
    rest of the period over: a plant-only loop steps the OFF map while the
    next il is positive, and _off_run runs the controller over those
    substeps in one numpy pass. The substeps before the first where the
    comparator fires or the integrator freezes are committed, and the
    per-substep loop goes on from there; a period makes at most one pass.
    The same rule of IEEE operations in the loop's order holds, and
    off_run_substeps counts the committed substeps.
    """
    if cfg.gains is None:
        raise ValueError("closed-loop simulation requires cfg.gains")
    kp, ki = cfg.gains.kp, cfg.gains.ki
    H = default_sensor_gain(p)
    spp = cfg.steps_per_period
    n_periods, dt, out_t, out_il, out_vc = _grid(p, cfg)
    vref, vs = p.vref, p.vs

    on = mode_on_model(p)
    a = on.a
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(a, (on.b[0] * p.vg, on.b[1] * p.vg), dt)
    k_idle = math.exp(a[1][1] * dt)

    n_steps = n_periods * spp
    # zeros: the switch state of idle fast-forward runs
    out_q = np.zeros(n_steps + 1, dtype=bool)
    il, vc = float(out_il[0]), float(out_vc[0])
    integ = float(cfg.integrator_init)
    half_ki_dt = 0.5 * ki * dt
    saw_step = vs / spp
    thresholds = [saw_step * k for k in range(spp)]
    thresholds_np = np.array(thresholds)
    # one period of il and vc is buffered in lists and stored with one
    # pack_into per state (native "d" is float64's layout), which costs about
    # half of numpy's element-by-element list conversion; each *buf builds one
    # tuple of spp references, 1.6 kB at spp 200 and at most 16 MB at the
    # 2M-spp edge of the sample budget
    pack = struct.Struct(f"{spp}d").pack_into
    buf_il = [0.0] * spp
    buf_vc = [0.0] * spp
    # out_q starts all OFF, so only an ON substep writes its switch state
    q_view = memoryview(out_q)
    dcm = False
    idle_run_substeps = off_run_substeps = 0
    # the vc below which an idle substep would move the integrator
    frozen_level = 2.0 * vref / (H * (1.0 + k_idle))
    e = vref - H * vc
    lo = 0
    while lo < n_steps:
        if il == 0.0 and kp * e + integ < 0.0 and f12 <= 0.0 < k_idle:
            level = max(frozen_level, (vref + integ / kp) / H) if kp > 0.0 else frozen_level
            # handed over if a whole period's decay leaves vc above level;
            # level is 0.0 where H*(1 + k_idle) overflows (vref/vo_target near 1e308)
            if 0.0 < level < vc * k_idle**spp < math.inf:
                n = _idle_run(out_il, out_vc, lo, spp, il, vc, integ, kp, vref, H, k_idle)
                if n:
                    # every committed substep took the idle branch
                    dcm = True
                    idle_run_substeps += n
                    lo += n
                    if lo == n_steps:
                        break
                    vc = float(out_vc[lo])
                    e = vref - H * vc
        q_period = q_view[lo : lo + spp]
        # the period's first CCM OFF substep decides on the OFF-run pass; from
        # k <= k_pass at least OFF_RUN_MIN substeps remain
        k, k_pass = 0, spp - OFF_RUN_MIN
        while k < spp:
            for k in range(k, spp):
                u = kp * e + integ
                if u > thresholds[k]:
                    il, vc = f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2
                    q_period[k] = True
                elif il == 0.0:
                    nil = f12 * vc
                    if nil <= 0.0:
                        vc = k_idle * vc
                        dcm = True
                    else:
                        vc = f22 * vc
                        il = nil
                else:
                    if k <= k_pass:
                        k_pass = -1
                        # from u < 0 the integrator may freeze at once
                        if 0.0 <= u:
                            break
                    nil = f11 * il + f12 * vc
                    vc = f21 * il + f22 * vc
                    if nil < 0.0:
                        nil = 0.0
                        dcm = True
                    il = nil
                # the sensed error after this substep is the next substep's error
                s = e + (e := vref - H * vc)
                if not ((u > vs and s > 0.0) or (u < 0.0 and s < 0.0)):
                    integ += half_ki_dt * s
                buf_il[k] = il
                buf_vc[k] = vc
            else:
                k = spp
            # the OFF run's plant, from substep k on while il stays positive
            n = k
            while n < spp and (nil := f11 * il + f12 * vc) > 0.0:
                il, vc = nil, f21 * il + f22 * vc
                buf_il[n] = il
                buf_vc[n] = vc
                n += 1
            pack(out_il, 8 * (lo + 1), *buf_il)
            pack(out_vc, 8 * (lo + 1), *buf_vc)
            if k < n:
                m, integ = _off_run(
                    out_vc, lo + k, thresholds_np[k:n], integ, kp, vref, H, half_ki_dt
                )
                off_run_substeps += m
                k += m
                il, vc = float(out_il[lo + k]), float(out_vc[lo + k])
                e = vref - H * vc
        lo += spp
    out_q[n_steps] = out_q[n_steps - 1]
    # each period's ON fraction, from its switch record
    out_duty = np.empty(n_steps + 1)
    on_counts = np.count_nonzero(out_q[:n_steps].reshape(n_periods, spp), axis=1)
    out_duty[:n_steps].reshape(n_periods, spp)[:] = (on_counts / spp)[:, None]
    out_duty[n_steps] = out_duty[n_steps - 1]
    return SwitchedTrajectory(
        out_t, out_il, out_vc, out_duty, out_q, spp, dcm, idle_run_substeps,
        off_run_substeps,
    )


def _period_means(x: np.ndarray, spp: int, first: int, stop: int) -> np.ndarray:
    """Trapezoidal means of x over whole periods first ... stop - 1. Each row
    sum takes the same pairwise order as summing that period's 1-D slice, so
    the means match a per-period loop bit for bit."""
    lo, hi = first * spp, stop * spp
    rows = x[lo:hi].reshape(-1, spp).sum(axis=1)
    return (rows - 0.5 * x[lo:hi:spp] + 0.5 * x[lo + spp : hi + 1 : spp]) / spp


def cycle_average(traj: SwitchedTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoidal per-period means of il and vc, and each period's duty.

    A trailing partial period is dropped.
    """
    spp = traj.steps_per_period
    n = (len(traj.times) - 1) // spp
    il, vc = (_period_means(x, spp, 0, n) for x in (traj.il, traj.vc))
    return il, vc, traj.duty_cmd[: n * spp : spp]


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
    """Judge the record's last whole period against the output-voltage target.

    The run passes when the final-cycle mean is within
    REGULATION_TOLERANCE_PCT of the target, and never when the target lies
    above full_duty_output, which no steady state can hold (a run from a
    higher source's operating point may still be coasting through the
    band). The means are cycle_average's last row, bit for bit. duty_final
    averages the trailing JUDGED_PERIODS complete cycles, since the comparator
    quantizes each period's duty to 1/steps_per_period and the integrator
    dithers between adjacent levels at steady state.
    """
    spp = traj.steps_per_period
    n = (len(traj.times) - 1) // spp
    lo = (n - 1) * spp
    trailing = traj.duty_cmd[: lo + 1 : spp][-JUDGED_PERIODS:].tolist()
    duty_final = sum(trailing) / len(trailing)
    final_vc_mean = float(_period_means(traj.vc, spp, n - 1, n)[0])
    last = traj.vc[lo : lo + spp + 1]
    deviation = abs(final_vc_mean - p.vo_target) / p.vo_target * 100.0
    holdable = not p.vo_target > full_duty_output(p)
    return RegulationReport(
        target_v=p.vo_target,
        final_vc_mean=final_vc_mean,
        final_il_mean=float(_period_means(traj.il, spp, n - 1, n)[0]),
        vc_ripple_pkpk=float(last.max() - last.min()),
        duty_final=duty_final,
        deviation_pct=deviation,
        tolerance_pct=REGULATION_TOLERANCE_PCT,
        passed=deviation <= REGULATION_TOLERANCE_PCT and holdable,
        duty_saturated=duty_final == 0.0 or duty_final == 1.0,
        dcm_encountered=traj.dcm_encountered,
    )


def pwm_equivalent_gains(analysis_gains: PIGains, p: ConverterParams) -> PIGains:
    """Rescale duty-domain PI gains for the physical PWM loop.

    The comparator divides the control voltage by vs and the sensor
    scales the output by H = vref/vo_target, so multiplying the gains by
    vs/H = vs*vo_target/vref makes the physical loop's frequency response
    match the duty-domain design. Raises ValueError, naming the factor, when
    a rescaled gain overflows or both underflow to zero.
    """
    factor = p.vs / default_sensor_gain(p)
    try:
        return PIGains(analysis_gains.kp * factor, analysis_gains.ki * factor)
    except ValueError as exc:
        raise ValueError(
            f"duty-domain gains {analysis_gains} times vs*vo_target/vref = "
            f"{factor!r} are not valid PWM-loop gains: {exc}"
        ) from None
