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
vc, are stepped in numpy passes instead, and conducting periods run ahead
as a plant-only loop whose controller one numpy pass checks (see
simulate_closed_loop).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
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
# idle substeps per numpy pass of the closed-loop kernel, and the most
# substeps a run-ahead batch of more than one period packs; bounds their
# temporaries
IDLE_CHUNK = 4096
# the fewest substeps per period at which the closed-loop kernel runs ahead:
# about the break-even of the run-ahead pass against the per-substep loop
RUN_AHEAD_MIN_SPP = 96
# the most whole periods one run-ahead batch packs
RUN_AHEAD_PERIODS = 8


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
    fraction. idle_run_substeps and run_ahead_substeps count the substeps
    that the closed-loop kernel's idle fast-forward and run-ahead batches
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
    run_ahead_substeps: int = 0

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


def _run_ahead(
    out_il, out_vc, out_q, start, on_counts, thresholds, integ, kp, vref, vs, H, half_ki_dt
):
    """Return how many substeps of a run-ahead batch from start the
    controller lets stand, and the integrator after them; write their switch
    states to out_q.

    out_il and out_vc hold the plant's states over len(on_counts) whole
    periods from start, a period boundary: period j switched on for its
    first on_counts[j] substeps, then off. thresholds is one period of the
    sawtooth. The pass repeats the per-substep loop's IEEE operations in its
    order: e = vref - H*vc and s = e + e_next elementwise, the integrator by
    a sequential add.accumulate of half_ki_dt*s from integ, then
    u = kp*e + integ. It stops at the first substep where the loop acts
    otherwise: the comparator (u > threshold) disagrees with the predicted
    switch state, the integrator freezes at the bottom (u < 0 and s < 0, as
    max(u, s) < 0) or at the top (u > vs and s > 0, as min(u - vs, s) > 0),
    or a predicted OFF substep leaves il not > 0. numpy's comparisons are
    false on NaN as the loop's are, and maximum and minimum keep a NaN.
    """
    spp = len(thresholds)
    n = len(on_counts) * spp
    off = (np.arange(spp) >= np.array(on_counts)[:, None]).ravel()
    es = H * out_vc[start : start + n + 1]
    np.subtract(vref, es, out=es)
    e0 = es[:-1]
    ss = e0 + es[1:]
    integs = np.empty(n + 1)
    integs[0] = integ
    np.multiply(half_ki_dt, ss, out=integs[1:])
    np.add.accumulate(integs, out=integs)
    us = kp * e0
    us += integs[:-1]
    # the comparator against the prediction
    stop = (us.reshape(-1, spp) > thresholds).ravel()
    np.equal(stop, off, out=stop)
    # the integrator freezes only where u leaves [0, vs]; a NaN takes the test
    if not (0.0 <= us.min() and us.max() <= vs):
        stop |= np.maximum(us, ss) < 0.0
        np.subtract(us, vs, out=us)
        stop |= np.minimum(us, ss, out=us) > 0.0
    # an OFF substep that the diode would clamp or block
    ils = out_il[start + 1 : start + n + 1]
    if not ils.min() > 0.0:
        stop |= (ils > 0.0) < off
    m = int(stop.argmax())
    if not stop[m]:
        m = n
    np.logical_not(off[:m], out=out_q[start : start + m])
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

    Run-ahead batch: at RUN_AHEAD_MIN_SPP substeps per period or more, a
    period that starts with il != 0 and 0 <= u <= vs starts a batch of up to
    `batch` whole periods. A plant-only loop steps each period with the
    loop's own ON and OFF expressions, ON to a predicted edge and OFF from
    there to the period's end. The edge is first bisect_left(thresholds, u);
    the comparator, with the integrator held at its value at the period's
    start, then moves it back while the last ON substep would be OFF, or on
    while the next would be ON. The first period takes the integrator and u
    from the exact state; each later one from an estimate over the period
    before, integ + half_ki_dt*(2*spp*vref - H*(vc0 + 2*sum(vc) + vc_end)),
    which only sets the prediction. Packing ends after a period whose il
    is not > 0 at its end or whose estimated next u leaves [0, vs]; a
    period whose ON run leaves il == 0 (where the loop's diode branch would
    act) is not packed. _run_ahead then commits the substeps before the
    first where the loop would act otherwise, and the per-substep loop
    finishes the period that holds it, so that a period starts at most one
    batch. `batch` doubles, up to RUN_AHEAD_PERIODS (and IDLE_CHUNK
    substeps beyond one period), after a batch that commits all the periods
    it set out to pack, and drops to 1 after any other. The same rule of
    IEEE operations in the loop's order holds, and run_ahead_substeps
    counts the committed substeps.
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
    # a run-ahead batch buffers its periods the same way; one of a single
    # period shares the loop's lists
    run_ahead = spp >= RUN_AHEAD_MIN_SPP
    batch_max = max(1, min(RUN_AHEAD_PERIODS, IDLE_CHUNK // spp))
    bat_il, bat_vc = (
        (buf_il, buf_vc) if batch_max == 1
        else ([0.0] * (batch_max * spp), [0.0] * (batch_max * spp))
    )
    batch = 1
    two_spp_vref = 2.0 * spp * vref
    # out_q starts all OFF, so only an ON substep writes its switch state
    q_view = memoryview(out_q)
    dcm = False
    idle_run_substeps = run_ahead_substeps = 0
    # the vc below which an idle substep would move the integrator
    frozen_level = 2.0 * vref / (H * (1.0 + k_idle))
    e = vref - H * vc
    lo = 0
    while lo < n_steps:
        k = 0
        u = kp * e + integ
        if il == 0.0:
            if u < 0.0 and f12 <= 0.0 < k_idle:
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
        elif run_ahead and 0.0 <= u <= vs:
            planned = min(batch, (n_steps - lo) // spp)
            on_counts = []
            pil, pvc = il, vc
            est = integ
            for i0 in range(0, planned * spp, spp):
                il0, vc0 = pil, pvc
                i1 = i0 + bisect_left(thresholds, u)
                for i in range(i0, i1):
                    pil, pvc = f11 * pil + f12 * pvc + g1, f21 * pil + f22 * pvc + g2
                    bat_il[i] = pil
                    bat_vc[i] = pvc
                # the comparator at the edge, with the integrator held at est:
                # back while the last ON substep would be OFF, else on while
                # the next would be ON
                i = i1
                while i > i0 and not (
                    kp * (vref - H * (bat_vc[i - 2] if i - 1 > i0 else vc0)) + est
                    > thresholds[i - 1 - i0]
                ):
                    i -= 1
                if i < i1:
                    i1 = i
                    pil, pvc = (bat_il[i1 - 1], bat_vc[i1 - 1]) if i1 > i0 else (il0, vc0)
                else:
                    while i1 < i0 + spp and kp * (vref - H * pvc) + est > thresholds[i1 - i0]:
                        pil, pvc = f11 * pil + f12 * pvc + g1, f21 * pil + f22 * pvc + g2
                        bat_il[i1] = pil
                        bat_vc[i1] = pvc
                        i1 += 1
                # from il == 0 the loop's diode branch would take the OFF substep
                if pil == 0.0:
                    break
                for i in range(i1, i0 + spp):
                    pil, pvc = f11 * pil + f12 * pvc, f21 * pil + f22 * pvc
                    bat_il[i] = pil
                    bat_vc[i] = pvc
                on_counts.append(i1 - i0)
                if len(on_counts) == planned or not pil > 0.0:
                    break
                est += half_ki_dt * (
                    two_spp_vref - H * (vc0 + 2.0 * sum(bat_vc[i0 : i0 + spp - 1]) + pvc)
                )
                u = kp * (vref - H * pvc) + est
                if not 0.0 <= u <= vs:
                    break
            n = len(on_counts) * spp
            m = 0
            if n:
                rows = (bat_il, bat_vc) if n == len(bat_il) else (bat_il[:n], bat_vc[:n])
                for out, row in zip((out_il, out_vc), rows):
                    struct.pack_into(f"{n}d", out, 8 * (lo + 1), *row)
                m, integ = _run_ahead(
                    out_il, out_vc, out_q, lo, on_counts, thresholds_np, integ, kp, vref,
                    vs, H, half_ki_dt,
                )
                run_ahead_substeps += m
            whole = m == planned * spp
            batch = min(2 * batch, batch_max) if whole else 1
            if m:
                il, vc = bat_il[m - 1], bat_vc[m - 1]
                e = vref - H * vc
                # the per-substep loop finishes the period that holds substep m
                k = m % spp
                lo += m - k
                buf_il[:k] = bat_il[m - k : m]
                buf_vc[:k] = bat_vc[m - k : m]
            if whole:
                continue
        q_period = q_view[lo : lo + spp]
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
        pack(out_il, 8 * (lo + 1), *buf_il)
        pack(out_vc, 8 * (lo + 1), *buf_vc)
        lo += spp
    out_q[n_steps] = out_q[n_steps - 1]
    # each period's ON fraction, from its switch record
    out_duty = np.empty(n_steps + 1)
    on_counts = np.count_nonzero(out_q[:n_steps].reshape(n_periods, spp), axis=1)
    out_duty[:n_steps].reshape(n_periods, spp)[:] = (on_counts / spp)[:, None]
    out_duty[n_steps] = out_duty[n_steps - 1]
    return SwitchedTrajectory(
        out_t, out_il, out_vc, out_duty, out_q, spp, dcm, idle_run_substeps,
        run_ahead_substeps,
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
