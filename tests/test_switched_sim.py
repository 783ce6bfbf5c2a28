import dataclasses
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buckforge import (
    PIGains,
    SimConfig,
    SwitchedTrajectory,
    averaged_model,
    compare_to_averaged,
    cycle_average,
    mode_off_model,
    mode_on_model,
    pwm_equivalent_gains,
    regulation_report,
    simulate_closed_loop,
    simulate_open_loop,
    solve_duty,
)
from buckforge.lti import MAX_SAMPLES
from buckforge.switched_sim import _periods
from buckforge.timedomain import zoh
from oracles import closed_loop_reference, cycle_means_reference, open_loop_reference


def test_sim_config_validation(nominal_params):
    with pytest.raises(ValueError):
        SimConfig(t_end=0.01, steps_per_period=19)
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end"):
            SimConfig(t_end=bad)
    # fewer than 10 periods
    with pytest.raises(ValueError):
        simulate_open_loop(nominal_params, 0.5, SimConfig(t_end=1e-4))


def test_sample_budget_refused_before_allocation(nominal_params):
    p = nominal_params
    # about 1.2e13 samples: a missing check would try to allocate them
    huge = SimConfig(t_end=1e6, gains=PIGains(17.25, 75.0))
    with pytest.raises(ValueError, match="t_end .* steps_per_period"):
        simulate_open_loop(p, 0.5, huge)
    with pytest.raises(ValueError, match="t_end .* steps_per_period"):
        simulate_closed_loop(p, huge)
    # t_end*fs overflows to inf, which must not reach round()
    fast = dataclasses.replace(p, fs=1e300)
    with pytest.raises(ValueError, match="budget"):
        simulate_open_loop(fast, 0.5, SimConfig(t_end=1e10))
    # the edge of the budget, checked without allocating anything
    n_max = (MAX_SAMPLES - 1) // 20
    assert _periods(p, SimConfig(t_end=n_max / p.fs, steps_per_period=20)) == n_max
    with pytest.raises(ValueError, match="budget"):
        _periods(p, SimConfig(t_end=(n_max + 1) / p.fs, steps_per_period=20))


def test_thresholds_stay_below_the_smallest_normal_vs(nominal_params):
    # the smallest normal vs is accepted (a subnormal one is refused), and the
    # sample budget refuses 2e6 substeps per period over the 10-period minimum
    p = dataclasses.replace(nominal_params, vs=sys.float_info.min)
    spp = 2_000_000
    with pytest.raises(ValueError, match="budget"):
        _periods(p, SimConfig(t_end=10 / p.fs, steps_per_period=spp))
    # the closed loop's top threshold, as simulate_closed_loop computes it
    saw_step = p.vs / spp
    assert saw_step * (spp - 1) < p.vs


def test_open_loop_zero_duty_stays_at_rest(nominal_params):
    traj = simulate_open_loop(nominal_params, 0.0, SimConfig(t_end=0.001))
    assert np.abs(traj.il).max() == 0.0
    assert np.abs(traj.vc).max() == 0.0
    assert not traj.switch_state.any()


def test_open_loop_full_duty_reaches_on_mode_dc(nominal_params):
    p = nominal_params
    traj = simulate_open_loop(p, 1.0, SimConfig(t_end=0.06))
    expect = p.vg * p.r_load / (p.r_load + p.r_l)
    assert traj.vc[-1] == pytest.approx(expect, rel=1e-3)
    assert traj.switch_state.all()


def test_open_loop_converges_to_averaged_equilibrium(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    traj = simulate_open_loop(p, op.duty, SimConfig(t_end=0.06))
    il_avg, vc_avg, duty = cycle_average(traj, p.fs)
    assert vc_avg[-1] == pytest.approx(op.vc, rel=0.005)
    assert il_avg[-1] == pytest.approx(op.il, rel=0.02)
    assert duty[-1] == op.duty
    assert not traj.dcm_encountered


@pytest.mark.parametrize("d", [-0.1, 1.5, math.nan])
def test_open_loop_rejects_duty_outside_unit_interval(nominal_params, d):
    with pytest.raises(ValueError, match=r"duty cycle must lie in \[0, 1\]"):
        simulate_open_loop(nominal_params, d, SimConfig(t_end=0.001))


def test_open_loop_sample_grid(nominal_params):
    cfg = SimConfig(t_end=0.001, steps_per_period=40)
    traj = simulate_open_loop(nominal_params, 0.37, cfg)
    dt = 1.0 / (nominal_params.fs * 40)
    assert len(traj.times) == int(round(0.001 * nominal_params.fs)) * 40 + 1
    assert np.allclose(np.diff(traj.times), dt, rtol=0, atol=1e-16)


def test_continuity_slew_bound(nominal_params):
    p = nominal_params
    cfg = SimConfig(t_end=0.005)
    traj = simulate_open_loop(p, 0.51, cfg)
    dt = 1.0 / (p.fs * cfg.steps_per_period)
    dil = np.abs(np.diff(traj.il))
    bound = (p.vg + np.abs(traj.vc).max() + p.r_l * np.abs(traj.il).max()) / p.l * dt
    assert dil.max() <= bound * 1.05


def test_idle_mode_is_exact_rc_decay(nominal_params):
    p = nominal_params
    traj = simulate_open_loop(p, 0.0, SimConfig(t_end=0.01, initial_state=(0.0, 20.0)))
    assert traj.dcm_encountered
    assert np.abs(traj.il).max() == 0.0
    expect = 20.0 * np.exp(-traj.times / (p.r_load * p.c))
    assert np.abs(traj.vc - expect).max() < 1e-9 * 20.0


def test_open_loop_deterministic(nominal_params):
    a = simulate_open_loop(nominal_params, 0.51, SimConfig(t_end=0.002))
    b = simulate_open_loop(nominal_params, 0.51, SimConfig(t_end=0.002))
    assert np.array_equal(a.il, b.il)
    assert np.array_equal(a.vc, b.vc)
    assert np.array_equal(a.switch_state, b.switch_state)


def test_substep_doubling_invariance(nominal_params):
    # state samples shared between the two grids agree to float noise
    for d in (0.51, 0.513):
        coarse = simulate_open_loop(
            nominal_params, d, SimConfig(t_end=0.004, steps_per_period=100)
        )
        fine = simulate_open_loop(
            nominal_params, d, SimConfig(t_end=0.004, steps_per_period=200)
        )
        scale = np.abs(fine.vc[::2]).max()
        assert np.abs(coarse.vc - fine.vc[::2]).max() < 1e-6 * scale
        scale_i = np.abs(fine.il[::2]).max()
        assert np.abs(coarse.il - fine.il[::2]).max() < 1e-6 * scale_i


def test_volt_second_balance_at_steady_state(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    cfg = SimConfig(t_end=0.01, initial_state=(op.il, op.vc))
    traj = simulate_open_loop(p, op.duty, cfg)
    spp = cfg.steps_per_period
    # mean inductor voltage over the last cycle is L * dIl / Ts
    dil = traj.il[-1] - traj.il[-spp - 1]
    residual = abs(p.l * dil * p.fs)
    assert residual < 1e-3 * p.vg


def test_energy_balance_at_steady_state(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    cfg = SimConfig(t_end=0.01, initial_state=(op.il, op.vc))
    traj = simulate_open_loop(p, op.duty, cfg)
    spp = cfg.steps_per_period
    dt = 1.0 / (p.fs * spp)
    il = traj.il[-spp - 1:]
    vc = traj.vc[-spp - 1:]
    q = traj.switch_state[-spp - 1:]
    e_in = sum(
        p.vg * 0.5 * (il[k] + il[k + 1]) * dt for k in range(spp) if q[k]
    )
    e_load = sum(0.5 * (vc[k] ** 2 + vc[k + 1] ** 2) / p.r_load * dt for k in range(spp))
    assert e_in >= e_load


def test_averaging_validity_conditions(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    cfg = SimConfig(t_end=0.01, initial_state=(op.il, op.vc))
    traj = simulate_open_loop(p, op.duty, cfg)
    spp = cfg.steps_per_period
    il = traj.il[-spp - 1:]
    vc = traj.vc[-spp - 1:]
    # ripple must stay small next to the average
    assert (il.max() - il.min()) / il.mean() < 0.35
    assert (vc.max() - vc.min()) / vc.mean() < 0.005
    # per-mode evolution must stay near its chord
    n_on = int(round(op.duty * spp))
    for seg_values in (il[: n_on + 1], vc[: n_on + 1]):
        chord = np.linspace(seg_values[0], seg_values[-1], len(seg_values))
        assert np.abs(seg_values - chord).max() / abs(seg_values.mean()) < 0.02


def test_closed_loop_zero_reference_decays(nominal_params):
    # vref = 0 is refused at construction; started at five times the target,
    # the loop acts as if the reference were zero: the control voltage stays
    # below the sawtooth, the integrator stays frozen and vc decays through R*C
    p = nominal_params
    cfg = SimConfig(t_end=0.02, gains=PIGains(17.25, 75.0), initial_state=(0.5, 75.0))
    traj = simulate_closed_loop(p, cfg)
    assert traj.duty_cmd.max() == 0.0
    assert traj.vc[-1] < 75.0 * math.exp(-0.02 / (p.r_load * p.c)) * 1.01
    assert abs(traj.il[-1]) < 1e-6


def test_closed_loop_requires_gains(nominal_params):
    with pytest.raises(ValueError, match="gains"):
        simulate_closed_loop(nominal_params, SimConfig(t_end=0.01))


def test_closed_loop_holds_operating_point(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    gains = pwm_equivalent_gains(PIGains(0.23, 1.0), p)
    cfg = SimConfig(
        t_end=0.01,
        gains=gains,
        initial_state=(op.il, op.vc),
        integrator_init=op.duty * p.vs,
    )
    traj = simulate_closed_loop(p, cfg)
    report = regulation_report(traj, p)
    assert report.passed
    assert report.final_vc_mean == pytest.approx(15.0, rel=0.005)
    # steady state with integral action: mean error under 0.1% of vref
    spp = cfg.steps_per_period
    h = p.vref / p.vo_target
    mean_e = abs(p.vref - h * traj.vc[-10 * spp:].mean())
    assert mean_e < 1e-3 * p.vref


def test_closed_loop_deterministic(nominal_params):
    gains = PIGains(17.25, 75.0)
    cfg = SimConfig(t_end=0.002, gains=gains)
    a = simulate_closed_loop(nominal_params, cfg)
    b = simulate_closed_loop(nominal_params, cfg)
    assert np.array_equal(a.il, b.il)
    assert np.array_equal(a.vc, b.vc)
    assert np.array_equal(a.duty_cmd, b.duty_cmd)


def test_pwm_equivalent_gains(nominal_params):
    g = pwm_equivalent_gains(PIGains(0.23, 1.0), nominal_params)
    assert g.kp == pytest.approx(0.23 * 75.0, rel=1e-12)
    assert g.ki == pytest.approx(75.0, rel=1e-12)
    # the factor is vs*vo_target/vref, whatever the divider
    p = dataclasses.replace(nominal_params, vref=1.5)
    assert pwm_equivalent_gains(PIGains(1.0, 1.0), p) == PIGains(100.0, 100.0)


def _manual_trajectory(values, spp=40, fs=1000.0):
    n = len(values)
    dt = 1.0 / (fs * spp)
    return SwitchedTrajectory(
        times=np.arange(n) * dt,
        il=np.asarray(values, dtype=float),
        vc=np.asarray(values, dtype=float),
        duty_cmd=np.full(n, 0.5),
        switch_state=np.zeros(n, dtype=bool),
    )


def test_cycle_average_constant():
    traj = _manual_trajectory([3.0] * 81)
    il_avg, vc_avg, duty = cycle_average(traj, 1000.0)
    assert len(il_avg) == len(vc_avg) == len(duty) == 2
    assert il_avg[0] == 3.0
    assert vc_avg[1] == 3.0
    assert duty[0] == 0.5


def test_cycle_average_symmetric_ripple():
    spp = 40
    ramp = np.concatenate([np.linspace(-1, 1, spp // 2 + 1)[:-1],
                           np.linspace(1, -1, spp // 2 + 1)[:-1]])
    values = 7.0 + np.tile(ramp, 2)
    values = np.append(values, 7.0 - 1.0)
    traj = _manual_trajectory(values, spp=spp)
    il_avg, _, _ = cycle_average(traj, 1000.0)
    for mean in il_avg:
        assert mean == pytest.approx(7.0, abs=0.05)


def test_cycle_average_too_short(nominal_params):
    traj = _manual_trajectory([1.0] * 30, spp=40)
    with pytest.raises(ValueError, match="period"):
        cycle_average(traj, 1000.0)


def test_compare_to_averaged_zero_duty_identical(nominal_params):
    cmp = compare_to_averaged(nominal_params, 0.0, SimConfig(t_end=0.001))
    assert cmp.max_il_avg_deviation == 0.0
    assert cmp.max_vc_avg_deviation == 0.0
    # from a nonzero state the diode clamp engages once il reaches zero,
    # and only the switched run models it
    clamped = compare_to_averaged(
        nominal_params, 0.0, SimConfig(t_end=0.001, initial_state=(1.0, 5.0))
    )
    assert clamped.dcm_encountered


def test_compare_to_averaged_nominal(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    cmp = compare_to_averaged(p, op.duty, SimConfig(t_end=0.05))
    # steady-state discrepancy below the ripple amplitude
    steady_gap = abs(cmp.final_switched_vc_avg - cmp.final_averaged_vc_avg)
    assert steady_gap < cmp.vc_ripple_pkpk
    # ripple levels: standard slope formula for il, tiny for vc
    expect_ripple = (p.vg - op.vc) * op.duty / (p.l * p.fs)
    assert cmp.il_ripple_pkpk == pytest.approx(expect_ripple, rel=0.05)
    assert cmp.vc_ripple_pkpk < 0.005 * op.vc
    assert not cmp.dcm_encountered


def test_compare_metric_invariant_to_substeps(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    a = compare_to_averaged(p, op.duty, SimConfig(t_end=0.004, steps_per_period=100))
    b = compare_to_averaged(p, op.duty, SimConfig(t_end=0.004, steps_per_period=200))
    assert a.max_vc_avg_deviation == pytest.approx(b.max_vc_avg_deviation, rel=1e-6)
    assert a.max_il_avg_deviation == pytest.approx(b.max_il_avg_deviation, rel=1e-6)
    assert a.final_switched_vc_avg == pytest.approx(b.final_switched_vc_avg, rel=1e-6)


def test_regulation_report_failure(nominal_params):
    p = dataclasses.replace(nominal_params, vg=10.0)
    gains = pwm_equivalent_gains(PIGains(0.23, 1.0), nominal_params)
    traj = simulate_closed_loop(p, SimConfig(t_end=0.02, gains=gains))
    report = regulation_report(traj, p)
    assert not report.passed
    assert report.duty_final == 1.0
    assert report.duty_saturated
    assert report.final_vc_mean < 10.0


def test_trajectory_arrays_read_only(nominal_params):
    traj = simulate_open_loop(nominal_params, 0.5, SimConfig(t_end=0.001))
    with pytest.raises(ValueError):
        traj.vc[0] = 99.0


def _assert_same_run(traj, ref):
    names = ("times", "il", "vc", "duty_cmd", "switch_state")
    for name, want in zip(names, ref[:5]):
        got = getattr(traj, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert traj.dcm_encountered is ref[5]


def _default_gains(p, **kw):
    return SimConfig(gains=pwm_equivalent_gains(PIGains(0.23, 1.0), p), **kw)


def _from_operating_point(p, **kw):
    op = solve_duty(p)
    return _default_gains(
        p, initial_state=(op.il, op.vc), integrator_init=op.duty * p.vs, **kw
    )


KERNEL_CASES = {
    # 30 V operating point stepped to 500 V: the diode clamp engages
    "dcm_vg500_spp50": lambda p: (
        dataclasses.replace(p, vg=500.0),
        _from_operating_point(p, t_end=0.005, steps_per_period=50),
    ),
    # a stiff loop on a fast (small-C) filter, started above the target,
    # bangs between both ends of the [0, vs] window
    "saturation_both_limits": lambda p: (
        dataclasses.replace(p, c=30e-6),
        SimConfig(
            t_end=0.005, gains=PIGains(500.0, 2000.0), steps_per_period=40,
            initial_state=(0.0, 20.0),
        ),
    ),
    "integrator_init": lambda p: (p, _from_operating_point(p, t_end=0.003)),
    # a divider of 0.1 instead of the nominal 2/15, set through vref
    "sensor_gain": lambda p: (
        dataclasses.replace(p, vref=1.5),
        _default_gains(p, t_end=0.003, integrator_init=3.0),
    ),
    "zero_state_spp20": lambda p: (p, _default_gains(p, t_end=0.005, steps_per_period=20)),
    "zero_state_spp37": lambda p: (p, _default_gains(p, t_end=0.005, steps_per_period=37)),
    "zero_state_spp200": lambda p: (p, _default_gains(p, t_end=0.003)),
    # a deeply negative integrator keeps the switch OFF, and a negative vc
    # makes the diode conduct again from il == 0
    "reconduct_integrator_limit_0": lambda p: (
        p,
        _default_gains(
            p, t_end=0.002, initial_state=(0.0, -5.0), integrator_init=-100.0
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_closed_loop_matches_reference_loop(nominal_params, case):
    p, cfg = KERNEL_CASES[case](nominal_params)
    traj = simulate_closed_loop(p, cfg)
    _assert_same_run(traj, closed_loop_reference(p, cfg, zoh))
    if case == "dcm_vg500_spp50":
        assert traj.dcm_encountered
    if case == "reconduct_integrator_limit_0":
        assert traj.duty_cmd.max() == 0.0
        assert traj.il[1] > 0.0 and not traj.dcm_encountered
    if case == "saturation_both_limits":
        # whole periods OFF and whole periods ON
        duties = set((traj.duty_cmd * cfg.steps_per_period).round().astype(int).tolist())
        assert {0, cfg.steps_per_period} <= duties


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    vg=st.floats(16.0, 500.0),
    r_load=st.floats(1.0, 100.0),
    kp=st.floats(0.01, 200.0),
    ki=st.floats(0.0, 5000.0),
    spp=st.integers(20, 64),
    integrator_init=st.floats(-5.0, 15.0),
)
def test_closed_loop_matches_reference_property(
    nominal_params, vg, r_load, kp, ki, spp, integrator_init
):
    p = dataclasses.replace(nominal_params, vg=vg, r_load=r_load)
    cfg = SimConfig(
        t_end=12.0 / p.fs, gains=PIGains(kp, ki), steps_per_period=spp,
        initial_state=(0.5, 10.0), integrator_init=integrator_init,
    )
    _assert_same_run(simulate_closed_loop(p, cfg), closed_loop_reference(p, cfg, zoh))


# (vg, duty, steps per period, initial state)
OPEN_LOOP_CASES = {
    # duties without (0, 1) and with (0.37, 0.123456) a boundary substep
    **{
        f"duty{d}_spp{spp}": (30.0, d, spp, (0.0, 0.0))
        for d in (0.0, 0.37, 0.123456, 1.0)
        for spp in (20, 37, 200)
    },
    # the diode blocks: a charged capacitor above the duty's output level,
    # and a current that runs down to zero
    "dcm_from_0_20": (30.0, 0.37, 37, (0.0, 20.0)),
    "dcm_from_1_5": (30.0, 0.0, 37, (1.0, 5.0)),
    # a negative vc makes the diode conduct again from il == 0
    "reconduct_from_0_m5": (30.0, 0.0, 37, (0.0, -5.0)),
    # vc above vg drives il negative during ON time, so il < 0 enters
    # boundary substeps; the OFF completion clamps it like any OFF substep
    "negative_il_at_boundary": (20.0, 0.37, 20, (0.5, 40.0)),
    # one OFF segment per period, the boundary's completion or a full
    # substep, so the clamp acts with no idle substep after it
    "clamp_only_boundary": (20.0, 0.97, 20, (0.5, 40.0)),
    "clamp_only_full": (20.0, 0.95, 20, (0.5, 40.0)),
}


@pytest.mark.parametrize("case", sorted(OPEN_LOOP_CASES))
def test_open_loop_matches_reference_loop(nominal_params, case):
    vg, d, spp, initial = OPEN_LOOP_CASES[case]
    p = dataclasses.replace(nominal_params, vg=vg)
    cfg = SimConfig(t_end=0.002, steps_per_period=spp, initial_state=initial)
    traj = simulate_open_loop(p, d, cfg)
    _assert_same_run(traj, open_loop_reference(p, d, cfg, zoh))
    if case == "reconduct_from_0_m5":
        assert traj.il[1] > 0.0 and not traj.dcm_encountered
    elif not case.startswith("duty"):
        assert traj.dcm_encountered
    if case in ("negative_il_at_boundary", "clamp_only_boundary", "clamp_only_full"):
        assert traj.il.min() < 0.0


def _averaged_run(p, d, cfg, n_samples):
    """The averaged model stepped on the switched run's grid."""
    avg = averaged_model(mode_on_model(p), mode_off_model(p), d)
    dt = 1.0 / (p.fs * cfg.steps_per_period)
    ((f11, f12), (f21, f22)), (g1, g2) = zoh(
        avg.a, (avg.b[0] * p.vg, avg.b[1] * p.vg), dt
    )
    states = [tuple(map(float, cfg.initial_state))]
    for _ in range(n_samples - 1):
        il, vc = states[-1]
        states.append((f11 * il + f12 * vc + g1, f21 * il + f22 * vc + g2))
    return np.array([s[0] for s in states]), np.array([s[1] for s in states])


@pytest.mark.parametrize("case", [
    "duty0.123456_spp37", "dcm_from_0_20", "dcm_from_1_5", "negative_il_at_boundary",
])
def test_compare_to_averaged_matches_cycle_means_reference(nominal_params, case):
    vg, d, spp, initial = OPEN_LOOP_CASES[case]
    p = dataclasses.replace(nominal_params, vg=vg)
    cfg = SimConfig(t_end=0.002, steps_per_period=spp, initial_state=initial)
    cmp = compare_to_averaged(p, d, cfg)
    traj = simulate_open_loop(p, d, cfg)
    a_il, a_vc = _averaged_run(p, d, cfg, len(traj.times))
    sw = cycle_means_reference(traj.il, traj.vc, traj.duty_cmd, spp)
    av = cycle_means_reference(a_il, a_vc, traj.duty_cmd, spp)
    lo = (len(sw) - 1) * spp
    last_il = traj.il[lo : lo + spp + 1]
    last_vc = traj.vc[lo : lo + spp + 1]
    assert _bits(
        cmp.max_il_avg_deviation, cmp.max_vc_avg_deviation,
        cmp.final_switched_il_avg, cmp.final_switched_vc_avg,
        cmp.final_averaged_il_avg, cmp.final_averaged_vc_avg,
        cmp.il_ripple_pkpk, cmp.vc_ripple_pkpk,
    ) == _bits(
        max(abs(s[0] - a[0]) for s, a in zip(sw, av)),
        max(abs(s[1] - a[1]) for s, a in zip(sw, av)),
        sw[-1][0], sw[-1][1], av[-1][0], av[-1][1],
        float(last_il.max() - last_il.min()), float(last_vc.max() - last_vc.min()),
    )
    assert cmp.dcm_encountered is traj.dcm_encountered


def _random_trajectory(spp, n_samples, fs, seed):
    rng = np.random.default_rng(seed)
    dt = 1.0 / (fs * spp)
    return SwitchedTrajectory(
        times=np.arange(n_samples) * dt,
        il=2.0 + rng.standard_normal(n_samples),
        vc=15.0 + 0.1 * rng.standard_normal(n_samples),
        duty_cmd=rng.random(n_samples),
        switch_state=np.zeros(n_samples, dtype=bool),
    )


def _bits(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


# (steps per period, full periods, extra samples past the last full period);
# 8 and 128 sit on numpy's pairwise-summation block edges
CYCLE_CASES = [
    (40, 1, 0),
    (129, 5, 0),
    (128, 7, 60),
    (4, 300, 2),
    (8, 3, 0),
    (129, 130, 17),
    (200, 12, 0),
]


@pytest.mark.parametrize("spp,periods,extra", CYCLE_CASES)
def test_cycle_means_match_per_period_loop(nominal_params, spp, periods, extra):
    p = nominal_params
    traj = _random_trajectory(spp, periods * spp + 1 + extra, p.fs, seed=spp + periods)
    ref = cycle_means_reference(traj.il, traj.vc, traj.duty_cmd, spp)
    columns = cycle_average(traj, p.fs)
    assert [len(col) for col in columns] == [periods] * 3
    assert len(ref) == periods
    for cyc, want in zip(zip(*(col.tolist() for col in columns)), ref):
        assert _bits(*cyc) == _bits(*want)

    report = regulation_report(traj, p)
    trailing = ref[-min(10, len(ref)):]
    lo = (len(ref) - 1) * spp
    last_vc = traj.vc[lo : lo + spp + 1]
    assert _bits(
        report.final_il_mean, report.final_vc_mean, report.vc_ripple_pkpk,
        report.duty_final, report.deviation_pct,
    ) == _bits(
        ref[-1][0], ref[-1][1], float(last_vc.max() - last_vc.min()),
        sum(t[2] for t in trailing) / len(trailing),
        abs(ref[-1][1] - p.vo_target) / p.vo_target * 100.0,
    )
