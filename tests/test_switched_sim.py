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
    cycle_average,
    mode_off_model,
    mode_on_model,
    pwm_equivalent_gains,
    regulation_report,
    simulate_closed_loop,
    simulate_open_loop,
    solve_duty,
    switched_sim,
)
from buckforge.lti import MAX_SAMPLES
from buckforge.switched_sim import IDLE_CHUNK, OFF_RUN_MIN, _periods
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
    for bad in (50.0, True, "50", None, np.float64(50.0)):
        with pytest.raises(ValueError, match="steps_per_period must be an integer"):
            SimConfig(t_end=0.01, steps_per_period=bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("initial_state", (math.nan, 0.0)),
        ("initial_state", (0.0, math.inf)),
        ("integrator_init", math.nan),
        ("integrator_init", -math.inf),
        # not a state (il, vc): the kernel would index past it, or drop a value
        ("initial_state", (1.0,)),
        ("initial_state", (1.0, 2.0, 3.0)),
    ],
)
def test_sim_config_refuses_a_start_that_is_not_a_finite_state(field, value):
    # a non-finite start never settles, yet the run would still give a verdict
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SimConfig(t_end=0.01, **{field: value})


@pytest.mark.parametrize("spp", [np.int64(50), np.int32(37)])
def test_sim_config_accepts_numpy_integer_steps(nominal_params, spp):
    cfg = SimConfig(t_end=0.002, steps_per_period=spp, gains=PIGains(17.25, 75.0))
    n = _periods(nominal_params, cfg) * int(spp) + 1
    assert len(simulate_closed_loop(nominal_params, cfg).times) == n


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
    il_avg, vc_avg, duty = cycle_average(traj)
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
    with pytest.raises(ValueError, match=r"vs\*vo_target/vref = 75.0 .* kp must be finite"):
        pwm_equivalent_gains(PIGains(1e307, 1.0), nominal_params)


def _manual_trajectory(values, spp=40, fs=1000.0):
    n = len(values)
    dt = 1.0 / (fs * spp)
    return SwitchedTrajectory(
        times=np.arange(n) * dt,
        il=np.asarray(values, dtype=float),
        vc=np.asarray(values, dtype=float),
        duty_cmd=np.full(n, 0.5),
        switch_state=np.zeros(n, dtype=bool),
        steps_per_period=spp,
    )


def test_cycle_average_constant():
    traj = _manual_trajectory([3.0] * 81)
    il_avg, vc_avg, duty = cycle_average(traj)
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
    il_avg, _, _ = cycle_average(traj)
    for mean in il_avg:
        assert mean == pytest.approx(7.0, abs=0.05)


def _arrays(n):
    return dict(
        times=np.arange(n) * 1e-6,
        il=np.ones(n),
        vc=np.ones(n),
        duty_cmd=np.full(n, 0.5),
        switch_state=np.zeros(n, dtype=bool),
    )


@pytest.mark.parametrize("spp", [0, -1, True, 2.5])
def test_trajectory_refuses_a_bad_steps_per_period(spp):
    with pytest.raises(ValueError, match="steps_per_period must be an integer of at least 1"):
        SwitchedTrajectory(**_arrays(81), steps_per_period=spp)


@pytest.mark.parametrize("name", ["times", "il", "vc", "duty_cmd", "switch_state"])
def test_trajectory_refuses_arrays_of_unequal_length(name):
    arrays = _arrays(81)
    arrays[name] = arrays[name][:-1]
    with pytest.raises(ValueError, match="differ in length"):
        SwitchedTrajectory(**arrays, steps_per_period=40)


@pytest.mark.parametrize("n", [1, 30, 40])
def test_trajectory_refuses_less_than_one_period(n):
    with pytest.raises(ValueError, match=f"{n} samples are less than one period of 40"):
        SwitchedTrajectory(**_arrays(n), steps_per_period=40)
    # one whole period is enough
    il_avg, _, _ = cycle_average(SwitchedTrajectory(**_arrays(41), steps_per_period=40))
    assert il_avg.tolist() == [1.0]


def test_simulators_record_their_period_grid(nominal_params):
    p = nominal_params
    for spp in (20, 37):
        cfg = SimConfig(t_end=0.001, steps_per_period=spp, gains=PIGains(17.25, 75.0))
        for traj in (simulate_open_loop(p, 0.5, cfg), simulate_closed_loop(p, cfg)):
            assert traj.steps_per_period == spp
            assert len(traj.times) == 60 * spp + 1


def test_regulation_report_reads_the_recorded_period_not_fs(nominal_params):
    # the 60 kHz run read at 59 kHz: a grid inferred from fs and the time
    # step gave 203-substep "cycles" here, vc 15.0002054 V against 15.0002049 V
    p = nominal_params
    op = solve_duty(p)
    gains = pwm_equivalent_gains(PIGains(0.23, 1.0), p)
    cfg = SimConfig(
        t_end=0.02, gains=gains, initial_state=(op.il, op.vc),
        integrator_init=op.duty * p.vs,
    )
    traj = simulate_closed_loop(p, cfg)
    report = regulation_report(traj, p)
    assert regulation_report(traj, dataclasses.replace(p, fs=59e3)) == report
    lo = len(traj.times) - 1 - 200
    last_vc = traj.vc[lo:]
    assert report.final_vc_mean == cycle_average(traj)[1][-1]
    assert report.vc_ripple_pkpk == last_vc.max() - last_vc.min()


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


def _line_sweep_case(p):
    """The line_sweep benchmark's settings at its 500 V, light-load corner."""
    p = dataclasses.replace(p, vg=500.0, r_load=p.r_load * 1.25)
    return p, _from_operating_point(p, t_end=0.002, steps_per_period=200)


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
    # 30 V operating point stepped down to 10 V: in 50 of its 120 periods the
    # first OFF substep would not leave il positive, so no OFF run is stepped
    "vg10_from_30v_spp200": lambda p: (
        dataclasses.replace(p, vg=10.0),
        _from_operating_point(p, t_end=0.002),
    ),
    # a divider of 0.1 instead of the nominal 2/15, set through vref
    "sensor_gain": lambda p: (
        dataclasses.replace(p, vref=1.5),
        _default_gains(p, t_end=0.003, integrator_init=3.0),
    ),
    "line_sweep_vg500_load125": _line_sweep_case,
    # the same stiff loop with OFF runs long enough for the kernel's OFF-run
    # pass, which the comparator and the frozen integrator both cut short
    "saturation_both_limits_spp200": lambda p: (
        dataclasses.replace(p, c=30e-6),
        SimConfig(
            t_end=0.005, gains=PIGains(500.0, 2000.0), steps_per_period=200,
            initial_state=(0.0, 20.0),
        ),
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
def test_closed_loop_matches_reference_loop(nominal_params, monkeypatch, case):
    p, cfg = KERNEL_CASES[case](nominal_params)
    calls = _count_idle_runs(monkeypatch)
    off_runs = _count_off_runs(monkeypatch)
    traj = simulate_closed_loop(p, cfg)
    _assert_same_run(traj, closed_loop_reference(p, cfg, zoh))
    _assert_whole_idle_runs(cfg, traj, calls)
    _assert_off_runs(cfg, traj, off_runs)
    if case == "dcm_vg500_spp50":
        assert traj.dcm_encountered
    if case == "reconduct_integrator_limit_0":
        assert traj.duty_cmd.max() == 0.0
        assert traj.il[1] > 0.0 and not traj.dcm_encountered
    if case.startswith("saturation_both_limits"):
        # whole periods OFF and whole periods ON
        duties = set((traj.duty_cmd * cfg.steps_per_period).round().astype(int).tolist())
        assert {0, cfg.steps_per_period} <= duties
        # and periods with two separate ON pulses: an ON substep after an OFF one
        q = traj.switch_state[:-1].reshape(-1, cfg.steps_per_period)
        pulses = q[:, 0] + np.count_nonzero(~q[:, :-1] & q[:, 1:], axis=1)
        assert pulses.max() >= 2


@pytest.mark.oracle_property
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    vg=st.floats(16.0, 500.0),
    r_load=st.floats(1.0, 100.0),
    kp=st.floats(0.01, 200.0),
    ki=st.floats(0.0, 5000.0),
    # about half the draws leave OFF runs long enough for the OFF-run pass
    spp=st.one_of(st.integers(20, 64), st.integers(65, 400)),
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


def _frozen_sums(p, traj):
    """e + e_next of every substep: the integrator is frozen at the bottom while < 0."""
    e = p.vref - (p.vref / p.vo_target) * traj.vc
    return e[:-1] + e[1:]


def _run_from_0_end(p, cfg, traj):
    """First substep that leaves the idle, frozen state, after a run from substep 0.

    An idle, frozen substep has the switch off, il == 0 before and after it
    and e + e_next < 0. The run commits whole periods, and the substep that
    ends it lies in the period right after them (the substep count when
    the run reaches the end of the window).
    """
    spp = cfg.steps_per_period
    n = traj.idle_run_substeps
    idle = ~traj.switch_state[:-1] & (traj.il[:-1] == 0.0) & (traj.il[1:] == 0.0)
    stay = idle & (_frozen_sums(p, traj) < 0.0)
    j = len(stay) if stay.all() else int(stay.argmin())
    assert n > 0 and n % spp == 0
    assert n <= j < n + spp or j == n == len(stay)
    return j


def _check_input_step_500(p, cfg, traj):
    substeps = len(traj.times) - 1
    assert traj.idle_run_substeps >= 0.9 * substeps
    assert traj.idle_run_substeps > 2 * IDLE_CHUNK


def _check_comparator_at_k0(p, cfg, traj):
    j = _run_from_0_end(p, cfg, traj)
    assert traj.idle_run_substeps > 2 * IDLE_CHUNK
    assert j % cfg.steps_per_period == 0 and traj.switch_state[j]
    assert not traj.switch_state[:j].any()


def _check_integrator_unfreezes(p, cfg, traj):
    j = _run_from_0_end(p, cfg, traj)
    sums = _frozen_sums(p, traj)
    assert sums[j - 1] < 0.0 <= sums[j]
    # still idle: only the integrator moved
    assert not traj.switch_state[j] and traj.il[j + 1] == 0.0


def _check_window_end(p, cfg, traj):
    substeps = len(traj.times) - 1
    assert _run_from_0_end(p, cfg, traj) == traj.idle_run_substeps == substeps


def _check_light_load_bursts(p, cfg, traj):
    spp = cfg.steps_per_period
    # the first period switches on, then idles on into the next periods
    assert traj.duty_cmd[0] > 0.0 and not traj.il[spp // 2 : 2 * spp].any()
    assert traj.idle_run_substeps > spp
    assert set(traj.duty_cmd[::spp].tolist()) == {0.0, 1.0 / spp}


def _check_runs(p, cfg, traj):
    assert _run_from_0_end(p, cfg, traj) < len(traj.times) - 1


def _check_negative_zero_il(p, cfg, traj):
    assert traj.idle_run_substeps > 0 and np.signbit(traj.il).all()


def _check_diode_conducts(p, cfg, traj):
    # nothing is committed: the diode conducts again from il == 0
    assert traj.idle_run_substeps == 0
    off_from_zero = (traj.il[:-1] == 0.0) & ~traj.switch_state[:-1]
    assert (off_from_zero & (traj.il[1:] > 0.0)).any()


def _check_no_run(p, cfg, traj):
    assert traj.idle_run_substeps == 0


def _idle_start(p, vc0, integrator_init, t_end, spp=20, il0=0.0, gains=None):
    return p, SimConfig(
        t_end=t_end, steps_per_period=spp, initial_state=(il0, vc0),
        integrator_init=integrator_init,
        gains=gains or pwm_equivalent_gains(PIGains(0.23, 1.0), p),
    )


# an idle run with the integrator frozen at the bottom of the window is
# stepped by the kernel's numpy fast-forward; each case ends one differently
IDLE_CASES = {
    # the input_step_500 benchmark input: one run from the period after the
    # first idle, frozen substep (k = 3) to the end of the window, 35 full
    # passes long
    "input_step_500": (
        lambda p: (
            dataclasses.replace(p, vg=500.0),
            _from_operating_point(p, t_end=0.05, steps_per_period=50),
        ),
        _check_input_step_500,
    ),
    # the nominal 30 V run from its operating point never idles
    "nominal_30v": (
        lambda p: (p, _from_operating_point(p, t_end=0.05, steps_per_period=50)),
        _check_no_run,
    ),
    # longer than two full chunks, until u reaches 0 at k = 0 and the
    # comparator fires there
    "comparator_at_k0": (
        lambda p: _idle_start(p, 20.0, 10.21, t_end=0.01),
        _check_comparator_at_k0,
    ),
    # u stays below 0 while vc decays through the target: the integrator
    # unfreezes in mid-period and the substep stays idle
    "integrator_unfreezes": (
        lambda p: _idle_start(p, 15.5, -5.0, t_end=0.02),
        _check_integrator_unfreezes,
    ),
    # started at substep 0 and cut by the end of the window in a short pass
    "window_end": (
        lambda p: _idle_start(p, 20.0, -1.0, t_end=0.005, spp=37),
        _check_window_end,
    ),
    # no integral action: the integrator is frozen whenever u < 0 and
    # vc is above the target
    "ki_0": (
        lambda p: _idle_start(p, 15.2, 0.0, t_end=0.006, gains=PIGains(17.25, 0.0)),
        _check_runs,
    ),
    # pulse skipping at light load and 500 V: the whole idle periods between
    # bursts are fast-forwarded
    "light_load_bursts": (
        lambda p: _idle_start(
            dataclasses.replace(p, vg=500.0, r_load=1e4), 15.0, 1e-6,
            t_end=0.002, spp=100, gains=PIGains(17.25, 75.0),
        ),
        _check_light_load_bursts,
    ),
    # a substep longer than half the LC ringing period makes f12 > 0, so
    # the diode conducts again from il == 0 with vc above the target
    "slow_switching_diode": (
        lambda p: _idle_start(
            dataclasses.replace(
                p, l=1e-4, c=1e-6, fs=500.0, r_load=200.0, vg=400.0
            ),
            15.03, -0.023, t_end=0.04, spp=33, il0=2.6, gains=PIGains(0.13, 258.0),
        ),
        _check_diode_conducts,
    ),
    # the same with an idle start (il == 0, u < 0): the diode conducts at
    # substep 0, so no run is handed over, although vc stays above the target
    # for three periods
    "diode_conducts_at_run_start": (
        lambda p: _idle_start(
            dataclasses.replace(
                p, l=1e-4, c=1e-6, fs=500.0, r_load=1e5, vg=400.0
            ),
            16.0, -0.023, t_end=0.04, spp=33, gains=PIGains(0.13, 258.0),
        ),
        _check_diode_conducts,
    ),
    # an inductor current of -0.0 passes through the run as -0.0
    "negative_zero_il": (
        lambda p: _idle_start(p, 20.0, -1.0, t_end=0.002, il0=-0.0),
        _check_negative_zero_il,
    ),
    # k_idle rounds to 1.0: vc never decays, and the run lasts the window
    "k_idle_1": (
        lambda p: _idle_start(
            dataclasses.replace(p, r_load=1e12), 20.0, -1.0, t_end=0.002
        ),
        _check_window_end,
    ),
    # k_idle underflows to 0.0: the first idle substep empties the capacitor,
    # and no run is handed over
    "k_idle_0": (
        lambda p: _idle_start(
            dataclasses.replace(p, r_load=1e-3, c=1e-6, fs=500.0), 20.0, -1.0,
            t_end=0.04,
        ),
        _check_no_run,
    ),
    # no proportional action: u is the frozen integrator, and the run ends
    # where e + e_next reaches 0
    "kp_0": (
        lambda p: _idle_start(p, 15.5, -5.0, t_end=0.02, gains=PIGains(0.0, 75.0)),
        _check_integrator_unfreezes,
    ),
    # integ/kp overflows to -inf: u < 0 cannot end the run, e + e_next >= 0 does
    "integ_over_kp_overflows": (
        lambda p: _idle_start(
            p, 15.5, -1e10, t_end=0.02, gains=PIGains(1e-320, 75.0)
        ),
        _check_integrator_unfreezes,
    ),
    # vref/vo_target = 1e308: H*(1 + k_idle) overflows, the frozen level reads
    # 0.0, and no run is handed over
    "frozen_level_0": (
        lambda p: _idle_start(
            dataclasses.replace(p, vo_target=1e-8, vref=1e300), 2e-8, -1.0,
            t_end=0.001, gains=PIGains(0.0, 1.0),
        ),
        _check_no_run,
    ),
    # the largest decades of vc: kp*e overflows to -inf, the run lasts the window
    "vc_1e308": (
        lambda p: _idle_start(p, 1e308, -1.0, t_end=0.002),
        _check_window_end,
    ),
}


@pytest.mark.parametrize("case", sorted(IDLE_CASES))
def test_idle_fast_forward_matches_reference_loop(nominal_params, monkeypatch, case):
    make, check = IDLE_CASES[case]
    p, cfg = make(nominal_params)
    calls = _count_idle_runs(monkeypatch)
    traj = simulate_closed_loop(p, cfg)
    _assert_same_run(traj, closed_loop_reference(p, cfg, zoh))
    _assert_whole_idle_runs(cfg, traj, calls)
    check(p, cfg, traj)


def _count_idle_runs(monkeypatch):
    """The substeps each _idle_run call commits, one entry per call."""
    run = switched_sim._idle_run
    calls = []

    def counted(*args):
        calls.append(run(*args))
        return calls[-1]

    monkeypatch.setattr(switched_sim, "_idle_run", counted)
    return calls


def _assert_whole_idle_runs(cfg, traj, calls):
    """Every hand-over commits at least one whole period, and the runs add up."""
    assert all(n >= cfg.steps_per_period for n in calls), calls
    assert sum(calls) == traj.idle_run_substeps


def _count_off_runs(monkeypatch):
    """(start, OFF run length, committed substeps) of each _off_run call."""
    run = switched_sim._off_run
    calls = []

    def counted(out_vc, start, thresholds, *args):
        m, integ = run(out_vc, start, thresholds, *args)
        calls.append((start, len(thresholds), m))
        return m, integ

    monkeypatch.setattr(switched_sim, "_off_run", counted)
    return calls


def _assert_off_runs(cfg, traj, calls):
    """At most one pass per period, each over a run of at least OFF_RUN_MIN
    substeps to the period's end, and the commits add up."""
    spp = cfg.steps_per_period
    periods = [start // spp for start, _, _ in calls]
    assert len(set(periods)) == len(periods)
    assert all(start % spp <= spp - OFF_RUN_MIN for start, _, _ in calls)
    assert all(0 <= m <= n <= spp - start % spp for start, n, m in calls)
    assert sum(m for _, _, m in calls) == traj.off_run_substeps


def _off_run_ends(traj, calls):
    """How each pass ended: at the period's end, at a substep that would not
    leave il > 0, at a comparator re-arm or at a frozen integrator."""
    ends = []
    for start, n, m in calls:
        i = start + m
        if m == n:
            ends.append("period_end" if i % traj.steps_per_period == 0 else "il_not_positive")
        else:
            ends.append("rearm" if traj.switch_state[i] else "freeze")
    return ends


def test_off_run_pass_ends_every_way(nominal_params, monkeypatch):
    # line_sweep_vg500_load125 runs to the period's end and meets il <= 0;
    # saturation_both_limits_spp200 is cut by re-arms and freezes
    calls = _count_off_runs(monkeypatch)
    ends = []
    for case in sorted(KERNEL_CASES):
        p, cfg = KERNEL_CASES[case](nominal_params)
        calls.clear()
        traj = simulate_closed_loop(p, cfg)
        if cfg.steps_per_period < OFF_RUN_MIN:
            assert traj.off_run_substeps == 0
        ends += _off_run_ends(traj, calls)
    assert set(ends) == {"period_end", "il_not_positive", "rearm", "freeze"}


@pytest.mark.parametrize("duty_gains, spp", [
    ((0.5, 50.0), 50), ((0.5, 50.0), 200), ((0.23, 1.0), 50),
], ids=["stiff-spp50", "stiff-spp200", "default-spp50"])
def test_idle_limit_cycle_guard(nominal_params, monkeypatch, duty_gains, spp):
    # the 500 V step from the 30 V operating point: one long run, then, at
    # the stiffer gains, a limit cycle at the bottom of the window whose idle
    # stretches are shorter than a period; a period's decay takes vc below
    # the level that ends each of them, so none is handed over
    op = solve_duty(nominal_params)
    cfg = SimConfig(
        t_end=0.05, steps_per_period=spp, initial_state=(op.il, op.vc),
        integrator_init=op.duty * nominal_params.vs,
        gains=pwm_equivalent_gains(PIGains(*duty_gains), nominal_params),
    )
    calls = _count_idle_runs(monkeypatch)
    traj = simulate_closed_loop(dataclasses.replace(nominal_params, vg=500.0), cfg)
    assert len(calls) == 1
    assert calls[0] > 0.8 * (len(traj.times) - 1) and calls[0] == traj.idle_run_substeps


@pytest.mark.parametrize("case, runs", [
    # after its run, periods start with il == 0 and u < 0 while the
    # integrator moves; none of them is handed over
    ("integrator_unfreezes", 1),
    # il == 0 and u < 0 at substep 0, where the diode conducts
    ("diode_conducts_at_run_start", 0),
])
def test_idle_run_starts_only_from_an_idle_frozen_substep(
    nominal_params, monkeypatch, case, runs
):
    make, _ = IDLE_CASES[case]
    p, cfg = make(nominal_params)
    calls = _count_idle_runs(monkeypatch)
    traj = simulate_closed_loop(p, cfg)
    assert len(calls) == runs and all(calls)
    assert sum(calls) == traj.idle_run_substeps


@pytest.mark.oracle_property
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    vg=st.floats(16.0, 500.0),
    log10_r_load=st.floats(0.0, 4.0),
    log10_c=st.floats(-4.5, -1.5),
    log10_kp=st.floats(-2.0, 2.3),
    ki=st.floats(0.0, 5000.0),
    spp=st.integers(20, 64),
    log10_vc_above=st.floats(-6.0, 1.2),
    log10_windup=st.floats(-9.0, 1.0),
)
def test_idle_fast_forward_matches_reference_property(
    nominal_params, vg, log10_r_load, log10_c, log10_kp, ki, spp, log10_vc_above,
    log10_windup,
):
    # started above the target with the integrator below the window, so that
    # idle runs with a frozen integrator cross period boundaries; the
    # log-uniform draws end about half of the runs inside the 60 periods
    p = dataclasses.replace(
        nominal_params, vg=vg, r_load=10.0**log10_r_load, c=10.0**log10_c
    )
    cfg = SimConfig(
        t_end=60.0 / p.fs, gains=PIGains(10.0**log10_kp, ki), steps_per_period=spp,
        initial_state=(0.0, p.vo_target + 10.0**log10_vc_above),
        integrator_init=-(10.0**log10_windup),
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
    # at zero duty the averaged model has no clamp: this is where the
    # switched run departs from it
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
    # d*spp = 36.99999999996: a fraction within 1e-9 of a whole substep
    # rounds up to 37 ON substeps, with no boundary substep
    "duty_rounds_up_spp200": (30.0, 0.185 - 2e-13, 200, (0.0, 0.0)),
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
    if case == "duty_rounds_up_spp200":
        whole = simulate_open_loop(p, 37 / 200, cfg)
        assert traj.il.tobytes() == whole.il.tobytes()
        assert traj.vc.tobytes() == whole.vc.tobytes()


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


def _switched_and_averaged_means(p, d, cfg):
    """The switched run and the cycle means of it and of the averaged model."""
    traj = simulate_open_loop(p, d, cfg)
    a_il, a_vc = _averaged_run(p, d, cfg, len(traj.times))
    averaged = dataclasses.replace(traj, il=a_il, vc=a_vc)
    return traj, cycle_average(traj)[:2], cycle_average(averaged)[:2]


def test_open_loop_zero_duty_from_rest_equals_averaged_model(nominal_params):
    # the diode clamp from a charged state is OPEN_LOOP_CASES' dcm_from_1_5
    _, switched, averaged = _switched_and_averaged_means(
        nominal_params, 0.0, SimConfig(t_end=0.001)
    )
    for sw, av in zip(switched, averaged):
        assert sw.tobytes() == av.tobytes()


def test_open_loop_cycle_means_invariant_to_substeps(nominal_params):
    p = nominal_params
    op = solve_duty(p)
    coarse, fine = (
        _switched_and_averaged_means(
            p, op.duty, SimConfig(t_end=0.004, steps_per_period=spp)
        )[1:]
        for spp in (100, 200)
    )
    # il, then vc: the final switched and averaged cycle means, and the
    # largest gap between them over the run
    for (sw_a, av_a), (sw_b, av_b) in zip(zip(*coarse), zip(*fine)):
        assert sw_a[-1] == pytest.approx(sw_b[-1], rel=1e-6)
        assert av_a[-1] == pytest.approx(av_b[-1], rel=1e-6)
        gap_a, gap_b = np.abs(sw_a - av_a).max(), np.abs(sw_b - av_b).max()
        assert gap_a == pytest.approx(gap_b, rel=1e-6)


def test_open_loop_nominal_tracks_averaged_model(nominal_params):
    # acceptance criterion 7's run: 0.06 s at the operating-point duty
    p = nominal_params
    op = solve_duty(p)
    cfg = SimConfig(t_end=0.06)
    traj, (_, sw_vc), (_, av_vc) = _switched_and_averaged_means(p, op.duty, cfg)
    last_il = traj.il[-cfg.steps_per_period - 1 :]
    last_vc = traj.vc[-cfg.steps_per_period - 1 :]
    il_ripple = last_il.max() - last_il.min()
    vc_ripple = last_vc.max() - last_vc.min()
    # steady-state discrepancy below the ripple amplitude
    assert abs(sw_vc[-1] - av_vc[-1]) < vc_ripple
    # ripple levels: standard slope formula for il, tiny for vc
    assert il_ripple == pytest.approx((p.vg - op.vc) * op.duty / (p.l * p.fs), rel=0.05)
    assert vc_ripple < 0.005 * op.vc
    assert not traj.dcm_encountered


def _random_trajectory(spp, n_samples, fs, seed):
    rng = np.random.default_rng(seed)
    dt = 1.0 / (fs * spp)
    return SwitchedTrajectory(
        times=np.arange(n_samples) * dt,
        il=2.0 + rng.standard_normal(n_samples),
        vc=15.0 + 0.1 * rng.standard_normal(n_samples),
        duty_cmd=rng.random(n_samples),
        switch_state=np.zeros(n_samples, dtype=bool),
        steps_per_period=spp,
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
    columns = cycle_average(traj)
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
