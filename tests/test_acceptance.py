"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure). Expected values come from independent oracles: exact
closed-form algebra, dense-sweep frequency analysis, and second-order
step formulas, never from the code paths under test.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest

from buckforge import (
    LoopConfig,
    PIGains,
    SimConfig,
    close_unity_loop,
    compensated_loop,
    cycle_average,
    derive_plant,
    design_report,
    evaluate,
    pwm_equivalent_gains,
    regulation_report,
    simulate_closed_loop,
    simulate_open_loop,
    solve_duty,
    stability_margins,
    step_metrics,
    step_response,
    tune_kp_for_pm,
)
from buckforge.lti import dc_gain

from oracles import second_order_overshoot_pct, second_order_step, sweep_margins


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def test_criterion_1_model_derivation(nominal_params):
    with criterion("1. model derivation reproduces the reference numbers"):
        p = nominal_params
        derivation = derive_plant(p)
        a = derivation.mode_on.a

        printed = ((-800.0, -4000.0), (33.333, -3.333))
        for row, want_row in zip(a, printed):
            for got, want in zip(row, want_row):
                assert got == pytest.approx(want, rel=1e-3)
        # first-principles identities at 1e-12
        assert a[0][0] * p.l == pytest.approx(-p.r_l, rel=1e-12)
        assert a[0][1] * p.l == pytest.approx(-1.0, rel=1e-12)
        assert a[1][0] * p.c == pytest.approx(1.0, rel=1e-12)
        assert a[1][1] * p.r_load * p.c == pytest.approx(-1.0, rel=1e-12)

        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        assert det == pytest.approx(135_998.4, rel=1e-3)

        assert derivation.small_signal.b_d == (120_000.0, 0.0)

        op = derivation.operating_point
        assert op.duty == pytest.approx(0.51, abs=0.005)
        assert 1.49 <= op.il <= 1.53
        assert op.vc == pytest.approx(15.00, abs=0.01)

        tf = derivation.plant
        assert tf.num[0] == pytest.approx(3_999_960.0, rel=1e-3)
        assert tf.den[0] == pytest.approx(1.0, rel=1e-3)
        assert tf.den[1] == pytest.approx(803.333, rel=1e-3)
        assert tf.den[2] == pytest.approx(135_998.4, rel=1e-3)


def test_criterion_2_uncompensated_step(nominal_plant):
    with criterion("2. uncompensated unity-feedback step metrics"):
        closed = close_unity_loop(nominal_plant)
        traj = step_response(closed, 0.05, 20001)
        m = step_metrics(traj, 1.0)

        # second-order closed forms, computed independently of the simulator
        wn = math.sqrt(closed.den[2])
        zeta = closed.den[1] / (2.0 * wn)
        os_analytic = second_order_overshoot_pct(zeta)

        assert m.final_value == pytest.approx(0.9671, abs=1e-3)
        assert 0.006 <= m.settling_time <= 0.012
        assert m.max_overshoot_pct == pytest.approx(53.2, abs=1.0)
        assert m.max_overshoot_pct == pytest.approx(os_analytic, abs=0.25)


def test_criterion_3_high_gain_margin_case(nominal_plant, nominal_params):
    with criterion("3. kp=10, ki=1 margin case study"):
        loop = compensated_loop(nominal_plant, PIGains(10.0, 1.0), LoopConfig(), nominal_params)
        report = stability_margins(loop)
        assert 6.0 <= report.phase_margin_deg <= 12.0

        # the published gain margin (0.0428 dB) does not reproduce: the
        # oracle finds no -180 deg crossing, so the margin is infinite;
        # the implementation must agree with the oracle
        oracle = sweep_margins(loop.num, loop.den)
        assert oracle["phase_crossover"] is None
        assert report.phase_crossover is None
        assert math.isinf(report.gain_margin_db)
        assert report.stable_loop

        # the design report must print published and computed side by side
        doc = design_report(nominal_plant, PIGains(10.0, 1.0), LoopConfig(), nominal_params)
        ref = doc["reference_comparison"]
        assert ref["published"]["gain_margin_db"] == 0.0428
        assert ref["published"]["phase_margin_deg"] == 10.0
        assert math.isinf(ref["computed_gain_margin_db"])
        assert ref["computed_phase_margin_deg"] == report.phase_margin_deg


def test_criterion_4_low_gain_margin_case(nominal_plant, nominal_params):
    with criterion("4. kp=0.23, ki=1 margin agrees with the sweep oracle"):
        loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
        report = stability_margins(loop)
        oracle = sweep_margins(loop.num, loop.den)
        assert report.phase_margin_deg == pytest.approx(
            oracle["phase_margin_deg"], abs=0.1
        )
        # the published ">= 75 deg" does not reproduce and must be flagged
        assert report.phase_margin_deg < 60.0
        doc = design_report(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
        ref = doc["reference_comparison"]
        assert not ref["matches_published_claim"]
        assert ref["phase_margin_delta_deg"] < -20.0
        assert "do not reproduce" in ref["note"]


def test_criterion_5_integral_action_dc_gain(nominal_plant, nominal_params):
    with criterion("5. closed-loop DC gain is exactly 1 for any ki > 0"):
        for gains in (
            PIGains(0.23, 1.0),
            PIGains(10.0, 1.0),
            PIGains(0.0, 0.5),
            PIGains(3.0, 40.0),
        ):
            closed = close_unity_loop(
                compensated_loop(nominal_plant, gains, LoopConfig(), nominal_params)
            )
            assert closed.num[-1] == closed.den[-1]
            assert dc_gain(closed) == 1.0


def test_criterion_6_tuning_round_trip(nominal_plant, nominal_params):
    with criterion("6. tuning round-trip recovers kp within 5%"):
        for kp_star in (0.1, 0.23, 1.0, 10.0):
            achieved = stability_margins(
                compensated_loop(
                    nominal_plant, PIGains(kp_star, 1.0), LoopConfig(), nominal_params
                )
            ).phase_margin_deg
            result = tune_kp_for_pm(nominal_plant, 1.0, achieved, LoopConfig(), nominal_params)
            assert result.gains.kp == pytest.approx(kp_star, rel=0.05)


def test_criterion_7_switched_averaged_equivalence(nominal_params):
    with criterion("7. open-loop PWM matches the averaged equilibrium"):
        p = nominal_params
        op = solve_duty(p)
        traj = simulate_open_loop(p, op.duty, SimConfig(t_end=0.06))
        il_avg, vc_avg, _ = cycle_average(traj, p.fs)
        assert il_avg[-1] == pytest.approx(op.il, rel=0.02)
        assert vc_avg[-1] == pytest.approx(op.vc, rel=0.005)

        spp = 200
        dil = traj.il[-1] - traj.il[-spp - 1]
        assert abs(p.l * dil * p.fs) < 1e-3 * p.vg


def test_criterion_8_closed_loop_regulation(nominal_params):
    p30 = nominal_params
    gains = pwm_equivalent_gains(PIGains(0.23, 1.0), p30)
    op30 = solve_duty(p30)

    with criterion("8a. PWM loop holds 15 V within 2% for vg in {30,60,120,500}"):
        for vg in (30.0, 60.0, 120.0, 500.0):
            p = dataclasses.replace(p30, vg=vg)
            op = solve_duty(p)
            cfg = SimConfig(
                t_end=0.02,
                gains=gains,
                initial_state=(op.il, op.vc),
                integrator_init=op.duty * p.vs,
            )
            report = regulation_report(simulate_closed_loop(p, cfg), p)
            assert report.passed, f"vg={vg}: {report}"
            assert report.final_vc_mean == pytest.approx(15.0, rel=0.02)

    with criterion("8b. regulation recovers from a cold start at vg=30"):
        cfg = SimConfig(t_end=0.7, gains=gains, steps_per_period=50)
        report = regulation_report(simulate_closed_loop(p30, cfg), p30)
        assert report.passed
        assert report.duty_final == pytest.approx(op30.duty, abs=0.02)

    with criterion("8c. regulation survives an input step 30 V -> 500 V"):
        p500 = dataclasses.replace(p30, vg=500.0)
        cfg = SimConfig(
            t_end=0.7,
            gains=gains,
            steps_per_period=50,
            initial_state=(op30.il, op30.vc),
            integrator_init=op30.duty * p30.vs,
        )
        report = regulation_report(simulate_closed_loop(p500, cfg), p500)
        assert report.passed
        # loss-aware conversion ratio predicts the steady duty
        expect_duty = p500.vo_target * (p500.r_load + p500.r_l) / (
            p500.vg * p500.r_load
        )
        assert report.duty_final == pytest.approx(expect_duty, abs=0.005)

    with criterion("8d. vg=10 reports regulation failure with duty pinned at 1"):
        p10 = dataclasses.replace(p30, vg=10.0)
        cfg = SimConfig(t_end=0.02, gains=gains)
        report = regulation_report(simulate_closed_loop(p10, cfg), p10)
        assert not report.passed
        assert report.duty_final == 1.0
        assert report.duty_saturated


def test_criterion_9_numerical_properties(nominal_params, nominal_plant):
    from buckforge import TransferFunction

    with criterion("9a. step simulator matches first/second-order closed forms"):
        first = TransferFunction((1.0,), (1.0, 1.0))
        traj = step_response(first, 5.0, 5001)
        assert np.abs(traj.values - (1.0 - np.exp(-traj.times))).max() < 1e-9

        closed = close_unity_loop(nominal_plant)
        wn = math.sqrt(closed.den[2])
        zeta = closed.den[1] / (2.0 * wn)
        traj = step_response(closed, 0.05, 20001)
        expect = second_order_step(traj.times, dc_gain(closed), wn, zeta)
        assert np.abs(traj.values - expect).max() / np.abs(expect).max() < 1e-9
        m = step_metrics(traj, 1.0)
        assert m.max_overshoot_pct == pytest.approx(
            second_order_overshoot_pct(zeta), rel=0.005
        )

    with criterion("9b. |L| = 1 at the reported gain crossover within 1e-8"):
        for kp in (0.23, 10.0):
            loop = compensated_loop(nominal_plant, PIGains(kp, 1.0), LoopConfig(), nominal_params)
            report = stability_margins(loop)
            assert abs(abs(evaluate(loop, report.gain_crossover)) - 1.0) < 1e-8

    with criterion("9c. doubling steps_per_period changes trajectories < 1e-6"):
        coarse = simulate_open_loop(
            nominal_params, 0.51, SimConfig(t_end=0.004, steps_per_period=100)
        )
        fine = simulate_open_loop(
            nominal_params, 0.51, SimConfig(t_end=0.004, steps_per_period=200)
        )
        scale = np.abs(fine.vc[::2]).max()
        assert np.abs(coarse.vc - fine.vc[::2]).max() < 1e-6 * scale

    with criterion("9d. reruns are bit-identical"):
        gains = pwm_equivalent_gains(PIGains(0.23, 1.0), nominal_params)
        cfg = SimConfig(t_end=0.005, gains=gains)
        a = simulate_closed_loop(nominal_params, cfg)
        b = simulate_closed_loop(nominal_params, cfg)
        assert np.array_equal(a.il, b.il)
        assert np.array_equal(a.vc, b.vc)
        assert np.array_equal(a.duty_cmd, b.duty_cmd)
        assert np.array_equal(a.switch_state, b.switch_state)
