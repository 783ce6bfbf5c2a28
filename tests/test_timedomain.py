import dataclasses
import math
import sys

import numpy as np
import pytest

from buckforge import (
    NotSettledError,
    Trajectory,
    TransferFunction,
    close_unity_loop,
    mode_on_model,
    step_metrics,
    step_response,
)
from buckforge import timedomain
from buckforge.lti import MAX_SAMPLES, dc_gain
from buckforge.timedomain import zoh

from oracles import (
    refined_peak_time,
    second_order_overshoot_pct,
    second_order_peak_time,
    second_order_step,
    zoh_2x2_cayley_hamilton,
)

FIRST_ORDER = TransferFunction((1.0,), (1.0, 1.0))


@pytest.mark.parametrize("a", [-800.0, -3.5, 2.0])
@pytest.mark.parametrize("dt", [1.0 / 12e6, 1e-3, 0.25])
def test_zoh_scalar_closed_form(a, dt):
    b = 7.0
    phi, gamma = zoh([[a]], [b], dt)
    assert phi[0][0] == pytest.approx(math.exp(a * dt), rel=1e-14)
    assert gamma[0] == pytest.approx(b * math.expm1(a * dt) / a, rel=1e-14)
    assert type(phi[0][0]) is float and type(gamma[0]) is float


@pytest.mark.parametrize("dt", [1e-3, 4e-3, 1e-2])
def test_zoh_nominal_2x2_against_cayley_hamilton(nominal_params, dt):
    on = mode_on_model(nominal_params)
    b = (on.b[0] * nominal_params.vg, on.b[1] * nominal_params.vg)
    phi, gamma = zoh(on.a, b, dt)
    phi_ch, gamma_ch = zoh_2x2_cayley_hamilton(on.a, b, dt)
    np.testing.assert_allclose(phi, phi_ch, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(gamma, gamma_ch, rtol=1e-13, atol=0.0)


def test_zoh_overflow_is_refused(nominal_params):
    # every mode-model entry is finite, but expm's squaring overflows
    p = dataclasses.replace(nominal_params, vg=1e300)
    on = mode_on_model(p)
    with pytest.raises(ValueError, match="zero-order-hold map over dt="):
        zoh(on.a, (on.b[0] * p.vg, 0.0), 1.0 / (p.fs * 20))


def test_first_order_matches_analytic():
    traj = step_response(FIRST_ORDER, 5.0, 5001)
    expect = 1.0 - np.exp(-traj.times)
    assert np.abs(traj.values - expect).max() < 1e-9


def test_first_order_metrics():
    traj = step_response(FIRST_ORDER, 24.0, 96001)
    m = step_metrics(traj, 1.0)
    assert m.max_overshoot_pct == 0.0
    assert m.rise_time == pytest.approx(math.log(9.0), abs=1e-5)
    assert m.delay_time == pytest.approx(math.log(2.0), abs=1e-5)
    assert m.settling_time == pytest.approx(-math.log(0.05), abs=1e-4)
    assert m.final_value == pytest.approx(1.0, rel=1e-9)


def test_constant_gain_flat():
    one = TransferFunction((1.0,), (1.0,))
    traj = step_response(one, 1.0, 11)
    assert (traj.values == 1.0).all()
    m = step_metrics(traj, 1.0)
    assert m.delay_time == 0.0
    assert m.rise_time == 0.0
    assert m.settling_time == 0.0
    assert m.max_overshoot_pct == 0.0
    assert m.steady_state_error == 0.0


def test_unity_feedback_closed_loop(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    traj = step_response(closed, 0.05, 20001)
    m = step_metrics(traj, 1.0)
    assert m.final_value == pytest.approx(dc_gain(closed), rel=1e-6)
    # independent second-order closed forms
    wn = math.sqrt(closed.den[2])
    zeta = closed.den[1] / (2.0 * wn)
    assert m.max_overshoot_pct == pytest.approx(
        second_order_overshoot_pct(zeta), abs=0.2
    )
    expect = second_order_step(traj.times, dc_gain(closed), wn, zeta)
    assert np.abs(traj.values - expect).max() < 1e-9 * np.abs(expect).max()


def test_metrics_ordering(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    traj = step_response(closed, 0.05, 20001)
    m = step_metrics(traj, 1.0)
    t90 = m.delay_time + m.rise_time  # upper bound check only
    assert m.delay_time < t90
    peak_time = traj.times[int(np.argmax(traj.values))]
    assert m.max_overshoot_pct > 5.0
    assert m.settling_time >= peak_time


def test_doubling_samples_is_noise_level(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    coarse = step_response(closed, 0.05, 1001)
    fine = step_response(closed, 0.05, 2001)
    shared = fine.values[::2]
    scale = np.abs(shared).max()
    assert np.abs(coarse.values - shared).max() < 1e-9 * scale


def test_random_second_order_metrics():
    rng = np.random.default_rng(11)
    for _ in range(500):
        zeta = float(rng.uniform(0.1, 0.88))
        wn = float(10.0 ** rng.uniform(0.0, 2.0))
        gain = float(rng.uniform(0.5, 2.0))
        tf = TransferFunction(
            (gain * wn * wn,), (1.0, 2.0 * zeta * wn, wn * wn)
        )
        t_end = 12.0 / (zeta * wn)
        traj = step_response(tf, t_end, 10001)
        m = step_metrics(traj, gain)
        expect_os = second_order_overshoot_pct(zeta)
        assert m.max_overshoot_pct == pytest.approx(expect_os, rel=5e-3)
        expect_tp = second_order_peak_time(wn, zeta)
        got_tp = refined_peak_time(traj.times, traj.values)
        assert got_tp == pytest.approx(expect_tp, rel=5e-3)


def test_not_settled_rejected(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    traj = step_response(closed, 0.002, 2001)
    with pytest.raises(NotSettledError):
        step_metrics(traj, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_metrics_refuse_a_non_finite_response(bad):
    # an inf sample once gave a final value of inf and a settling time of 0.0
    # (and three RuntimeWarnings); a nan one, "never reaches level nan"
    values = np.ones(21)
    values[7:] = bad
    traj = Trajectory(np.linspace(0.0, 2.0, 21), values)
    with pytest.raises(ValueError, match=r"leaves the float range at t=0\.7000000000000001 s"):
        step_metrics(traj, 1.0)


def test_metrics_refuse_a_finite_tail_whose_mean_overflows():
    # its mean once overflowed to -inf, read as a settled final value
    values = np.linspace(0.0, 1.0, 20)
    values[-2:] = -1.7e308
    traj = Trajectory(np.linspace(0.0, 2.0, 20), values)
    with pytest.raises(ValueError, match=r"trailing mean -inf or spread 0\.0 leaves the float"):
        step_metrics(traj, 1.0)


def test_metrics_refuse_a_response_whose_distance_from_its_final_value_overflows():
    # a settled, finite response once gave nan delay, rise and settling
    # times, with ten RuntimeWarnings
    values = np.full(20, 5e307)
    values[0] = -1.7e308
    traj = Trajectory(np.linspace(0.0, 2.0, 20), values)
    with pytest.raises(ValueError, match=r"spans -1\.7e\+308 to 5e\+307, a distance beyond"):
        step_metrics(traj, 1.0)


def test_metrics_refuse_an_overshoot_whose_percentage_overflows():
    # a settled, finite response once gave max_overshoot_pct = inf
    values = np.ones(40)
    values[0] = 0.0
    values[5] = 1.7e308
    traj = Trajectory(np.linspace(0.0, 1.0, 40), values)
    with pytest.raises(
        ValueError, match=r"overshoot 1\.7e\+308 over its final value 1\.0 is beyond"
    ):
        step_metrics(traj, 1.0)


def test_metrics_of_a_response_that_never_reaches_half_its_final_value():
    # (-5s - 1)/(s + 1) starts at -5 and settles at -1, from below
    traj = step_response(TransferFunction((-5.0, -1.0), (1.0, 1.0)), 10.0, 2001)
    assert traj.values[0] == -5.0
    with pytest.raises(NotSettledError, match="never reaches level"):
        step_metrics(traj, 1.0)


def test_unstable_flagged():
    # an unstable loop is simulated as it is: its response keeps growing
    tf = TransferFunction((1.0,), (1.0, -1.0))
    traj = step_response(tf, 2.0, 101)
    assert traj.values[-1] > traj.values[len(traj.values) // 2]


def test_input_validation(nominal_plant):
    improper = TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        step_response(improper, 1.0, 100)
    quartic = TransferFunction((1.0,), (1.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        step_response(quartic, 1.0, 100)
    with pytest.raises(ValueError):
        step_response(nominal_plant, 0.0, 100)
    with pytest.raises(ValueError):
        step_response(nominal_plant, 1.0, 9)
    with pytest.raises(ValueError, match="samples .* budget"):
        step_response(nominal_plant, 1.0, MAX_SAMPLES + 1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            step_response(nominal_plant, bad, 100)
    tiny = sys.float_info.min
    for t_end in (5e-324, math.nextafter(9 * tiny, 0.0)):
        with pytest.raises(ValueError, match=r"t_end .* over samples 10 spaces"):
            step_response(nominal_plant, t_end, 10)
    assert len(step_response(nominal_plant, 9 * tiny, 10).times) == 10


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.3]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.1]), np.array([1.0, 1.0, 1.0]))
    traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        traj.values[0] = 5.0


def test_trajectory_refuses_times_and_values_of_different_shapes():
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(np.array([0.0, 0.1, 0.2]), np.array([1.0, 2.0]))


@pytest.fixture
def computed(monkeypatch):
    """Empties the held response; lists the denominators computed afresh."""
    dens = []
    compute = timedomain._exact_step

    def counted(tf, *args):
        dens.append(tf.den)
        return compute(tf, *args)

    monkeypatch.setattr(timedomain, "_exact_step", counted)
    monkeypatch.setattr(timedomain, "_held", [None])
    return dens


def test_a_repeated_call_returns_the_held_response(computed, nominal_plant):
    held = step_response(close_unity_loop(nominal_plant), 0.05, 2001)
    # an equal loop built anew has the same bits
    assert step_response(close_unity_loop(nominal_plant), 0.05, 2001) is held
    assert len(computed) == 1
    timedomain._held[0] = None
    fresh = step_response(close_unity_loop(nominal_plant), 0.05, 2001)
    assert fresh is not held and len(computed) == 2
    assert fresh.times.tobytes() == held.times.tobytes()
    assert fresh.values.tobytes() == held.values.tobytes()
    assert not held.values.flags.writeable


def test_signed_zeros_do_not_share_a_response(computed):
    plus = TransferFunction((1.0,), (1.0, 0.0, 1.0))
    minus = TransferFunction((1.0,), (1.0, -0.0, 1.0))
    # float equality alone would take one for the other
    assert plus == minus
    step_response(plus, 1.0, 101)
    step_response(minus, 1.0, 101)
    assert [str(den) for den in computed] == ["(1.0, 0.0, 1.0)", "(1.0, -0.0, 1.0)"]


def test_a_refused_call_leaves_the_held_response(computed):
    traj = step_response(FIRST_ORDER, 5.0, 101)
    held = timedomain._held[0]
    with pytest.raises(ValueError, match="need at least 10 samples"):
        step_response(FIRST_ORDER, 5.0, 9)
    # a float sample count is refused as before, even with the same value
    with pytest.raises(TypeError):
        step_response(FIRST_ORDER, 5.0, 101.0)
    assert timedomain._held[0] is held
    assert step_response(FIRST_ORDER, 5.0, 101) is traj and len(computed) == 1


def test_a_failed_computation_is_not_held(computed):
    step_response(FIRST_ORDER, 5.0, 101)
    overflowing = TransferFunction((1.0,), (1.0, -1e300))
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            step_response(overflowing, 1.0, 11)
    assert timedomain._held[0] is None and len(computed) == 3


def test_one_response_is_held(computed):
    first = step_response(FIRST_ORDER, 5.0, 101)
    second = step_response(FIRST_ORDER, 5.0, 102)
    assert len(timedomain._held) == 1 and timedomain._held[0][1] is second
    assert step_response(FIRST_ORDER, 5.0, 101) is not first
    assert len(computed) == 3
