import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from buckforge import (
    PIGains,
    TuningError,
    close_unity_loop,
    compensated_loop,
    derive_plant,
    design_report,
    evaluate,
    pi_design,
    pi_tf,
    stability_margins,
    tune_kp_for_pm,
)
from buckforge.lti import dc_gain
from buckforge.pi_design import PM_TOLERANCE_DEG

from oracles import tune_kp_for_pm_reference


def test_gain_validation():
    with pytest.raises(ValueError):
        PIGains(-0.1, 1.0)
    with pytest.raises(ValueError):
        PIGains(0.1, -1.0)
    with pytest.raises(ValueError):
        PIGains(0.0, 0.0)
    PIGains(0.0, 1.0)
    PIGains(1.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="kp must be finite"):
            PIGains(bad, 1.0)
        with pytest.raises(ValueError, match="ki must be finite"):
            PIGains(1.0, bad)


def test_pi_tf_forms():
    assert pi_tf(PIGains(0.23, 1.0)).num == (0.23, 1.0)
    assert pi_tf(PIGains(0.23, 1.0)).den == (1.0, 0.0)
    prop = pi_tf(PIGains(4.0, 0.0))
    assert prop.num == (4.0, 0.0)
    assert prop.den == (1.0, 0.0)
    integ = pi_tf(PIGains(0.0, 1.0))
    assert integ.num == (1.0,)
    assert integ.den == (1.0, 0.0)


def test_pi_magnitude_blows_up_at_dc():
    for ki in (0.5, 1.0, 3.0):
        tf = pi_tf(PIGains(0.23, ki))
        assert abs(evaluate(tf, 1e-6)) > 1e5 * ki


def test_compensated_loop_coefficients(nominal_plant):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    k = nominal_plant.num[0]
    assert loop.num == (0.23 * k, k)
    assert loop.den == (1.0, nominal_plant.den[1], nominal_plant.den[2], 0.0)


def test_unity_proportional_equals_plant(nominal_plant):
    loop = compensated_loop(nominal_plant, PIGains(1.0, 0.0))
    for omega in (1.0, 50.0, 368.0, 5e3, 1e5):
        zl = evaluate(loop, omega)
        zp = evaluate(nominal_plant, omega)
        assert abs(zl - zp) <= 1e-12 * abs(zp)


def test_modulator_gain_shifts_magnitude(nominal_plant, nominal_params):
    # the comparator's 1/vs is the bare loop at gains / vs
    g = PIGains(0.23, 1.0)
    base = compensated_loop(nominal_plant, g)
    scaled = compensated_loop(
        nominal_plant, PIGains(g.kp / nominal_params.vs, g.ki / nominal_params.vs)
    )
    for omega in (1.0, 100.0, 1e4):
        ratio = abs(evaluate(base, omega)) / abs(evaluate(scaled, omega))
        assert ratio == pytest.approx(nominal_params.vs, rel=1e-12)


def test_sensor_gain_scaling(nominal_plant, nominal_params):
    # the sensor's vref/vo_target is the bare loop at gains × H
    h = nominal_params.vref / nominal_params.vo_target
    scaled = compensated_loop(nominal_plant, PIGains(0.23 * h, 1.0 * h))
    base = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    assert abs(evaluate(scaled, 10.0)) == pytest.approx(
        h * abs(evaluate(base, 10.0)), rel=1e-12
    )


def _pwm_domain(gain, p):
    """The duty-domain gain that puts `gain` into the PWM loop, whose
    comparator divides by vs and whose sensor multiplies by vref/vo_target."""
    return gain * p.vref / (p.vo_target * p.vs)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scale=st.tuples(*[st.floats(0.5, 2.0)] * 6),
    kp=st.floats(0.01, 100.0),
    ki=st.floats(0.05, 20.0),
)
def test_pwm_loop_reading_is_the_bare_loop_at_rescaled_gains(nominal_params, scale, kp, ki):
    names = ("vg", "r_load", "l", "c", "vs", "vref")
    p = dataclasses.replace(
        nominal_params, **{n: getattr(nominal_params, n) * f for n, f in zip(names, scale)}
    )
    try:
        plant = derive_plant(p).plant
    except ValueError:
        assume(False)  # the scaled source cannot reach the target output
    got = design_report(plant, PIGains(kp, ki), p)["loop_variants"][
        "with_modulator_and_sensor_gains"
    ]
    rescaled = PIGains(_pwm_domain(kp, p), _pwm_domain(ki, p))
    want = stability_margins(compensated_loop(plant, rescaled))
    for name in ("gain_crossover", "phase_crossover"):
        if getattr(want, name) is None:
            assert got[name] is None
        else:
            assert got[name] == pytest.approx(getattr(want, name), rel=1e-9, abs=0.0)
    if want.phase_margin_deg is None:
        assert got["phase_margin_deg"] is None
    else:
        assert got["phase_margin_deg"] == pytest.approx(want.phase_margin_deg, abs=1e-9)
    assert got["stable_loop"] == want.stable_loop


def test_integral_action_kills_steady_state_error(nominal_plant):
    # symbolic constant-term check: closed-loop DC gain is exactly 1
    for gains in (PIGains(0.23, 1.0), PIGains(10.0, 1.0), PIGains(2.0, 17.0)):
        closed = close_unity_loop(compensated_loop(nominal_plant, gains))
        assert closed.num[-1] == closed.den[-1]
        assert dc_gain(closed) == 1.0


def test_margin_monotone_in_kp_above_case_study(nominal_plant):
    kps = np.logspace(math.log10(0.23), math.log10(10.0), 50)
    pms = []
    for kp in kps:
        loop = compensated_loop(nominal_plant, PIGains(float(kp), 1.0))
        report = stability_margins(loop)
        pms.append(report.phase_margin_deg)
    assert all(a > b for a, b in zip(pms, pms[1:]))


def test_tune_round_trip(nominal_plant):
    for kp_star in (0.1, 0.23, 1.0, 10.0):
        target = stability_margins(
            compensated_loop(nominal_plant, PIGains(kp_star, 1.0))
        ).phase_margin_deg
        result = tune_kp_for_pm(nominal_plant, 1.0, target)
        assert result.gains.kp == pytest.approx(kp_star, rel=0.05)
        tuned = stability_margins(compensated_loop(nominal_plant, result.gains))
        assert tuned.phase_margin_deg == pytest.approx(target, abs=0.05)


def test_tune_unreachable(nominal_plant):
    with pytest.raises(TuningError, match="observed margins"):
        tune_kp_for_pm(nominal_plant, 1.0, 179.9)


def test_tune_without_gain_crossover(nominal_plant):
    # |L| stays above 1 across the margin window for every kp on the grid
    with pytest.raises(TuningError) as info:
        tune_kp_for_pm(nominal_plant, 1e300, 50.0)
    assert "kp in [1e-06, 1000.0]" in str(info.value)
    assert "no kp gives a gain crossover" in str(info.value)
    trace = info.value.trace
    assert trace.pm_evals == 91
    assert set(trace.pm_grid) == {None}


def test_tune_validation(nominal_plant):
    with pytest.raises(ValueError):
        tune_kp_for_pm(nominal_plant, 1.0, 0.0)
    with pytest.raises(ValueError):
        tune_kp_for_pm(nominal_plant, 0.0, 50.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ki must be positive and finite"):
            tune_kp_for_pm(nominal_plant, bad, 50.0)


def test_tune_trace_records_the_search(nominal_plant):
    target = 50.0
    result = tune_kp_for_pm(nominal_plant, 1.0, target)
    trace = result.trace
    assert len(trace.kp_grid) == len(trace.pm_grid) == 91
    assert trace.kp_grid[0] == 1e-6 and trace.kp_grid[-1] == pytest.approx(1e3)
    for kp, pm in zip(trace.kp_grid[::15], trace.pm_grid[::15]):
        loop = compensated_loop(nominal_plant, PIGains(kp, 1.0))
        assert pm == stability_margins(loop).phase_margin_deg
    lo, hi = trace.bracket
    assert trace.kp_grid.index(lo) + 1 == trace.kp_grid.index(hi)
    assert lo <= result.gains.kp <= hi
    assert trace.bisection
    assert trace.pm_evals == 91 + len(trace.bisection)
    last_kp, last_pm = trace.bisection[-1]
    assert abs(last_pm - target) <= 0.05
    # kp is accepted on the margin the search computed, the full report's own
    assert last_kp == result.gains.kp
    tuned = stability_margins(compensated_loop(nominal_plant, result.gains))
    assert tuned.phase_margin_deg == last_pm


def test_tune_error_carries_trace(nominal_plant):
    with pytest.raises(TuningError) as info:
        tune_kp_for_pm(nominal_plant, 1.0, 179.9)
    trace = info.value.trace
    assert trace.bracket is None and trace.bisection == ()
    assert trace.pm_evals == len(trace.pm_grid) == 91
    assert max(pm for pm in trace.pm_grid if pm is not None) < 179.9


# modulator: ki is divided by vs, the PWM modulator's gain
@pytest.mark.parametrize("changes,target,modulator", [
    # the bracket's upper kp has no gain crossover; bisection ends at its edge
    ({"vg": 1e6}, 50.0, False),
    ({"l": 250.0, "c": 30000.0}, 75.0, True),
    # lossless plant: PM(kp) jumps from about 159 to -3 deg, skipping 50
    ({"r_l": 0.0}, 50.0, False),
])
def test_tune_refuses_a_kp_off_target(nominal_params, changes, target, modulator):
    p = dataclasses.replace(nominal_params, **changes)
    ki = 1.0 / p.vs if modulator else 1.0
    with pytest.raises(TuningError, match="not met") as info:
        tune_kp_for_pm(derive_plant(p).plant, ki, target)
    trace = info.value.trace
    assert trace.bracket is not None and trace.bisection
    assert trace.pm_evals == 91 + len(trace.bisection)
    # the message names the final bracket and the margin at each end, as
    # evaluated in the search, on opposite sides of the target
    message = str(info.value)
    ends = re.search(r"jumps from .* at kp (\S+) to .* at kp (\S+), across", message)
    a, b = float(ends[1]), float(ends[2])
    assert trace.bracket[0] <= a < b <= trace.bracket[1]
    evaluated = dict(zip(trace.kp_grid, trace.pm_grid)) | dict(trace.bisection)
    excess = []
    for kp in (a, b):
        pm = evaluated[kp]
        reached = "no gain crossover" if pm is None else f"{pm!r} deg"
        assert f"{reached} at kp {kp!r}" in message
        excess.append(math.inf if pm is None else pm - target)
    assert excess[0] * excess[1] < 0.0
    if changes == {"r_l": 0.0}:
        assert evaluated[a] > 150.0 and evaluated[b] < 0.0


def _tune_outcome(tune, plant, ki, target):
    """kp bits and margins of a tune, or the type and text of its error."""
    try:
        gains, margins = tune(plant, ki, target)
    except (TuningError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return gains.kp.hex(), gains.ki, margins


def _tuned_and_measured(plant, ki, target):
    """The package's tuned gains and the full margin report of their loop,
    whose phase margin must be the one the search accepted kp on."""
    result = tune_kp_for_pm(plant, ki, target)
    margins = stability_margins(compensated_loop(plant, result.gains))
    trace = result.trace
    if trace.bisection:
        kp, accepted = trace.bisection[-1]
        assert kp == result.gains.kp
    else:
        # an exact grid hit
        accepted = trace.pm_grid[trace.kp_grid.index(result.gains.kp)]
    assert accepted == margins.phase_margin_deg
    return result.gains, margins


def _assert_tune_matches_reference(plant, ki, target):
    def reference(*args):
        return tune_kp_for_pm_reference(pi_design, *args)

    got = _tune_outcome(_tuned_and_measured, plant, ki, target)
    want = _tune_outcome(reference, plant, ki, target)
    if len(want) == 3:
        pm = want[2].phase_margin_deg
        if pm is None or abs(pm - target) > PM_TOLERANCE_DEG:
            # the reference returns wherever its bisection ended; the
            # package refuses a kp that misses the target
            assert got[0] == "TuningError" and "not met" in got[1]
            return
    assert got == want


# full_loop: ki is put into the PWM loop (modulator and sensor gains)
@pytest.mark.parametrize("full_loop", [False, True])
@pytest.mark.parametrize(
    "ki,target", [(1.0, 50.0), (1.0, 75.0), (3.0, 30.0), (1.0, 179.9)]
)
def test_tune_matches_reference(nominal_plant, nominal_params, full_loop, ki, target):
    if full_loop:
        ki = _pwm_domain(ki, nominal_params)
    _assert_tune_matches_reference(nominal_plant, ki, target)


def test_tune_without_gain_crossover_matches_reference(nominal_plant):
    # no kp on the grid gives a gain crossover: both raise the same error
    def reference(*args):
        return tune_kp_for_pm_reference(pi_design, *args)

    want = _tune_outcome(reference, nominal_plant, 1e300, 50.0)
    assert want[0] == "TuningError" and "no kp gives a gain crossover" in want[1]
    assert _tune_outcome(_tuned_and_measured, nominal_plant, 1e300, 50.0) == want


# 30 examples under the default profile; the ci profile's long run gets 1500
@pytest.mark.oracle_property
@settings(
    max_examples=settings.default.max_examples * 3 // 10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scale=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    ki=st.floats(0.05, 20.0),
    target=st.floats(5.0, 120.0),
    full_loop=st.booleans(),
)
def test_tune_matches_reference_property(nominal_params, scale, ki, target, full_loop):
    base = nominal_params
    p = dataclasses.replace(
        base, vg=base.vg * scale[0], r_load=base.r_load * scale[1],
        l=base.l * scale[2], c=base.c * scale[3],
    )
    try:
        plant = derive_plant(p).plant
    except ValueError:
        assume(False)  # the scaled source cannot reach the target output
    _assert_tune_matches_reference(plant, _pwm_domain(ki, p) if full_loop else ki, target)


def test_design_report_structure(nominal_plant, nominal_params):
    report = design_report(nominal_plant, PIGains(0.23, 1.0), nominal_params)
    assert report["gains"] == {"kp": 0.23, "ki": 1.0}
    assert "plant_times_pi" in report["loop_variants"]
    assert "with_modulator_and_sensor_gains" in report["loop_variants"]
    assert report["closed_loop"]["dc_gain"] == 1.0
    assert report["closed_loop"]["model_steady_state_error"] == 0.0
    assert len(report["closed_loop"]["poles"]) == 3
    assert report["converter_params"]["vg"] == 30.0

    ref = report["reference_comparison"]
    assert ref is not None
    assert ref["published"]["phase_margin_deg"] == 75.0
    assert not ref["matches_published_claim"]
    assert ref["phase_margin_delta_deg"] < -20.0
    assert "do not reproduce" in ref["note"]


def test_design_report_high_gain_case(nominal_plant, nominal_params):
    report = design_report(nominal_plant, PIGains(10.0, 1.0), nominal_params)
    ref = report["reference_comparison"]
    assert ref["published"]["gain_margin_db"] == 0.0428
    assert math.isinf(ref["computed_gain_margin_db"])
    assert 6.0 <= ref["computed_phase_margin_deg"] <= 12.0


def test_design_report_tradeoffs(nominal_plant, nominal_params):
    low = design_report(nominal_plant, PIGains(0.23, 1.0), nominal_params)
    high = design_report(nominal_plant, PIGains(10.0, 1.0), nominal_params)
    m_low = low["closed_loop"]["step_metrics"]
    m_high = high["closed_loop"]["step_metrics"]
    # higher kp: more overshoot, smaller error over the simulated window
    assert m_high["max_overshoot_pct"] > m_low["max_overshoot_pct"]
    assert abs(m_high["steady_state_error"]) < abs(m_low["steady_state_error"])


def test_design_report_integrator_only(nominal_plant, nominal_params):
    report = design_report(nominal_plant, PIGains(0.0, 1.0), nominal_params)
    assert report["selected_loop_margins"]["phase_margin_deg"] is not None
    assert report["reference_comparison"] is None
