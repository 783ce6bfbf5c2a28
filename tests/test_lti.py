import cmath
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from buckforge import (
    TransferFunction,
    bode_sweep,
    close_unity_loop,
    evaluate,
    lti,
    poles,
    series,
    stability_margins,
)
from buckforge.lti import (
    MARGIN_OMEGA_MAX,
    MARGIN_OMEGA_MIN,
    MARGIN_OMEGAS,
    MARGIN_POINTS_PER_DECADE,
    MAX_SAMPLES,
    PoleOnAxisError,
    _anchor,
    _low_frequency_phase_asymptote,
    _refine_gain_crossover,
    _unwrapped_phase_at,
    dc_gain,
    log_grid,
    magnitude_db,
    phase_deg,
    phase_margin,
)
from buckforge.pi_design import LoopConfig, PIGains, compensated_loop, tune_kp_for_pm

from oracles import sweep_margins

INTEGRATOR = TransferFunction((1.0,), (1.0, 0.0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        TransferFunction((1.0,), ())
    with pytest.raises(ValueError):
        TransferFunction((1.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        TransferFunction((math.nan,), (1.0,))
    assert TransferFunction((0.0, 0.0, 2.0), (1.0, 1.0)).num == (2.0,)
    assert TransferFunction((0.0, 0.0), (1.0,)).num == (0.0,)


def test_evaluate_dc_gain(nominal_plant):
    z = evaluate(nominal_plant, 0.0)
    assert abs(z) == pytest.approx(29.4118, rel=1e-4)
    assert phase_deg(z) == 0.0


def test_evaluate_integrator():
    z = evaluate(INTEGRATOR, 1.0)
    assert abs(z) == pytest.approx(1.0, rel=1e-12)
    assert phase_deg(z) == pytest.approx(-90.0, abs=1e-12)


def test_evaluate_resonance_phase(nominal_plant):
    # at omega^2 = det(A) the real part of the denominator vanishes
    omega = math.sqrt(nominal_plant.den[2])
    z = evaluate(nominal_plant, omega)
    assert phase_deg(z) == pytest.approx(-90.0, abs=1e-6)


def test_evaluate_errors():
    with pytest.raises(PoleOnAxisError):
        evaluate(INTEGRATOR, 0.0)
    with pytest.raises(ValueError):
        evaluate(INTEGRATOR, -1.0)


def test_bode_constant_gain():
    one = TransferFunction((1.0,), (1.0,))
    _, mags, phases = bode_sweep(one, 0.1, 1000.0, 10)
    assert (mags == 0.0).all()
    assert (phases == 0.0).all()


def test_bode_integrator_asymptotes():
    omegas, mags, phases = bode_sweep(INTEGRATOR, 1.0, 1e4, 100)
    for ph in phases:
        assert ph == pytest.approx(-90.0, abs=1e-9)
    # -20 dB per decade: compare points one decade apart
    assert mags[100] - mags[0] == pytest.approx(-20.0, abs=1e-9)
    assert (np.diff(omegas) > 0.0).all()


def test_bode_low_frequency_gain(nominal_plant):
    _, mags, _ = bode_sweep(nominal_plant, 1.0, 1e6, 10)
    # frozen: 20*log10 |G(j*1)| for the nominal plant
    assert mags[0] == pytest.approx(29.3704, abs=2e-3)


def test_bode_magnitude_definition(nominal_plant):
    omegas, mags, _ = bode_sweep(nominal_plant, 0.5, 2e4, 31)
    for w, mag in zip(omegas.tolist(), mags.tolist()):
        assert mag == magnitude_db(evaluate(nominal_plant, w))


def test_bode_range_validation(nominal_plant):
    with pytest.raises(ValueError):
        bode_sweep(nominal_plant, 10.0, 1.0, 10)
    with pytest.raises(ValueError):
        bode_sweep(nominal_plant, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        bode_sweep(nominal_plant, 1.0, 10.0, 0)
    # omega_max / omega_min overflows to inf, or omega_max is inf
    for lo, hi in [(1e-300, 1e300), (5e-324, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError, match="finite ratio"):
            bode_sweep(nominal_plant, lo, hi, 10)
    # the next float above 1e6 has the same log10: logspace would repeat 1e6
    with pytest.raises(ValueError, match="have the same log10"):
        bode_sweep(nominal_plant, 1e6, 1000000.0000000001, 10)


def test_bode_sweep_memory_per_frequency(nominal_plant, nominal_params):
    # three float64 columns, 24 B per frequency; per-point records took 184 B
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
    tracemalloc.start()
    try:
        omegas, _, _ = bode_sweep(loop, 1.0, 1e6, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(omegas) == 60_001
    assert peak <= 32 * len(omegas)


@pytest.mark.parametrize("tf,omega", [
    # den(j*omega) overflows; the quotient would be 0, i.e. -inf dB
    (TransferFunction((1.0,), (1.0, 1.0, 1.0, 1.0)), 1e110),
    # num(j*omega) overflows, den(j*omega) does not
    (TransferFunction((1e300, 1.0), (1.0, 1.0)), 1e10),
    # both are finite, their quotient overflows
    (TransferFunction((1.0,), (1.0, 0.0)), 1e-320),
])
def test_evaluate_overflow_names_omega(tf, omega):
    with pytest.raises(ValueError, match=re.escape(f"overflows at omega={omega!r}")):
        evaluate(tf, omega)


def test_evaluate_underflow_names_omega():
    with pytest.raises(ValueError, match=re.escape("underflows at omega=1e+30")):
        evaluate(TransferFunction((1e-300,), (1.0, 0.0)), 1e30)
    # an exact zero of the numerator is a response, not an underflow
    assert evaluate(TransferFunction((1.0, 0.0), (1.0, 1.0)), 0.0) == 0


def test_log_grid_budget_refused_before_allocation(monkeypatch):
    # the fake returns the point count instead of allocating the grid
    monkeypatch.setattr(lti, "np", SimpleNamespace(logspace=lambda a, b, n: n))
    assert log_grid(1.0, 10.0, MAX_SAMPLES - 1) == MAX_SAMPLES
    for lo, hi, ppd in [
        (1.0, 10.0, MAX_SAMPLES),
        (1e-150, 1e150, 1_000_000),
        # per-decade counts over the budget, up to ints no float can hold
        (1.0, 1.0 + 1e-9, MAX_SAMPLES + 1),
        (1.0, 10.0, 10**400),
    ]:
        with pytest.raises(ValueError, match="points_per_decade") as err:
            log_grid(lo, hi, ppd)
        assert str(MAX_SAMPLES) in str(err.value)


def test_margin_grid_is_built_once_and_read_only():
    want = log_grid(MARGIN_OMEGA_MIN, MARGIN_OMEGA_MAX, MARGIN_POINTS_PER_DECADE)
    assert MARGIN_OMEGAS.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        MARGIN_OMEGAS[0] = 1.0


def test_stability_margins_unwraps_once_on_the_built_grid(
    monkeypatch, nominal_plant, nominal_params
):
    unwrap, calls = np.unwrap, []
    monkeypatch.setattr(np, "unwrap", lambda x: calls.append(len(x)) or unwrap(x))
    monkeypatch.setattr(lti, "log_grid", None)
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
    assert stability_margins(loop).gain_crossover is not None
    assert calls == [len(MARGIN_OMEGAS)]


def test_phase_unwrap_continuity(nominal_plant, nominal_params):
    loops = [
        nominal_plant,
        compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params),
        compensated_loop(nominal_plant, PIGains(10.0, 1.0), LoopConfig(), nominal_params),
        close_unity_loop(nominal_plant),
    ]
    for loop in loops:
        _, _, phases = bode_sweep(loop, 1e-2, 1e7, 100)
        deltas = np.abs(np.diff(phases))
        assert deltas.max() < 180.0


def test_margins_integrator():
    report = stability_margins(INTEGRATOR)
    assert report.gain_crossover == pytest.approx(1.0, rel=1e-9)
    assert report.phase_margin_deg == pytest.approx(90.0, abs=1e-9)
    assert report.phase_crossover is None
    assert math.isinf(report.gain_margin_db)
    assert report.stable_loop
    assert report.gain_crossover_count == 1
    assert report.phase_crossover_count == 0


def test_margins_are_plain_floats(nominal_plant, nominal_params):
    report = stability_margins(
        compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
    )
    assert type(report.phase_margin_deg) is float
    assert type(report.gain_crossover) is float


@pytest.fixture
def three_pole_loop():
    # 8e6 / ((s+10)(s+100)(s+1000)): phase heads to -270, so both
    # crossovers exist
    den = np.polymul(np.polymul([1.0, 10.0], [1.0, 100.0]), [1.0, 1000.0])
    return TransferFunction((8e6,), tuple(den))


def test_margins_three_pole_self_consistency(three_pole_loop):
    report = stability_margins(three_pole_loop)
    assert report.gain_crossover is not None
    assert report.phase_crossover is not None
    # |L| = 1 at the gain crossover
    assert abs(abs(evaluate(three_pole_loop, report.gain_crossover)) - 1.0) < 1e-8
    # unwrapped phase = -180 at the phase crossover (principal phase is
    # within a hair of the branch point; compare against both edges)
    ph = phase_deg(evaluate(three_pole_loop, report.phase_crossover))
    assert min(abs(ph - 180.0), abs(ph + 180.0)) < 1e-6
    # gain margin definition
    gm = -magnitude_db(evaluate(three_pole_loop, report.phase_crossover))
    assert report.gain_margin_db == pytest.approx(gm, abs=1e-9)
    # phase margin definition
    pm = 180.0 + phase_deg(evaluate(three_pole_loop, report.gain_crossover))
    assert report.phase_margin_deg == pytest.approx(pm, abs=1e-9)


def test_margins_three_pole_against_oracle(three_pole_loop):
    report = stability_margins(three_pole_loop)
    oracle = sweep_margins(three_pole_loop.num, three_pole_loop.den)
    assert report.phase_margin_deg == pytest.approx(
        oracle["phase_margin_deg"], abs=0.1
    )
    assert report.gain_margin_db == pytest.approx(oracle["gain_margin_db"], abs=0.05)


def _scaled(tf, k):
    return TransferFunction(tuple(k * x for x in tf.num), tf.den)


def _margin_grid_response(tf):
    lo, hi = MARGIN_OMEGA_MIN, MARGIN_OMEGA_MAX
    n = int(round(math.log10(hi / lo) * MARGIN_POINTS_PER_DECADE)) + 1
    w = np.logspace(math.log10(lo), math.log10(hi), n)
    return np.polyval(tf.num, 1j * w) / np.polyval(tf.den, 1j * w)


def _full_unwrap(tf, resp):
    phases = np.degrees(np.unwrap(np.angle(resp)))
    phases += _anchor(phases[0], _low_frequency_phase_asymptote(tf)) - phases[0]
    return phases


def _principal_wraps_before_crossing(tf):
    resp = _margin_grid_response(tf)
    i = int(np.nonzero(np.diff(np.abs(resp) > 1.0))[0][0])
    return bool(np.any(np.abs(np.diff(np.angle(resp[: i + 1]))) > math.pi))


def test_phase_margin_matches_stability_margins(nominal_plant, nominal_params, three_pole_loop):
    hump = TransferFunction(
        tuple(5.0 * np.polymul([1.0, 1.0], [1.0, 1.0])),
        tuple(np.polymul([1.0, 0.1], np.polymul([1.0, 100.0], [1.0, 100.0]))),
    )
    loops = [
        compensated_loop(nominal_plant, PIGains(1.0, 1.0), LoopConfig(), nominal_params),
        three_pole_loop,
        hump,
    ]
    seen = {"none": 0, "wrapped": 0, "value": 0, "several": 0}
    for base in loops:
        for k in np.logspace(-7, 4, 45):
            loop = _scaled(base, float(k))
            want = stability_margins(loop).phase_margin_deg
            got = phase_margin(loop, _margin_grid_response(loop))
            assert repr(got) == repr(want)
            if want is None:
                seen["none"] += 1
            else:
                seen["value"] += 1
                seen["wrapped"] += _principal_wraps_before_crossing(loop)
                seen["several"] += stability_margins(loop).gain_crossover_count > 1
    # the sweep covers loops without a crossover, with a wrap before it and
    # with more than one crossing
    assert min(seen.values()) > 0


def test_refine_gain_crossover_stops_at_axis_pole():
    # poles at +-2j; the first log midpoint of [1, 4] lands on omega = 2
    tf = TransferFunction((1.0,), (1.0, 0.0, 4.0))
    with pytest.raises(PoleOnAxisError):
        _refine_gain_crossover(tf, 1.0, 4.0)


def test_unwrapped_phase_prefix_matches_full_unwrap(three_pole_loop):
    tf = _scaled(three_pole_loop, 1e3)
    rng = np.random.default_rng(7)
    noisy = np.exp(1j * np.cumsum(rng.uniform(-5.0, 5.0, 400)))
    noisy[300] = complex(math.nan, 0.0)
    # every step a wrap the same way: the running correction grows to
    # hundreds of turns, where the order of summation shows in the bits
    rolling = 3.0 * np.exp(-1j * np.cumsum(rng.uniform(3.2, 6.0, 400)))
    for resp in (_margin_grid_response(tf), noisy, rolling):
        full = _full_unwrap(tf, resp)
        assert np.any(np.abs(np.diff(np.angle(resp))) > math.pi)
        for i in range(len(resp)):
            assert repr(_unwrapped_phase_at(tf, resp, i)) == repr(float(full[i]))


def test_margins_report_lowest_of_multiple_crossings():
    # magnitude hump: below 0 dB at DC, above in the midband, below again
    num = 500.0 * np.polymul([1.0, 1.0], [1.0, 1.0])
    den = np.polymul([1.0, 0.1], np.polymul([1.0, 100.0], [1.0, 100.0]))
    loop = TransferFunction(tuple(num), tuple(den))
    report = stability_margins(loop)
    mags = np.abs(
        np.polyval(loop.num, 1j * np.logspace(-2, 7, 9001))
        / np.polyval(loop.den, 1j * np.logspace(-2, 7, 9001))
    )
    oracle_count = int(np.count_nonzero(np.diff(np.sign(mags - 1.0))))
    assert oracle_count >= 2
    assert report.gain_crossover_count == oracle_count
    # the reported crossover is the lowest-frequency one
    crossings = np.logspace(-2, 7, 9001)[np.nonzero(np.diff(np.sign(mags - 1.0)))[0]]
    assert report.gain_crossover == pytest.approx(crossings[0], rel=0.01)


def test_bode_anchor_negative_dc_gain():
    inverting = TransferFunction((-1.0,), (1.0, 1.0))
    _, _, phases = bode_sweep(inverting, 1e-3, 1.0, 10)
    assert phases[0] == pytest.approx(-180.0, abs=0.5)


def test_bode_anchor_integrator_loop(nominal_plant, nominal_params):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
    _, _, phases = bode_sweep(loop, 1e-3, 1e3, 50)
    # one origin pole dominates well below the plant dynamics
    assert phases[0] == pytest.approx(-90.0, abs=1.0)


def test_margins_unstable_high_gain():
    # raise the gain until |L| > 1 at the phase crossover
    den = np.polymul(np.polymul([1.0, 10.0], [1.0, 100.0]), [1.0, 1000.0])
    loop = TransferFunction((1e9,), tuple(den))
    report = stability_margins(loop)
    assert report.gain_margin_db < 0.0
    assert not report.stable_loop


@pytest.mark.parametrize("loop", [
    # num(j*omega) overflows at the top of the window
    TransferFunction((1e300, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
    # den(j*omega) overflows there, which would read as |L| = 0
    TransferFunction((1.0,), (1e300, 1.0, 1.0)),
])
def test_margins_refuse_an_overflowing_response(loop):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite on the margin window"):
            stability_margins(loop)


def test_tuner_refuses_an_overflowing_response(nominal_params):
    # the loop's numerator overflows at the grid's larger kp
    plant = TransferFunction((1e300,), (1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite on the margin window"):
            tune_kp_for_pm(plant, 1.0, 50.0, LoopConfig(), nominal_params)


def test_close_unity_loop(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    assert closed.num == nominal_plant.num
    assert closed.den[0] == 1.0
    assert closed.den[1] == nominal_plant.den[1]
    assert closed.den[2] == nominal_plant.den[2] + nominal_plant.num[0]

    one = TransferFunction((1.0,), (1.0,))
    assert close_unity_loop(one).num == (1.0,)
    assert close_unity_loop(one).den == (2.0,)

    assert close_unity_loop(INTEGRATOR).den == (1.0, 1.0)


def test_close_unity_loop_degenerate():
    minus_one = TransferFunction((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        close_unity_loop(minus_one)


def test_closed_loop_response_oracle():
    # frequency response of G/(1+G) must equal the complex-arithmetic
    # closure of G's response, for random stable G up to degree 3
    rng = np.random.default_rng(42)
    for _ in range(100):
        deg = int(rng.integers(1, 4))
        re = -(10.0 ** rng.uniform(-1, 3, size=deg))
        den = np.poly(re)
        num = rng.uniform(-5, 5, size=int(rng.integers(1, deg + 2)))
        if abs(num[0]) < 1e-3:
            num[0] = 1.0
        g = TransferFunction(tuple(num), tuple(den))
        closed = close_unity_loop(g)
        for omega in 10.0 ** rng.uniform(-2, 4, size=5):
            zg = evaluate(g, float(omega))
            if abs(1.0 + zg) < 1e-9:
                continue
            zm = evaluate(closed, float(omega))
            assert cmath.isclose(zm, zg / (1.0 + zg), rel_tol=1e-10)


def test_series_compensated_coefficients(nominal_plant):
    pi = TransferFunction((0.23, 1.0), (1.0, 0.0))
    loop = series(nominal_plant, pi)
    k = nominal_plant.num[0]
    assert loop.num == (0.23 * k, k)
    assert loop.den == (1.0, nominal_plant.den[1], nominal_plant.den[2], 0.0)


def test_series_identity_and_no_cancellation(nominal_plant):
    one = TransferFunction((1.0,), (1.0,))
    assert series(nominal_plant, one) == nominal_plant
    s_over_one = TransferFunction((1.0, 0.0), (1.0,))
    prod = series(INTEGRATOR, s_over_one)
    assert prod.num == (1.0, 0.0)
    assert prod.den == (1.0, 0.0)


def test_series_improper_product_rejected():
    s_over_one = TransferFunction((1.0, 0.0), (1.0,))
    one = TransferFunction((1.0,), (1.0,))
    with pytest.raises(ValueError):
        series(one, s_over_one)


def test_poles_nominal_plant(nominal_plant):
    got = sorted(poles(nominal_plant), key=lambda z: z.real)
    # quadratic formula on the nominal denominator gives two real poles
    assert got[0].imag == 0.0 and got[1].imag == 0.0
    assert got[0].real == pytest.approx(-560.8398777014106, rel=1e-9)
    assert got[1].real == pytest.approx(-242.49345563192276, rel=1e-9)
    oracle = sorted(np.roots(nominal_plant.den), key=lambda z: z.real)
    for z, w in zip(got, oracle):
        assert z == pytest.approx(w, rel=1e-9)


def test_poles_simple_cases():
    assert sorted(
        z.real for z in poles(TransferFunction((1.0,), (1.0, 0.0, -1.0)))
    ) == pytest.approx([-1.0, 1.0])
    assert poles(TransferFunction((1.0,), (1.0, 0.0, 0.0, 0.0))) == [0j, 0j, 0j]
    with pytest.raises(ValueError):
        poles(TransferFunction((1.0,), (1.0, 0.0, 0.0, 0.0, 1.0)))


def test_poles_residuals_random_cubics():
    rng = np.random.default_rng(3)
    for _ in range(100):
        den = tuple(rng.uniform(-10, 10, size=4))
        if abs(den[0]) < 0.1:
            den = (1.0,) + den[1:]
        tf = TransferFunction((1.0,), den)
        scale = max(abs(c) for c in den)
        for z in poles(tf):
            resid = np.polyval(den, z)
            assert abs(resid) < 1e-6 * scale


def test_poles_complex_pair(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    got = poles(closed)
    assert got[0].imag != 0.0
    assert got[0] == got[1].conjugate()
    oracle = np.roots(closed.den)
    assert sorted(z.imag for z in got) == pytest.approx(
        sorted(z.imag for z in oracle), rel=1e-9
    )


def test_dc_gain_variants(nominal_plant):
    assert dc_gain(nominal_plant) == pytest.approx(29.4118, rel=1e-4)
    assert math.isinf(dc_gain(INTEGRATOR))
    prop_only = TransferFunction((3.0, 0.0), (1.0, 0.0))
    assert math.isnan(dc_gain(prop_only))
