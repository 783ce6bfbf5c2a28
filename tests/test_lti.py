import cmath
import dataclasses
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from buckforge import (
    TransferFunction,
    derive_plant,
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
    MarginReport,
    PoleOnAxisError,
    _BODE_BLOCK,
    _anchor,
    _bisect_crossing,
    _low_frequency_phase_asymptote,
    _quadratic_roots,
    _unwrapped_phase_at,
    dc_gain,
    gain_crossing,
    log_grid,
    magnitude_db,
    phase_deg,
    window_response,
)
from buckforge.pi_design import PIGains, compensated_loop, tune_kp_for_pm

from oracles import (
    bode_sweep_reference,
    gain_crossing_reference,
    stability_margins_reference,
    sweep_margins,
    unwrapped_phase_at_reference,
    window_response_reference,
)

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


def test_empty_numerator_is_zero():
    assert TransferFunction((), (1.0, 1.0)).num == (0.0,)


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


def test_bode_sweep_at_a_zero_on_the_axis():
    # (s^2 + 1)/(s + 1)^2 is exactly 0 at omega = 1, the grid's first point
    notch = TransferFunction((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))
    omegas, mags, _ = bode_sweep(notch, 1.0, 10.0, 10)
    assert omegas[0] == 1.0
    assert mags[0] == -math.inf == magnitude_db(0j)
    assert np.isfinite(mags[1:]).all()


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


def test_bode_sweep_memory_per_frequency(nominal_plant):
    # three float64 columns, 24 B per frequency; per-point records took 184 B
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
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


def _sweep_outcome(sweep, tf, *grid):
    """A sweep's columns as int64 bit patterns, or its error's type and message."""
    try:
        return [col.view(np.int64).tolist() for col in sweep(tf, *grid)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _assert_same_sweep(tf, *grid):
    got = _sweep_outcome(bode_sweep, tf, *grid)
    assert got == _sweep_outcome(lambda *args: bode_sweep_reference(lti, *args), tf, *grid)
    return got


@pytest.mark.oracle_property
@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 3),
    origin_poles=st.integers(0, 3),
    origin_zeros=st.integers(0, 3),
    axis_zero=st.booleans(),
    low=st.floats(-3.0, 3.0),
    decades=st.floats(0.01, 8.0),
    points_per_decade=st.integers(1, 1000),
)
def test_bode_sweep_matches_per_point_reference_property(
    seed, degree, origin_poles, origin_zeros, axis_zero, low, decades, points_per_decade
):
    # proper, of either sign (a negative DC gain among them), with poles and
    # zeros at the origin, and at times a zero on the axis at a grid point
    rng = np.random.default_rng(seed)
    omega_min, omega_max = 10.0**low, 10.0 ** (low + decades)
    assume(int(round(decades * points_per_decade)) < 3 * _BODE_BLOCK)
    den = rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(-3.0, 3.0, degree + 1)
    num_degree = int(rng.integers(0, degree + 1))
    num = rng.choice([-1.0, 1.0], num_degree + 1) * 10.0 ** rng.uniform(-3.0, 3.0, num_degree + 1)
    # zero coefficients of either sign, at the origin and at random below the
    # leading one: CPython's complex arithmetic keeps the sign of a zero part
    for coeffs, k in ((den, min(origin_poles, degree)), (num, min(origin_zeros, num_degree))):
        lower = coeffs[1:]
        lower[rng.random(len(lower)) < 0.2] = 0.0
        lower[:] = np.where(lower == 0.0, rng.choice([0.0, -0.0], len(lower)), lower)
        coeffs[len(coeffs) - k :] = rng.choice([0.0, -0.0], k)
    if axis_zero and degree >= 2:
        omegas = log_grid(omega_min, omega_max, points_per_decade)
        w0 = float(rng.choice(omegas))
        num = np.array([1.0, 0.0, w0 * w0])
    tf = TransferFunction(tuple(num), tuple(den))
    got = _assert_same_sweep(tf, omega_min, omega_max, points_per_decade)
    assert isinstance(got, list), got


@pytest.mark.parametrize("n", [_BODE_BLOCK - 1, _BODE_BLOCK, _BODE_BLOCK + 1, 2 * _BODE_BLOCK + 1])
def test_bode_sweep_matches_reference_at_block_edges(nominal_plant, n):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    got = _assert_same_sweep(loop, 1.0, 10.0 ** ((n - 1) / 1000), 1000)
    assert len(got[0]) == n


def test_bode_sweep_anchors_point_by_point_after_a_half_turn(monkeypatch):
    # (-s^2 - 1)/(s^2 + 4) is real, so its principal phase steps by exactly a
    # half turn at omega = 1, from 180 to 0 degrees: the running sum of the
    # rounded steps says -360 there, _anchor from -180 rounds to 0
    tf = TransferFunction((-1.0, 0.0, -1.0), (1.0, 0.0, 4.0))
    want = bode_sweep_reference(lti, tf, 0.1, 10.0, 10)
    calls = []
    anchor = lti._anchor
    monkeypatch.setattr(lti, "_anchor", lambda p, e: calls.append(p) or anchor(p, e))
    got = bode_sweep(tf, 0.1, 10.0, 10)
    assert calls
    for g, w in zip(got, want):
        assert g.view(np.int64).tolist() == w.view(np.int64).tolist()
    assert 0.0 in got[2] and -180.0 in got[2]


@pytest.mark.parametrize("tf,omega_min,omega_max,points_per_decade,error", [
    # the cases of test_evaluate_overflow_names_omega and of the underflow
    (TransferFunction((1.0,), (1.0, 1.0, 1.0, 1.0)), 1e100, 1e120, 1, "overflows"),
    (TransferFunction((1e300, 1.0), (1.0, 1.0)), 1e8, 1e12, 2, "overflows"),
    (TransferFunction((1.0,), (1.0, 0.0)), 1e-320, 1e-300, 1, "overflows"),
    (TransferFunction((1e-300,), (1.0, 0.0)), 1e28, 1e32, 1, "underflows"),
    # a pole on the axis at the grid point omega = 1
    (TransferFunction((1.0,), (1.0, 0.0, 1.0)), 0.1, 10.0, 10, "pole on the imaginary axis"),
    # a finite response whose magnitude leaves the float range: abs raises
    (TransferFunction((1.28e308,), (0.5, 0.5)), 1.0, 10.0, 10, "absolute value too large"),
])
def test_bode_sweep_raises_as_the_per_point_reference(
    tf, omega_min, omega_max, points_per_decade, error
):
    got = _assert_same_sweep(tf, omega_min, omega_max, points_per_decade)
    assert isinstance(got, tuple) and error in got[1], got


def test_bode_sweep_raises_at_a_pole_in_a_later_block():
    omega_max = 10.0 ** (2 * _BODE_BLOCK / 1000)
    w0 = float(log_grid(1.0, omega_max, 1000)[_BODE_BLOCK + 5])
    # den(j*w0) = w0*w0 - fl(w0*w0) is exactly 0
    tf = TransferFunction((1.0,), (1.0, 0.0, w0 * w0))
    got = _assert_same_sweep(tf, 1.0, omega_max, 1000)
    assert got == (PoleOnAxisError, f"pole on the imaginary axis at omega={w0!r} rad/s")


def test_log_grid_budget_refused_before_allocation(monkeypatch):
    # the fake returns the point count instead of allocating the grid
    monkeypatch.setattr(lti, "np", SimpleNamespace(
        linspace=lambda a, b, n: (), fromiter=lambda points, dtype, n: n
    ))
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


def test_log_grid_points_are_libm_powers():
    # np.linspace's exponents, raised by math.pow rather than numpy's SIMD power
    exponents = np.linspace(math.log10(0.5), math.log10(3e5), 215)
    want = [math.pow(10.0, x) for x in exponents]
    assert log_grid(0.5, 3e5, 37).tolist() == want


def test_log_grid_top_beyond_the_float_range_is_refused():
    # log10 of the largest float rounds up, so 10**log10 overflows
    with pytest.raises(ValueError, match="leaves the float range"):
        log_grid(1e300, sys.float_info.max, 10)


def test_margin_grid_is_built_once_and_read_only():
    want = log_grid(MARGIN_OMEGA_MIN, MARGIN_OMEGA_MAX, MARGIN_POINTS_PER_DECADE)
    assert MARGIN_OMEGAS.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        MARGIN_OMEGAS[0] = 1.0


def test_stability_margins_never_unwraps_nor_rebuilds_the_grid(
    monkeypatch, nominal_plant, three_pole_loop
):
    calls = []
    monkeypatch.setattr(np, "unwrap", lambda x: calls.append(len(x)))
    monkeypatch.setattr(lti, "log_grid", None)
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    assert stability_margins(loop).gain_crossover is not None
    report = stability_margins(three_pole_loop)
    assert report.gain_crossover is not None and report.phase_crossover is not None
    assert calls == []


def test_phase_unwrap_continuity(nominal_plant):
    loops = [
        nominal_plant,
        compensated_loop(nominal_plant, PIGains(0.23, 1.0)),
        compensated_loop(nominal_plant, PIGains(10.0, 1.0)),
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


def test_margins_are_plain_floats(nominal_plant):
    report = stability_margins(compensated_loop(nominal_plant, PIGains(0.23, 1.0)))
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


def test_phase_margin_matches_stability_margins(nominal_plant, three_pole_loop):
    hump = TransferFunction(
        tuple(5.0 * np.polymul([1.0, 1.0], [1.0, 1.0])),
        tuple(np.polymul([1.0, 0.1], np.polymul([1.0, 100.0], [1.0, 100.0]))),
    )
    loops = [
        compensated_loop(nominal_plant, PIGains(1.0, 1.0)),
        three_pole_loop,
        hump,
    ]
    seen = {"none": 0, "wrapped": 0, "value": 0, "several": 0}
    for base in loops:
        for k in np.logspace(-7, 4, 45):
            loop = _scaled(base, float(k))
            want = stability_margins(loop).phase_margin_deg
            got = gain_crossing(loop, _margin_grid_response(loop))[2]
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


def test_bisect_crossing_stops_at_axis_pole():
    # poles at +-2j; the first log midpoint of [1, 4] lands on omega = 2
    tf = TransferFunction((1.0,), (1.0, 0.0, 4.0))
    with pytest.raises(PoleOnAxisError):
        _bisect_crossing(lambda w: abs(evaluate(tf, w)) - 1.0, 1.0, 4.0, 1e-10)


@pytest.mark.parametrize("zeta", [1e-1, 1e-2, 1e-3, 1e-4])
def test_phase_crossover_sits_on_the_half_turn(zeta):
    # 0.5*zeta*w0^2 / ((s + 1)(s^2 + 2*zeta*w0*s + w0^2)): the phase falls
    # through -180 just above w0, ever more steeply as zeta shrinks
    w0 = 100.0
    den = tuple(np.polymul([1.0, 1.0], [1.0, 2.0 * zeta * w0, w0 * w0]))
    loop = TransferFunction((0.5 * zeta * w0 * w0,), den)
    report = stability_margins(loop)
    assert report.phase_crossover is not None
    ph = phase_deg(evaluate(loop, report.phase_crossover))
    assert 180.0 - abs(ph) < 1e-9


def test_phase_crossovers_count_every_crossing_of_the_negative_real_axis():
    # 1e3/(s+1)^7: the phase falls through -180 and then -540 degrees; both
    # are phase crossings, and the lowest one is reported as before
    loop = TransferFunction((1e3,), tuple(np.poly([-1.0] * 7)))
    report = stability_margins(loop)
    assert report.phase_crossover_count == 2
    assert report.phase_crossover == 0.4815746188075285
    assert report.gain_margin_db == -53.65936984644809


# stable poles of a random loop: a real one, or a complex pair with damping zeta
_REAL_POLE = st.floats(-1.0, 5.0).map(lambda e: [1.0, 10.0**e])
_POLE_PAIR = st.tuples(st.floats(-1.0, 5.0), st.floats(0.1, 1.0)).map(
    lambda t: [1.0, 2.0 * t[1] * 10.0**t[0], 10.0 ** (2.0 * t[0])]
)


@st.composite
def _random_loops(draw):
    """k * (zero factor) / (poles) of order 3 to 5; the zero, if any, is in
    either half plane."""
    order, den = draw(st.integers(3, 5)), [1.0]
    while len(den) <= order:
        fits_a_pair = order - (len(den) - 1) >= 2
        factor = st.one_of(_REAL_POLE, _POLE_PAIR) if fits_a_pair else _REAL_POLE
        den = np.polymul(den, draw(factor))
    num = [10.0 ** draw(st.floats(-3.0, 9.0))]
    zero = draw(st.one_of(st.none(), st.floats(-1.0, 5.0).map(lambda e: 10.0**e)))
    if zero is not None:
        num = np.polymul(num, [draw(st.sampled_from([1.0, -1.0])) / zero, 1.0])
    return TransferFunction(tuple(num), tuple(den))


@pytest.mark.oracle_property
@settings(deadline=None)
@given(loop=_random_loops())
def test_phase_crossover_is_on_the_negative_real_axis_property(loop):
    report = stability_margins(loop)
    if report.phase_crossover is None:
        assert report.phase_crossover_count == 0 and report.gain_margin_db == math.inf
        return
    z = evaluate(loop, report.phase_crossover)
    assert z.real < 0.0 and abs(z.imag) <= 1e-9 * abs(z)
    oracle = sweep_margins(loop.num, loop.den)
    # the oracle sees only crossings of -180 degrees, on a 1e4-per-decade grid
    if oracle["phase_crossover"] is not None and math.isclose(
        oracle["phase_crossover"], report.phase_crossover, rel_tol=1e-3
    ):
        assert report.gain_margin_db == pytest.approx(oracle["gain_margin_db"], abs=0.05)


def _assert_whole_turns_of(got, resp, i, ref):
    # the principal phase of resp[i] moved by the reference's whole turns,
    # exactly, and within rounding of the reference's own running sum
    here = float(np.degrees(np.angle(resp[i])))
    assert got == here + 360.0 * round((ref - here) / 360.0), (i, got, ref)
    assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (i, got, ref)


def test_unwrapped_phase_prefix_matches_full_unwrap(three_pole_loop):
    tf = _scaled(three_pole_loop, 1e3)
    rng = np.random.default_rng(7)
    noisy = np.exp(1j * np.cumsum(rng.uniform(-5.0, 5.0, 400)))
    # np.unwrap is nan from here on; window_response refuses a non-finite
    # response before any margin code runs, so only the prefix is compared
    noisy[300] = complex(math.nan, 0.0)
    # every step a wrap the same way: the unwrap runs to hundreds of turns
    rolling = 3.0 * np.exp(-1j * np.cumsum(rng.uniform(3.2, 6.0, 400)))
    grid = _margin_grid_response(tf)
    for resp, n in ((grid, len(grid)), (noisy, 300), (rolling, len(rolling))):
        full = _full_unwrap(tf, resp)
        assert np.any(np.abs(np.diff(np.angle(resp[:n]))) > math.pi)
        for i in range(n):
            _assert_whole_turns_of(_unwrapped_phase_at(tf, resp, i), resp, i, full[i])


# parts that put samples on the axes: exact +-0.0 imaginary parts, and
# -1j next to 1j, a step of exactly a half turn
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
# a spiral whose angle steps up to 6 rad: many crossings of the negative
# real axis, and a running correction of many turns
_SPIRALS = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=400).map(
    lambda steps: 3.0 * np.exp(1j * np.cumsum(steps))
)
# asymptotes of 0, -90, -180 and +180 degrees for the anchor
_ANCHOR_LOOPS = [
    TransferFunction((1.0,), (1.0, 1.0)),
    INTEGRATOR,
    TransferFunction((-1.0,), (1.0, 1.0)),
    TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
]


@pytest.mark.oracle_property
@settings(deadline=None)
@given(
    resp=st.one_of(
        st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=60).map(
            np.array
        ),
        _SPIRALS,
    ),
    tf=st.sampled_from(_ANCHOR_LOOPS),
    data=st.data(),
)
def test_unwrapped_phase_at_matches_reference_property(resp, tf, data):
    asymptote = _low_frequency_phase_asymptote(tf)
    last = len(resp) - 1
    for i in {0, min(1, last), last, data.draw(st.integers(0, last))}:
        want = unwrapped_phase_at_reference(resp, i, asymptote)
        _assert_whole_turns_of(_unwrapped_phase_at(tf, resp, i), resp, i, want)


def test_unwrapped_phase_at_half_turn_steps():
    # -1j to 1j steps by +pi, and 1j to -1j by -pi: np.unwrap adds nothing
    # there, while the steps past the negative real axis take a turn off
    tf = TransferFunction((1.0,), (1.0, 1.0))
    resp = np.array([-1j, 1j, -1j, -1 + 1e-3j, -1 - 1e-3j])
    assert [_unwrapped_phase_at(tf, resp, i) for i in range(3)] == [-90.0, 90.0, -90.0]
    assert _unwrapped_phase_at(tf, resp, 3) < -180.0 < _unwrapped_phase_at(tf, resp, 4)
    for i in range(len(resp)):
        assert repr(_unwrapped_phase_at(tf, resp, i)) == repr(
            unwrapped_phase_at_reference(resp, i, 0.0)
        )


def test_unwrapped_phase_at_keeps_a_step_one_float_over_pi():
    # angle -4.4e-16 to pi: a step of pi's next float, where np.unwrap's
    # step + pi rounds to exactly 2*pi, and it adds no turn
    tf = TransferFunction((1.0,), (1.0, 1.0))
    resp = np.array([complex(1.0, -4.440892098500626e-16), -1.0 + 0j])
    assert np.angle(resp[1]) - np.angle(resp[0]) == math.nextafter(math.pi, 4.0)
    got = _unwrapped_phase_at(tf, resp, 1)
    assert got == 180.0
    _assert_whole_turns_of(got, resp, 1, unwrapped_phase_at_reference(resp, 1, 0.0))


# k/((s+1)(s+10)(s+100)) for k from 1 to 1e6: the phase passes -180 near
# 33 rad/s, so the Bode points above it and the phase margins of the largest
# gains lie off the principal branch
_THREE_POLES = tuple(np.polymul(np.polymul([1.0, 1.0], [1.0, 10.0]), [1.0, 100.0]))
_THREE_POLE_FAMILY = [
    TransferFunction((float(k),), _THREE_POLES) for k in np.logspace(0, 6, 61)
]


def _is_principal_plus_turns(ph, principal):
    return ph == principal + 360.0 * round((ph - principal) / 360.0)


def test_bode_phase_is_principal_plus_whole_turns():
    off_principal = 0
    for tf in _THREE_POLE_FAMILY:
        omegas, _, phases = bode_sweep(tf, 1e-2, 1e4, 100)
        for w, ph in zip(omegas.tolist(), phases.tolist()):
            principal = phase_deg(evaluate(tf, w))
            assert _is_principal_plus_turns(ph, principal), (tf.num, w, ph, principal)
            off_principal += ph != principal
    assert off_principal > 0


def test_phase_margin_is_principal_plus_whole_turns():
    reported = off_principal = 0
    for tf in _THREE_POLE_FAMILY:
        report = stability_margins(tf)
        pm = report.phase_margin_deg
        if pm is None:
            continue
        reported += 1
        principal = phase_deg(evaluate(tf, report.gain_crossover))
        k = round((pm - 180.0 - principal) / 360.0)
        assert pm == 180.0 + (principal + 360.0 * k), tf.num
        off_principal += k != 0
    assert reported == 30 and off_principal > 0


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


def test_bode_anchor_integrator_loop(nominal_plant):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
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


def test_tuner_refuses_an_overflowing_response():
    # the loop's numerator overflows at the grid's larger kp
    plant = TransferFunction((1e300,), (1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite on the margin window"):
            tune_kp_for_pm(plant, 1.0, 50.0)


def _bits(x):
    """x with its floats as hex and its arrays as dtype and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, MarginReport):
        x = dataclasses.astuple(x)
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x


def _outcome(f, *args):
    """f's result as `_bits`, or the type and text of its ValueError."""
    try:
        return _bits(f(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _assert_margin_path_matches_reference(loop):
    """The margin windows, the gain crossing and the whole margin report of
    `loop`, bit for bit, against the margin path kept in tests/oracles.py."""

    def window(coeffs, den_resp):
        want = _outcome(window_response_reference, lti, coeffs, den_resp)
        assert _outcome(window_response, coeffs, den_resp) == want
        if want[0] != "ValueError":
            return window_response_reference(lti, coeffs, den_resp)

    window(loop.num, None)
    den_resp = window(loop.den, None)
    resp = None if den_resp is None else window(loop.num, den_resp)
    if resp is not None:
        want = _outcome(gain_crossing_reference, lti, loop, resp)
        assert _outcome(gain_crossing, loop, resp) == want
    want = _outcome(stability_margins_reference, lti, loop)
    assert _outcome(stability_margins, loop) == want


@pytest.mark.oracle_property
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scale=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    r_l_scale=st.one_of(st.just(0.0), st.floats(0.5, 2.0)),
    log_kp=st.floats(-6.0, 3.0),
    log_ki=st.floats(-2.0, 5.0),
)
def test_margin_path_matches_reference_property(nominal_params, scale, r_l_scale, log_kp, log_ki):
    # plant * PI over the nominal box widened to 0.5-2 and a lossless
    # inductor, at the tuner's kp bracket and ki from 1e-2 to 1e5
    base = nominal_params
    p = dataclasses.replace(
        base, vg=base.vg * scale[0], r_load=base.r_load * scale[1],
        l=base.l * scale[2], c=base.c * scale[3], r_l=base.r_l * r_l_scale,
    )
    try:
        plant = derive_plant(p).plant
    except ValueError:
        assume(False)  # the scaled source cannot reach the target output
    _assert_margin_path_matches_reference(
        compensated_loop(plant, PIGains(10.0**log_kp, 10.0**log_ki))
    )


@pytest.mark.parametrize("num", [(-0.0,), (0.0,)])
def test_margin_path_of_a_zero_numerator_matches_reference(nominal_plant, num):
    # np.polyval's first step turns -0.0 into (0.0, 0.0): |L| is 0 everywhere
    loop = TransferFunction(num, compensated_loop(nominal_plant, PIGains(0.23, 1.0)).den)
    assert window_response(num, None).tobytes() == np.zeros(len(MARGIN_OMEGAS), complex).tobytes()
    _assert_margin_path_matches_reference(loop)
    assert stability_margins(loop).gain_crossover_count == 0


def _magnitudes(*runs):
    """Window magnitudes from (first index, magnitude) runs, each to the next."""
    mags = np.empty(len(MARGIN_OMEGAS))
    for (lo, mag), (hi, _) in zip(runs, runs[1:] + ((len(mags), None),)):
        mags[lo:hi] = mag
    return mags


@pytest.mark.parametrize("mags,count", [
    # above, exactly 1, below: the change of sign onto the exact hit is that hit
    (_magnitudes((0, 2.0), (1000, 1.0), (1001, 0.5)), 1),
    # exactly 1 at the last point only
    (_magnitudes((0, 0.5), (3600, 1.0)), 1),
    # exactly 1 at the first point, then a crossing between grid points
    (_magnitudes((0, 1.0), (1, 2.0), (2000, 0.5)), 2),
    # touches 1 from above and from below, then ends on it
    (_magnitudes((0, 2.0), (500, 1.0), (501, 2.0), (1500, 0.5), (1700, 1.0),
                 (1701, 0.5), (3600, 1.0)), 4),
    # exactly 1 over a run of points, each its own hit
    (_magnitudes((0, 0.5), (1200, 1.0), (1210, 2.0)), 10),
])
@pytest.mark.parametrize("turning", [False, True])
def test_gain_crossing_at_exact_unit_magnitudes_matches_reference(mags, count, turning):
    # |L| exactly 1 at grid points; turning: the phase winds down 12 rad, so
    # the crossing's branch takes wrap steps below it
    tf = TransferFunction((1.0,), (1.0, 0.0))
    resp = -1j * mags
    if turning:
        resp = mags * np.exp(-12j * np.linspace(0.0, 1.0, len(mags)))
        resp[mags == 1.0] = -1.0
    assert np.count_nonzero(np.abs(resp) == 1.0) == np.count_nonzero(mags == 1.0)
    got = _outcome(gain_crossing, tf, resp)
    assert got == _outcome(gain_crossing_reference, lti, tf, resp)
    assert got[0] == count


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


def test_close_unity_loop_refuses_an_improper_loop():
    with pytest.raises(ValueError, match="must be proper"):
        close_unity_loop(TransferFunction((1.0, 0.0), (1.0,)))


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


def _cubic_den(real_root, pair):
    """(s - real_root)(s - pair)(s - conj(pair)), expanded."""
    q1, q2 = -2.0 * pair.real, abs(pair) ** 2
    return (1.0, q1 - real_root, q2 - real_root * q1, -real_root * q2)


def test_poles_resolve_small_real_root_to_its_scale():
    # the slow pole of the nominal tuned loop at ki = 1e-20: a bisection to
    # 1e-15 absolute reported it as -4.3e-16
    den = _cubic_den(-1e-20, complex(-401.67, 922.51))
    got = poles(TransferFunction((1.0,), den))
    real = [z for z in got if z.imag == 0.0]
    assert len(real) == 1
    assert real[0].real == pytest.approx(-1e-20, rel=1e-9, abs=0.0)

    # the roots' product is -den[3]/den[0], so it checks the small root to
    # its own scale, which an absolute residual bound cannot
    rng = np.random.default_rng(11)
    for _ in range(500):
        r = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 3)
        pair = complex(-(10.0 ** rng.uniform(1, 3)), 10.0 ** rng.uniform(1, 3))
        den = _cubic_den(r, pair)
        a, b, c = poles(TransferFunction((1.0,), den))
        product = pytest.approx(-den[3] / den[0], rel=1e-12, abs=0.0)
        assert (a * b * c).real == product, r


def test_poles_keep_a_small_pair_after_a_large_real_root():
    den = _cubic_den(-908.35, complex(-1.398, 3.341))
    a, b, c = poles(TransferFunction((1.0,), den))
    assert (a * b * c).real == pytest.approx(-den[3] / den[0], rel=1e-14)

    # a real root of 1e1 to 1e4 and a pair of modulus 0.1 to 10
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(1, 4)
        pair = cmath.rect(10.0 ** rng.uniform(-1, 1), rng.uniform(0.05, 0.95) * math.pi)
        den = _cubic_den(r, pair)
        got = [z for z in poles(TransferFunction((1.0,), den)) if z.imag != 0.0]
        assert len(got) == 2, (r, pair)
        upper = max(got, key=lambda z: z.imag)
        assert abs(upper - pair) <= 1e-9 * abs(pair), (r, pair, upper)


@pytest.mark.parametrize("c", [1e-300, -1e-300])
def test_poles_resolve_a_triple_root_near_zero(c):
    # s^3 + c: the real root is -cbrt(c), far below the bisection bound of 1
    got = poles(TransferFunction((1.0,), (1.0, 0.0, 0.0, c)))
    real = [z.real for z in got if z.imag == 0.0]
    assert len(real) == 1
    # approx's default absolute tolerance of 1e-12 would pass any tiny root
    assert real[0] == pytest.approx(-math.copysign(1e-100, c), rel=1e-12, abs=0.0)


def test_poles_complex_pair(nominal_plant):
    closed = close_unity_loop(nominal_plant)
    got = poles(closed)
    assert got[0].imag != 0.0
    assert got[0] == got[1].conjugate()
    oracle = np.roots(closed.den)
    assert sorted(z.imag for z in got) == pytest.approx(
        sorted(z.imag for z in oracle), rel=1e-9
    )


def _assert_roots_match(got, want, rel):
    """Each wanted root has its own got root: an infinite one exactly, a
    finite one within rel of its modulus. No got root is nan."""
    assert len(got) == len(want)
    assert not any(cmath.isnan(g) for g in got), got
    got = list(got)
    for w in want:
        if cmath.isinf(w):
            assert w in got, (got, w)
            z = w
        else:
            z = min(filter(cmath.isfinite, got), key=lambda g: abs(g - w))
            assert abs(z - w) <= rel * abs(w), (z, w)
        got.remove(z)


@pytest.mark.parametrize("den,want", [
    # s^2 + 1: b*b - 4*a*c underflows to 0 unless the quadratic is monic
    ((1e-300, 0.0, 1e-300), [1j, -1j]),
    # s^2 - 1: 4*a*c overflows
    ((1e300, 0.0, -1e300), [1.0, -1.0]),
    # (s + 1)(s + 2)
    ((1e-200, 3e-200, 2e-200), [-2.0, -1.0]),
    ((1e200, 3e200, 2e200), [-2.0, -1.0]),
    # s^3 + s^2 + s + 1 = (s + 1)(s^2 + 1)
    ((1e-300,) * 4, [-1.0, 1j, -1j]),
    ((1e300,) * 4, [-1.0, 1j, -1j]),
])
def test_poles_of_a_scaled_denominator(den, want):
    _assert_roots_match(poles(TransferFunction((1.0,), den)), want, 1e-12)


def _monic_from_roots(roots):
    """Real coefficients of the monic polynomial with these roots."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return tuple(c.real for c in coeffs)


_MODULUS = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def _monic_roots(draw):
    """Roots of a real quadratic or cubic, of modulus 1e-3 to 1e3, each at
    least a tenth of the larger modulus away from the others."""
    degree = draw(st.sampled_from((2, 3)))
    roots = []
    if draw(st.booleans()):
        pair = cmath.rect(draw(_MODULUS), draw(st.floats(0.05, 0.95)) * math.pi)
        roots = [pair, pair.conjugate()]
    roots += [
        draw(st.sampled_from((-1.0, 1.0))) * draw(_MODULUS)
        for _ in range(degree - len(roots))
    ]
    for a, b in itertools.combinations(roots, 2):
        assume(abs(a - b) >= 0.1 * max(abs(a), abs(b)))
    return roots


@settings(max_examples=200, deadline=None)
@given(roots=_monic_roots(), k=st.integers(-290, 290))
def test_poles_do_not_depend_on_the_scale_of_the_denominator(roots, k):
    monic = _monic_from_roots(roots)
    scaled = tuple(c * 10.0 ** k for c in monic)
    want = poles(TransferFunction((1.0,), monic))
    _assert_roots_match(poles(TransferFunction((1.0,), scaled)), want, 1e-12)


def test_poles_of_a_first_order_denominator():
    assert poles(TransferFunction((1.0,), (2.0, 6.0))) == [complex(-3.0)]


def test_quadratic_roots_double_root_at_zero():
    assert _quadratic_roots(0.0, 0.0) == [0j, 0j]


@pytest.mark.parametrize("den,want", [
    # b*b overflows
    ((1.0, 1e160, 1.0), [-1e160, -1e-160]),
    ((1.0, -1e160, 1.0), [1e160, 1e-160]),
    # 4*c overflows
    ((1.0, 1.0, 1e308), [complex(-0.5, 1e154), complex(-0.5, -1e154)]),
    ((1.0, 1.0, -1e308), [-1e154, 1e154]),
])
def test_poles_of_a_quadratic_whose_discriminant_overflows(den, want):
    _assert_roots_match(poles(TransferFunction((1.0,), den)), want, 1e-14)


# |b| from 1e154, where b*b - 4*c nears the float range, to 1e300, and c
# with c/b a normal float, so that both roots are representable
_HUGE_B = st.sampled_from((-1.0, 1.0)).flatmap(lambda sign: st.one_of(
    # real roots: c at most (b/2)^2, so 1 - 4*(c/b)/b >= 0
    st.floats(1e154, 1e300).flatmap(lambda b: st.tuples(
        st.just(sign * b),
        st.floats(-1.7e308, min(1.7e308, (b / 2) * (b / 2))).filter(
            lambda c: abs(c) >= 1e-290 * b),
    )),
    # complex roots: c above (b/2)^2 needs |b| below about 2.68e154
    st.floats(1e154, 2.6e154).flatmap(lambda b: st.tuples(
        st.just(sign * b), st.floats((b / 2) * (b / 2) * (1 + 1e-12), 1.7e308))),
))


@settings(deadline=None)
@given(_HUGE_B)
def test_quadratic_roots_past_the_overflow_of_b_squared(bc):
    b, c = bc
    (re1, im1), (re2, im2) = (
        (Fraction(z.real), Fraction(z.imag)) for z in _quadratic_roots(b, c)
    )
    # the roots sum to -b and multiply to c, checked in exact arithmetic
    assert abs(re1 + re2 + Fraction(b)) + abs(im1 + im2) <= abs(Fraction(b)) / 10**14
    product = (re1 * re2 - im1 * im2, re1 * im2 + im1 * re2)
    assert abs(product[0] - Fraction(c)) + abs(product[1]) <= abs(Fraction(c)) / 10**14


@pytest.mark.parametrize("den,want", [
    # den[1]/den[0] overflows: the roots are -1e310 (beyond the float range) and -1e-10
    ((1e-300, 1e10, 1.0), [complex(-math.inf, 0.0), -1e-10]),
    ((1e-300, -1e10, 1.0), [complex(math.inf, 0.0), 1e-10]),
    ((1e-300, 1e10, 1.0, 1.0),
     [complex(-math.inf, 0.0), complex(-5e-11, 9.999999999875e-6),
      complex(-5e-11, -9.999999999875e-6)]),
    ((1e-300, 1e10), [complex(-math.inf, 0.0)]),
    # den[2]/den[0] overflows, with both roots representable
    ((1e-300, 1.0, 1e10), [-1e300, -1e10]),
    ((1e-300, 0.0, 1e10), [1e155j, -1e155j]),
    # a pair near 1e216 and a root near -1e-246, 2**1534 apart
    ((-1e-186, 0.0, -1e246, -1.0), [1e216j, -1e216j, -1e-246]),
    # the cubic's real root is near -1e110, so its cube overflows
    ((1.0, 1e110, 1.0, 1.0),
     [-1e110, complex(-5e-111, 1e-55), complex(-5e-111, -1e-55)]),
    # 1 + max|den[i]/den[0]| rounds to the modulus of a root: the bisection's
    # first bracket holds it at its end, or not at all
    ((1.0, 1e16, 0.0, 1.0), [-1e16, complex(5e-33, 1e-8), complex(5e-33, -1e-8)]),
    ((-1.0, -1e16, -1.0, -1e16), [-1e16, 1j, -1j]),
    ((-3.162277660168379e-183, 3.1622776601683795e125, 0.0, 1.0),
     [1e308, 1.7782794100389227e-63j, -1.7782794100389227e-63j]),
    # the middle of three real roots is bisected: top-down division cancels
    ((1e-7, -1.0, -100.0, 1.0), [10000099.99899992, -100.00899892020245, 0.0099990001999510135]),
])
def test_poles_of_hard_denominators(den, want):
    _assert_roots_match(poles(TransferFunction((1.0,), den)), want, 1e-12)


def _signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda t: t[0] * t[1])


# a leading coefficient of 1e-300 to 1 and the others 0 or 1 to 1e300: each
# root's modulus is at least about 1e-300, while the largest may overflow
_WIDE_DEN = st.tuples(
    _signed(st.floats(-300.0, 0.0).map(lambda e: 10.0**e)),
    st.integers(2, 3).flatmap(lambda degree: st.lists(
        st.one_of(st.just(0.0), _signed(st.floats(0.0, 300.0).map(lambda e: 10.0**e))),
        min_size=degree, max_size=degree,
    )),
).map(lambda t: (t[0], *t[1]))


@settings(deadline=None)
@given(_WIDE_DEN)
def test_poles_over_the_float_range(den):
    got = poles(TransferFunction((1.0,), den))
    assert len(got) == len(den) - 1
    assert not any(cmath.isnan(z) for z in got), got
    coeffs = [Fraction(a) for a in den]
    for z in filter(cmath.isfinite, got):
        # backward error in exact arithmetic: |den(z)| within 1e-12 of its
        # largest term, compared squared
        x, y = Fraction(z.real), Fraction(z.imag)
        re, im = Fraction(0), Fraction(0)
        for a in coeffs:
            re, im = re * x - im * y + a, re * y + im * x
        modulus2 = x * x + y * y
        largest2 = max(a * a * modulus2 ** (len(den) - 1 - i) for i, a in enumerate(coeffs))
        assert (re * re + im * im) * 10**24 <= largest2, (den, z)


def test_poles_bisect_a_subnormal_root_to_adjacent_floats():
    # s^3 + 3 s + 1e-320: floats near the real root, about -3.33e-321, are
    # 1.5e-3 of it apart, so the bisection stops on two adjacent floats
    got = poles(TransferFunction((1.0,), (1.0, 0.0, 3.0, 1e-320)))
    real = [z.real for z in got if z.imag == 0.0]
    assert len(real) == 1
    assert real[0] == pytest.approx(-1e-320 / 3.0, rel=0.01, abs=0.0)


def test_dc_gain_variants(nominal_plant):
    assert dc_gain(nominal_plant) == pytest.approx(29.4118, rel=1e-4)
    assert math.isinf(dc_gain(INTEGRATOR))
    prop_only = TransferFunction((3.0, 0.0), (1.0, 0.0))
    assert math.isnan(dc_gain(prop_only))
