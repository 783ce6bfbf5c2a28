from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buckforge import (
    MarginReport,
    PIGains,
    TransferFunction,
    bode_sweep,
    close_unity_loop,
    compensated_loop,
    stability_margins,
    step_response,
)
from buckforge.pi_design import DESIGN_STEP_SAMPLES, DESIGN_STEP_T_END
from buckforge.svg import _nice_ticks, bode_svg, timeseries_svg
from oracles import bode_svg_reference, decimate_reference, timeseries_svg_reference
from oracles import format_2f_takes, linear_x_pixels_reference
from oracles import _nice_ticks as nice_ticks_reference


def _points(sweep):
    """The reference's per-frequency records, rebuilt from the columns."""
    return [
        SimpleNamespace(omega=w, magnitude_db=m, phase_deg=ph)
        for w, m, ph in zip(*(col.tolist() for col in sweep))
    ]


def _same_bode(loop, title):
    sweep = bode_sweep(loop, 1.0, 1e6, 200)
    margins = stability_margins(loop)
    got = bode_svg(sweep, margins, title)
    assert got == bode_svg_reference(_points(sweep), margins, title)
    return got


@pytest.mark.parametrize("kp", [0.23, 10.0, 1e-3])
def test_bode_svg_matches_reference_on_pi_loop(nominal_plant, kp):
    loop = compensated_loop(nominal_plant, PIGains(kp, 1.0))
    svg = _same_bode(loop, f"kp={kp}")
    assert "PM " in svg


def test_bode_svg_matches_reference_with_phase_crossover():
    # 4e3/(s+10)^3: phase -180 deg at 10*sqrt(3) rad/s, where |L| is 1/2
    loop = TransferFunction((4e3,), (1.0, 30.0, 300.0, 1000.0))
    margins = stability_margins(loop)
    assert margins.phase_crossover is not None and margins.gain_crossover is not None
    svg = _same_bode(loop, "three poles")
    assert "GM " in svg and "PM " in svg


def test_timeseries_svg_matches_reference_on_decimated_step(nominal_plant):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    traj = step_response(close_unity_loop(loop), DESIGN_STEP_T_END, DESIGN_STEP_SAMPLES)
    got = timeseries_svg(traj.times, traj.values, "time (s)", "output", "step")
    xs, ys = decimate_reference(traj.times, traj.values)
    assert len(xs) < len(traj.times)
    assert got == timeseries_svg_reference(xs, ys, "time (s)", "output", "step")


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 1e-3, 50),
    # a falling time axis gives the x ticks an empty range
    np.linspace(1e-3, 0.0, 50),
])
@pytest.mark.parametrize("level", [0.0, -3.5, 42.0])
def test_timeseries_svg_matches_reference_on_flat_series(times, level):
    values = np.full(len(times), level)
    got = timeseries_svg(times, values, "t", "y", "flat")
    assert got == timeseries_svg_reference(times, values, "t", "y", "flat")


def test_timeseries_svg_draws_a_subnormal_span_as_flat():
    # the old tick step underflowed to 0 and raised ZeroDivisionError
    times = np.linspace(0.0, 1e-3, 50)
    values = np.linspace(0.0, 4e-323, 50)
    got = timeseries_svg(times, values, "t", "y", "tiny")
    assert got == timeseries_svg(times, np.zeros(50), "t", "y", "tiny")


@pytest.mark.parametrize("n", [3999, 4000])
def test_timeseries_svg_matches_reference_at_stride_edges(n):
    # 3999 samples are all drawn; 4000 are drawn at a stride of 2
    times = np.linspace(0.0, 1.0, n)
    values = np.sin(40.0 * times)
    got = timeseries_svg(times, values, "t", "y", "ramp")
    xs, ys = decimate_reference(times, values)
    assert got == timeseries_svg_reference(xs, ys, "t", "y", "ramp")
    assert got.count(",") == len(xs) == (n if n < 4000 else n // 2)


def test_bode_svg_decimates_a_dense_grid(nominal_plant):
    # 9 decades at 1000 per decade: 9001 frequencies, drawn at a stride of 4
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    sweep = bode_sweep(loop, 1e-2, 1e7, 1000)
    assert len(sweep[0]) == 9001
    svg = bode_svg(sweep, stability_margins(loop), "dense")
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert len(polylines) == 2
    for line in polylines:
        assert line.count(",") == len(range(0, 9001, 4)) < 4000
    # each panel's curve is the one the reference draws from the same stride
    drawn = _points([col[::4] for col in sweep])
    assert svg == bode_svg_reference(drawn, stability_margins(loop), "dense")


@pytest.mark.parametrize("n", [3999, 4000])
def test_bode_svg_stride_edges(n):
    # a Bode grid of up to 3999 points is drawn whole, 4000 at a stride of 2
    loop = TransferFunction((1.0,), (1.0, 1.0))
    sweep = bode_sweep(loop, 1.0, 10.0 ** ((n - 1) / 1000), 1000)
    assert len(sweep[0]) == n
    margins = stability_margins(loop)
    got = bode_svg(sweep, margins, "edge")
    drawn = _points([col[:: 1 if n < 4000 else 2] for col in sweep])
    assert got == bode_svg_reference(drawn, margins, "edge")


def test_nice_ticks_on_tiny_axes_stay_distinct():
    # at 12 decimals, every tick of this axis rounded to 0.0
    assert _nice_ticks(0.0, 3e-20) == [0.0, 1e-20, 2e-20, 3e-20]
    ticks = _nice_ticks(1.0000000000000001e-20, 1.0007e-20)
    assert len(set(ticks)) == len(ticks) >= 3
    assert all(1e-20 <= t <= 1.0007e-20 for t in ticks)


@pytest.mark.parametrize("lo, hi", [
    (0.0, 1.0), (-2e-9, 5e-9), (14.2, 15.3), (-180.0, 0.0), (1e6, 3e7), (0.1, 0.100000006),
])
def test_nice_ticks_at_steps_from_1e_9_keep_12_decimals(lo, hi):
    assert _nice_ticks(lo, hi) == nice_ticks_reference(lo, hi)


def _values(rng, n):
    """n values of either sign, log-uniform in magnitude from 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)


def _oracle_range(lo, hi):
    # spans the oracle draws as the package does: none, or a tick step of at
    # least 1e-9 (12 decimals in both) that is not below 1e-12 of the values
    return hi <= lo or hi - lo >= max(1e-8, 1e-11 * max(abs(lo), abs(hi)))


@pytest.mark.oracle_property
@settings(deadline=None)
@given(
    n=st.integers(2, 4000),
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(-8.0, 7.0),
    decades=st.floats(0.01, 16.0),
    crossovers=st.tuples(st.booleans(), st.booleans()),
)
def test_bode_svg_matches_reference_property(n, seed, low, decades, crossovers):
    rng = np.random.default_rng(seed)
    omegas = np.sort(10.0 ** rng.uniform(low, min(low + decades, 8.0), n))
    assume(omegas[0] < omegas[-1])
    sweep = (omegas, _values(rng, n), _values(rng, n))
    drawn = [col[:: max(1, n // 2000)] for col in sweep]
    assume(all(_oracle_range(col.min(), col.max()) for col in drawn[1:]))
    gain_x, phase_x = (float(rng.choice(omegas)) if c else None for c in crossovers)
    margins = MarginReport(
        gain_crossover=gain_x, phase_crossover=phase_x, gain_margin_db=6.02,
        phase_margin_deg=45.3 if gain_x else None, stable_loop=True,
        gain_crossover_count=int(crossovers[0]), phase_crossover_count=int(crossovers[1]),
    )
    got = bode_svg(sweep, margins, "random")
    assert got == bode_svg_reference(_points(drawn), margins, "random")


@pytest.mark.oracle_property
@settings(deadline=None)
@given(
    n=st.integers(2, 4000),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["rising", "falling", "shuffled"]),
)
def test_timeseries_svg_matches_reference_property(n, seed, order):
    rng = np.random.default_rng(seed)
    times = np.sort(_values(rng, n))
    times = {"rising": times, "falling": times[::-1], "shuffled": rng.permutation(times)}[order]
    values = _values(rng, n)
    xs, ys = decimate_reference(times, values)
    assume(_oracle_range(xs[0], xs[-1]) and _oracle_range(ys.min(), ys.max()))
    lo, hi = sorted((xs[0], xs[-1]))
    if not ((lo <= xs) & (xs <= hi)).all():
        assert order == "shuffled"
        # a drawn x outside the first-to-last range may map off the panel,
        # to a pixel that csvtext.format_2f refuses
        if not all(map(format_2f_takes, linear_x_pixels_reference(xs))):
            with pytest.raises(ValueError, match="format_2f takes finite values below"):
                timeseries_svg(times, values, "t", "y", "random")
            return
    got = timeseries_svg(times, values, "t", "y", "random")
    assert got == timeseries_svg_reference(xs, ys, "t", "y", "random")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_figure_refuses_a_non_finite_sample(bad):
    values = np.linspace(0.0, 1.0, 50)
    values[-1] = bad
    with pytest.raises(ValueError, match="cannot plot 'output': a drawn sample is not finite"):
        timeseries_svg(np.linspace(0.0, 1.0, 50), values, "time (s)", "output", "step")


@pytest.mark.parametrize("ys", [(-1.7e308, 1.7e308), (-0.85e308, 0.85e308), (-1.79e308, 0.0)])
def test_figure_refuses_a_y_range_wider_than_the_float_range(ys):
    # the span, or the padded span, overflows: its tick placement once raised
    # OverflowError
    with pytest.raises(ValueError, match="cannot plot 'output': its padded y range overflows"):
        timeseries_svg([0.0, 1.0], ys, "time (s)", "output", "step")


def test_figure_refuses_an_x_range_wider_than_the_float_range():
    # its pixel map once warned twice and its tick placement raised OverflowError
    with pytest.raises(ValueError, match="cannot plot 'y': its x range overflows"):
        timeseries_svg([-1.7e308, 1.7e308], [0.0, 1.0], "x", "y", "")
