from types import SimpleNamespace

import numpy as np
import pytest

from buckforge import (
    LoopConfig,
    PIGains,
    TransferFunction,
    bode_sweep,
    close_unity_loop,
    compensated_loop,
    stability_margins,
    step_response,
)
from buckforge.pi_design import DESIGN_STEP_SAMPLES, DESIGN_STEP_T_END
from buckforge.svg import bode_svg, timeseries_svg
from oracles import bode_svg_reference, decimate_reference, timeseries_svg_reference


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
def test_bode_svg_matches_reference_on_pi_loop(nominal_plant, nominal_params, kp):
    loop = compensated_loop(nominal_plant, PIGains(kp, 1.0), LoopConfig(), nominal_params)
    svg = _same_bode(loop, f"kp={kp}")
    assert "PM " in svg


def test_bode_svg_matches_reference_with_phase_crossover():
    # 4e3/(s+10)^3: phase -180 deg at 10*sqrt(3) rad/s, where |L| is 1/2
    loop = TransferFunction((4e3,), (1.0, 30.0, 300.0, 1000.0))
    margins = stability_margins(loop)
    assert margins.phase_crossover is not None and margins.gain_crossover is not None
    svg = _same_bode(loop, "three poles")
    assert "GM " in svg and "PM " in svg


def test_timeseries_svg_matches_reference_on_decimated_step(nominal_plant, nominal_params):
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
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


def test_bode_svg_decimates_a_dense_grid(nominal_plant, nominal_params):
    # 9 decades at 1000 per decade: 9001 frequencies, drawn at a stride of 4
    loop = compensated_loop(nominal_plant, PIGains(0.23, 1.0), LoopConfig(), nominal_params)
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
