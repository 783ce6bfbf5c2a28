import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buckforge import (
    PIGains,
    cli,
    close_unity_loop,
    compensated_loop,
    derive_plant,
    load_params,
    stability_margins,
    step_response,
    switched_sim,
    timedomain,
)
from buckforge.cli import main
from buckforge.converter import PARAM_FIELDS
from oracles import decimate_reference, fallback_count, timeseries_svg_reference


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_derive(nominal_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["derive", "--config", nominal_config_path, "--out-dir", str(out)]) == 0
    doc = read_json(out / "derive.json")
    assert doc["operating_point"]["duty"] == pytest.approx(0.51, abs=0.005)
    den = doc["transfer_function"]["den"]
    assert den[0] == 1.0
    assert den[1] == pytest.approx(803.333, rel=1e-3)
    assert den[2] == pytest.approx(135998.4, rel=1e-3)
    manifest = read_json(out / "derive_manifest.json")
    assert manifest["command"] == "derive"
    assert manifest["tool_version"]
    for path in manifest["outputs"]:
        assert os.path.exists(path)
    assert "duty cycle" in capsys.readouterr().out


def test_derive_zero_winding_resistance(tmp_path):
    config = {
        "vg": 30.0, "vo_target": 15.0, "r_load": 10.0, "r_l": 0.0,
        "l": 250e-6, "c": 30e-3, "fs": 60e3, "vs": 10.0, "vref": 2.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["derive", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    den = read_json(out / "derive.json")["transfer_function"]["den"]
    assert den[2] == pytest.approx(1.0 / (250e-6 * 30e-3), rel=1e-9)


# one run of each command, with its options given
MANIFEST_RUNS = {
    "derive": (),
    "bode": ("--kp", "0.23", "--ki", "1", "--omega-min", "2", "--points-per-decade", "50",
             "--svg"),
    "tune": ("--ki", "2", "--target-pm", "50"),
    "step": ("--kp", "0.23", "--ki", "1", "--samples", "1001", "--svg"),
    "simulate": ("--vg", "500", "--from-operating-point", "--t-end", "0.0005",
                 "--steps-per-period", "20", "--svg"),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_records_every_option(nominal_config_path, tmp_path, command):
    # bode --svg and simulate --vg/--from-operating-point/--svg once went
    # unrecorded, and a 500 V run recorded no trace of the configured 30 V
    out = tmp_path / "out"
    argv = [command, "--config", nominal_config_path, "--out-dir", str(out),
            *MANIFEST_RUNS[command]]
    assert run(argv) in (0, 4)
    manifest = read_json(out / f"{command}_manifest.json")
    parsed = vars(cli.build_parser().parse_args(argv))
    del parsed["command"]
    assert manifest["resolved_config"] == {
        "converter_params": read_json(nominal_config_path),
        "options": parsed,
    }
    # I_L/(delta_i_L/2) at the nominal 30 V point (simulate: at its --vg 500)
    validity = manifest["model_validity"]
    ratio = 3.034 if command == "simulate" else 6.002
    assert validity["ccm_ratio"] == pytest.approx(ratio, abs=5e-4)
    assert ("crossover_to_fs" in validity) == (command in ("bode", "tune"))
    if command == "simulate":
        assert parsed["vg"] == 500.0 and parsed["from_operating_point"] and parsed["svg"]
        # started from the operating point at the configured 30 V
        assert manifest["pwm_loop"]["initial_state"][1] == pytest.approx(15.0, rel=1e-2)
        assert validity["start_ccm_ratio"] == pytest.approx(6.002, abs=5e-4)
        assert validity["start_in_ccm"] is True


# the stages each command times into its manifest's timing_s, in order
MANIFEST_STAGES = {
    "derive": ["model", "emit"],
    "bode": ["model", "sweep", "margins", "emit"],
    "tune": ["model", "search", "report", "emit"],
    "step": ["model", "response", "metrics", "emit"],
    "simulate": ["simulate", "report", "emit"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_times_each_stage(nominal_config_path, tmp_path, command):
    # a rerun into the same directory writes every file byte for byte
    # again, but for the manifest's timing_s
    out = tmp_path / "out"
    argv = [command, "--config", nominal_config_path, "--out-dir", str(out),
            *MANIFEST_RUNS[command]]
    runs = []
    for _ in range(2):
        assert run(argv) in (0, 4)
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    manifests = [json.loads(files.pop(f"{command}_manifest.json")) for files in runs]
    assert runs[0] == runs[1]
    timings = [manifest.pop("timing_s") for manifest in manifests]
    assert manifests[0] == manifests[1]
    for timing in timings:
        assert list(timing) == MANIFEST_STAGES[command]
        assert all(isinstance(s, float) and s >= 0.0 for s in timing.values()), timing


def test_failed_tune_times_the_stages_that_ran(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--target-pm", "179.9",
    ]) == 3
    timing = read_json(out / "tune_manifest.json")["timing_s"]
    assert list(timing) == ["model", "search"]
    assert min(timing.values()) >= 0.0


@pytest.mark.parametrize("argv,ratio,flagged", [
    (("bode", "--kp", "0.23", "--ki", "1"), 0.002285, False),
    (("tune", "--target-pm", "50"), 0.002203, False),
    # the crossover of a 1 degree design sits at fs/7.9
    (("tune", "--target-pm", "1"), 0.1258, True),
])
def test_manifest_flags_a_crossover_above_fs_over_10(
    nominal_config_path, tmp_path, argv, ratio, flagged
):
    out = tmp_path / "out"
    assert run([argv[0], "--config", nominal_config_path, "--out-dir", str(out),
                *argv[1:]]) == 0
    validity = read_json(out / f"{argv[0]}_manifest.json")["model_validity"]
    assert validity["crossover_to_fs"] == pytest.approx(ratio, rel=1e-3)
    assert validity["crossover_above_fs_limit"] is flagged


def test_parser_is_built_once_and_dispatches_at_call_time(
    nominal_config_path, tmp_path, monkeypatch
):
    assert cli.build_parser() is cli.build_parser()
    argv = ["derive", "--config", nominal_config_path, "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    # a wrapper set on the module attribute after the first run still runs
    calls = []
    monkeypatch.setattr(cli, "cmd_derive", lambda args: calls.append(args.command) or 7)
    assert run(argv) == 7 and calls == ["derive"]


def test_missing_config_is_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["derive", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(out)]) == 2
    assert not (out / "derive.json").exists()
    assert "error" in capsys.readouterr().err


def test_bad_config_field_named(tmp_path, capsys):
    config = {"vg": 30.0, "typo_field": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["derive", "--config", str(cfg_path),
                "--out-dir", str(tmp_path / "out")]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_bode_outputs(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    code = run([
        "bode", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "10", "--ki", "1", "--svg",
    ])
    assert code == 0
    header, rows = read_csv(out / "bode.csv")
    assert header == ["omega_rad_s", "magnitude_db", "phase_deg"]
    assert len(rows) > 100
    assert read_json(out / "bode_manifest.json")["csv"] == {
        "bode.csv": {"rows": len(rows), "fallback_cells": fallback_count(rows)}
    }
    margins = read_json(out / "margins.json")
    assert 6.0 <= margins["phase_margin_deg"] <= 12.0
    assert math.isinf(margins["gain_margin_db"])
    assert margins["phase_crossover"] is None
    svg = (out / "bode.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_bode_svg_leaves_out_a_crossover_beyond_the_plot(nominal_config_path, tmp_path):
    # the (0.23, 1) loop crosses |L| = 1 near 830 rad/s, above --omega-max
    out = tmp_path / "out"
    code = run([
        "bode", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.23", "--ki", "1", "--omega-max", "100", "--svg",
    ])
    assert code == 0
    assert 800.0 < read_json(out / "margins.json")["gain_crossover"] < 900.0
    svg = (out / "bode.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "PM " not in svg


def test_bode_rejects_zero_gains(nominal_config_path, tmp_path, capsys):
    assert run([
        "bode", "--config", nominal_config_path,
        "--out-dir", str(tmp_path / "out"), "--kp", "0", "--ki", "0",
    ]) == 2
    assert "zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["bode", "--kp", "0.23", "--ki", "1"], ["tune", "--target-pm", "50"],
    ["step", "--kp", "0.23", "--ki", "1"],
])
@pytest.mark.parametrize("flag", ["--include-modulator-gain", "--include-sensor-gain"])
def test_loop_gain_flags_are_gone(nominal_config_path, tmp_path, capsys, command, flag):
    # every --kp/--ki is a duty-domain gain: scale it by vref/(vo_target*vs)
    # for the loop with modulator and sensor gains
    out = tmp_path / "out"
    argv = [command[0], "--config", nominal_config_path, "--out-dir", str(out)]
    assert run([*argv, *command[1:], flag]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_bode_modulator_gain_shift(nominal_config_path, tmp_path):
    # the modulator's 1/vs (vs = 10) is the duty-domain loop at gains / 10
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["bode", "--config", nominal_config_path, "--out-dir", str(out_a),
         "--kp", "0.23", "--ki", "1"])
    run(["bode", "--config", nominal_config_path, "--out-dir", str(out_b),
         "--kp", "0.023", "--ki", "0.1"])
    _, rows_a = read_csv(out_a / "bode.csv")
    _, rows_b = read_csv(out_b / "bode.csv")
    assert len(rows_a) == len(rows_b) > 100
    for ra, rb in zip(rows_a, rows_b):
        shift = float(rb[1]) - float(ra[1])
        assert shift == pytest.approx(-20.0, abs=1e-9)


@pytest.mark.parametrize("omega_min,omega_max,message", [
    pytest.param("1e-300", "1e300", "finite ratio", id="1e-300-1e300"),
    pytest.param("1", "inf", "finite ratio", id="1-inf"),
    # equal log10 endpoints: two equal omega rows, and the SVG divided by 0
    pytest.param(
        "1e6", "1000000.0000000001",
        "omega_min 1000000.0 and omega_max 1000000.0000000001 have the same log10",
        id="1e6-next-float",
    ),
])
def test_bode_infinite_omega_ratio_is_exit_2(
    nominal_config_path, tmp_path, capsys, omega_min, omega_max, message
):
    out = tmp_path / "out"
    assert run([
        "bode", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.23", "--ki", "1", "--omega-min", omega_min, "--omega-max", omega_max,
        "--svg",
    ]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def _cap_memory():
    # a run stuck appending ticks fails with MemoryError, not by filling the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_bode_svg_of_an_ulp_wide_range_finishes(nominal_config_path, tmp_path):
    # the magnitude panel's y range is a few ulps wide; its tick loop never
    # advanced, so the run never returned (hence a subprocess with a timeout)
    out = tmp_path / "out"
    argv = [
        "bode", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.23", "--ki", "1", "--omega-min", "1", "--omega-max",
        "1.0000000000000002", "--svg",
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "buckforge.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
    )
    assert done.returncode == 0, done.stderr
    svg = (out / "bode.svg").read_text()
    assert svg.endswith("</svg>") and svg.count("<polyline") == 2


@pytest.mark.parametrize("omega_min,omega_max,points_per_decade", [
    # num(j*omega) overflows first, so the old phase step was NaN
    pytest.param("1", "1e200", "200", id="1-1e200"),
    # every frequency overflows; the old sweep wrote -inf dB rows
    pytest.param("1e110", "1e150", "200", id="1e110-1e150"),
    # num and den are finite, their quotient is not; the old sweep wrote inf dB rows
    pytest.param("1e-320", "1e-300", "1", id="1e-320-1e-300"),
])
def test_bode_overflowing_response_is_exit_2(
    nominal_config_path, tmp_path, capsys, omega_min, omega_max, points_per_decade
):
    out = tmp_path / "out"
    assert run([
        "bode", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.23", "--ki", "1", "--omega-min", omega_min, "--omega-max", omega_max,
        "--points-per-decade", points_per_decade, "--svg",
    ]) == 2
    err = capsys.readouterr().err
    assert "overflows at omega=" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def _config(tmp_path, nominal_config_path, **changes) -> str:
    """A copy of the nominal config with `changes` applied; returns its path."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dict(read_json(nominal_config_path), **changes)))
    return str(path)


def test_bode_underflowing_response_is_exit_2(nominal_config_path, tmp_path, capsys):
    # every |L| underflows to 0; the old sweep wrote -inf dB rows, and the SVG
    # raised OverflowError on them
    # (vref = vo_target keeps the sensor gain vref/vo_target at 1)
    config = _config(
        tmp_path, nominal_config_path, vo_target=5e-324, vref=5e-324, r_load=5e-324, c=1e300
    )
    out = tmp_path / "out"
    assert run([
        "bode", "--config", config, "--out-dir", str(out), "--kp", "0.23", "--ki", "1",
        "--svg",
    ]) == 2
    err = capsys.readouterr().err
    assert "underflows at omega=" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_bode_reruns_byte_identical(nominal_config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run(["bode", "--config", nominal_config_path, "--out-dir", str(out),
             "--kp", "10", "--ki", "1"])
    assert (out_a / "bode.csv").read_bytes() == (out_b / "bode.csv").read_bytes()
    assert (out_a / "margins.json").read_bytes() == (out_b / "margins.json").read_bytes()


def test_tune_round_trip(nominal_config_path, tmp_path, nominal_plant):
    target = stability_margins(
        compensated_loop(nominal_plant, PIGains(0.23, 1.0))
    ).phase_margin_deg
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--ki", "1", "--target-pm", f"{target}",
    ]) == 0
    doc = read_json(out / "tune.json")
    assert doc["gains"]["kp"] == pytest.approx(0.23, rel=0.05)
    assert doc["achieved_margins"]["phase_margin_deg"] == pytest.approx(target, abs=0.05)
    assert doc["design_report"]["closed_loop"]["dc_gain"] == 1.0


def test_tune_target_75_notes_published_design(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--ki", "1", "--target-pm", "75",
    ]) == 0
    doc = read_json(out / "tune.json")
    # the bare loop reaches 75 deg at a much smaller kp than published
    assert doc["gains"]["kp"] < 0.15
    assert doc["published_gain_reference"]["kp"] == 0.23


def test_tune_unreachable_is_exit_3(nominal_config_path, tmp_path, capsys):
    assert run([
        "tune", "--config", nominal_config_path,
        "--out-dir", str(tmp_path / "out"), "--target-pm", "179.9",
    ]) == 3
    assert "not bracketed" in capsys.readouterr().err


def test_tune_manifest_records_search(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--target-pm", "50",
    ]) == 0
    kp = read_json(out / "tune.json")["gains"]["kp"]
    trace = read_json(out / "tune_manifest.json")["tuning_trace"]
    # the scan evaluates the grid from 1e3 down to the falling edge only
    assert len(trace["kp_grid"]) == len(trace["pm_grid"]) == 38
    assert trace["kp_grid"][-1] == pytest.approx(1e3)
    lo, hi = trace["bracket"]
    assert [lo, hi] == trace["kp_grid"][:2]
    assert lo <= kp <= hi
    assert trace["pm_evals"] == len(trace["pm_grid"]) + len(trace["bisection"]) == 44
    assert abs(trace["bisection"][-1][1] - 50.0) <= 0.05


def test_tune_reports_the_margins_it_accepted(nominal_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--target-pm", "50",
    ]) == 0
    doc = read_json(out / "tune.json")
    report = doc["design_report"]
    assert doc["achieved_margins"] == report["loop_variants"]["plant_times_pi"]
    assert doc["achieved_margins"] == report["selected_loop_margins"]
    # the reported phase margin is the one the search accepted kp on
    pm = doc["achieved_margins"]["phase_margin_deg"]
    trace = read_json(out / "tune_manifest.json")["tuning_trace"]
    assert trace["bisection"][-1] == [doc["gains"]["kp"], pm]
    assert f"reaches {cli._fmt4(pm)} deg phase margin" in capsys.readouterr().out


def test_tune_unreachable_manifest_keeps_trace(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--target-pm", "179.9",
    ]) == 3
    assert not (out / "tune.json").exists()
    manifest = read_json(out / "tune_manifest.json")
    assert manifest["outputs"] == []
    assert manifest["model_validity"]["ccm_ratio"] == pytest.approx(6.002, abs=5e-4)
    trace = manifest["tuning_trace"]
    assert trace["bracket"] is None and trace["bisection"] == []
    assert trace["pm_evals"] == 91


def test_tune_without_gain_crossover_is_exit_3(nominal_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(out),
        "--target-pm", "50", "--ki", "1e300",
    ]) == 3
    err = capsys.readouterr().err
    assert "no kp gives a gain crossover" in err and "kp in [1e-06, 1000.0]" in err
    assert not (out / "tune.json").exists()
    trace = read_json(out / "tune_manifest.json")["tuning_trace"]
    assert trace["pm_grid"] == [None] * 91


@pytest.mark.parametrize("changes,flags", [
    ({"vg": 1e6}, ["--target-pm", "50"]),
    # ki/vs: the loop the modulator gain 1/vs used to scale
    ({"l": 250.0, "c": 30000.0}, ["--target-pm", "75", "--ki", "0.1"]),
])
def test_tune_off_target_is_exit_3(nominal_config_path, tmp_path, capsys, changes, flags):
    # the old search returned the bracket's edge, with no phase margin, and
    # then raised TypeError printing it
    config = _config(tmp_path, nominal_config_path, **changes)
    out = tmp_path / "out"
    assert run(["tune", "--config", config, "--out-dir", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert "not met" in err and "no gain crossover" in err and "Traceback" not in err
    assert not (out / "tune.json").exists()
    trace = read_json(out / "tune_manifest.json")["tuning_trace"]
    assert trace["bracket"] is not None and trace["bisection"]


@pytest.mark.parametrize("ki", ["nan", "inf"])
def test_tune_non_finite_ki_is_exit_2(nominal_config_path, tmp_path, capsys, ki):
    assert run([
        "tune", "--config", nominal_config_path, "--out-dir", str(tmp_path / "out"),
        "--ki", ki, "--target-pm", "50",
    ]) == 2
    err = capsys.readouterr().err
    assert "ki must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_step_non_finite_t_end_is_exit_2(nominal_config_path, tmp_path, capsys, t_end):
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.23", "--ki", "1", "--t-end", t_end,
    ]) == 2
    assert "t_end must be positive and finite" in capsys.readouterr().err
    assert not (out / "step.csv").exists()
    assert not (out / "step_metrics.json").exists()


def test_step_window_too_short_to_sample_is_exit_2(nominal_config_path, tmp_path, capsys):
    # once refused as "times must be strictly increasing", naming neither option
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "1", "--ki", "1", "--t-end", "5e-324", "--samples", "10",
    ]) == 2
    err = capsys.readouterr().err
    assert "t_end 5e-324 over samples 10" in err and "smallest normal float" in err
    assert "Traceback" not in err
    assert not (out / "step.csv").exists()
    assert not (out / "step_metrics.json").exists()


def test_step_at_the_tuned_gains_reuses_the_tune_response(
    nominal_config_path, tmp_path, monkeypatch
):
    monkeypatch.setattr(timedomain, "_held", [None])
    computed = []
    compute = timedomain._exact_step
    monkeypatch.setattr(
        timedomain, "_exact_step", lambda *a: computed.append(a[0]) or compute(*a)
    )
    common = ["--config", nominal_config_path]
    tune = tmp_path / "tune"
    assert run(["tune", *common, "--out-dir", str(tune), "--target-pm", "50"]) == 0
    doc = read_json(tune / "tune.json")
    step = ["step", *common, "--kp", repr(doc["gains"]["kp"]), "--ki", "1", "--svg"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run([*step, "--out-dir", str(reused)]) == 0
    assert len(computed) == 1
    timedomain._held[0] = None
    assert run([*step, "--out-dir", str(fresh)]) == 0
    assert len(computed) == 2
    for name in ("step.csv", "step_metrics.json", "step.svg"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    metrics = read_json(fresh / "step_metrics.json")
    assert doc["design_report"]["closed_loop"]["step_metrics"] == metrics


def test_step_uncompensated(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--uncompensated",
    ]) == 0
    metrics = read_json(out / "step_metrics.json")
    assert metrics["final_value"] == pytest.approx(0.9671, abs=1e-3)
    assert 0.006 <= metrics["settling_time"] <= 0.012
    header, rows = read_csv(out / "step.csv")
    assert header == ["time_s", "output"]
    assert len(rows) == 20001
    assert read_json(out / "step_manifest.json")["csv"] == {
        "step.csv": {"rows": 20001, "fallback_cells": fallback_count(rows)}
    }


def test_step_uncompensated_refuses_gains(nominal_config_path, tmp_path, capsys):
    # no controller runs, so the gains would be ignored yet recorded in the manifest
    out = tmp_path / "out"
    for gains in (["--kp", "5", "--ki", "2"], ["--kp", "5"], ["--ki", "2"]):
        assert run([
            "step", "--config", nominal_config_path, "--out-dir", str(out),
            "--uncompensated", *gains,
        ]) == 2
        err = capsys.readouterr().err
        assert "--kp" in err and "Traceback" not in err
        assert list(out.iterdir()) == []


def read_columns(path, *names):
    header, rows = read_csv(path)
    return [np.array([float(r[header.index(n)]) for r in rows]) for n in names]


def test_step_svg_plots_the_written_trajectory(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--uncompensated", "--svg",
    ]) == 0
    assert read_json(out / "step_manifest.json")["outputs"][-1] == str(out / "step.svg")
    times, values = read_columns(out / "step.csv", "time_s", "output")
    xs, ys = decimate_reference(times, values)
    assert (out / "step.svg").read_text() == timeseries_svg_reference(
        xs, ys, "time (s)", "output", "uncompensated unity feedback"
    )


def test_step_not_settled_is_exit_2(nominal_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--uncompensated", "--t-end", "1e-4",
    ]) == 2
    doc = read_json(out / "step_metrics.json")
    assert list(doc) == ["error"] and "extend the simulation window" in doc["error"]
    assert "extend the simulation window" in capsys.readouterr().err
    # the trajectory and the manifest are still written
    assert len(read_csv(out / "step.csv")[1]) == 20001
    assert read_json(out / "step_manifest.json")["outputs"] == [
        str(out / "step.csv"), str(out / "step_metrics.json")
    ]


def test_step_svg_of_a_diverging_response_is_exit_2(nominal_config_path, tmp_path, capsys):
    # the response leaves the float range; its plot once raised OverflowError
    # in the tick placement, and its data files were written before the plot
    # was refused
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.01", "--ki", "1e7", "--svg",
    ]) == 2
    err = capsys.readouterr().err
    assert "step response leaves the float range at t=0.0422" in err
    assert not (out / "step.svg").exists()
    assert list(out.iterdir()) == []


def test_step_of_a_diverging_response_is_exit_2(nominal_config_path, tmp_path, capsys):
    # once wrote a step.csv of inf/nan rows and a step_metrics.json that read
    # "response never reaches level nan"
    out = tmp_path / "out"
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "0.01", "--ki", "1e7",
    ]) == 2
    err = capsys.readouterr().err
    assert "step response leaves the float range at t=0.0422" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_step_of_a_finite_response_whose_tail_overflows_is_exit_2(
    nominal_config_path, tmp_path, capsys
):
    # the widest window whose every sample is finite, by bisection (its value
    # depends on the BLAS under expm): the tail's mean overflowed to -inf and
    # was written as a settled final value, and its plot raised OverflowError
    plant = derive_plant(load_params(nominal_config_path)).plant
    closed = close_unity_loop(compensated_loop(plant, PIGains(0.01, 1e7)))
    lo, hi = 0.01, 0.05
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        values = step_response(closed, mid, cli.DESIGN_STEP_SAMPLES).values
        lo, hi = (mid, hi) if np.isfinite(values).all() else (lo, mid)
    assert 0.04 < lo < 0.045
    for svg in ([], ["--svg"]):
        out = tmp_path / f"out{len(svg)}"
        assert run([
            "step", "--config", nominal_config_path, "--out-dir", str(out),
            "--kp", "0.01", "--ki", "1e7", "--t-end", repr(lo), *svg,
        ]) == 2
        err = capsys.readouterr().err
        assert "trailing mean" in err and "leaves the float range" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


def test_step_overshoot_grows_with_kp(nominal_config_path, tmp_path):
    outs = {}
    for kp in ("0.23", "10"):
        out = tmp_path / f"kp{kp}"
        assert run([
            "step", "--config", nominal_config_path, "--out-dir", str(out),
            "--kp", kp, "--ki", "1",
        ]) == 0
        outs[kp] = read_json(out / "step_metrics.json")
    assert outs["10"]["max_overshoot_pct"] > outs["0.23"]["max_overshoot_pct"]


def test_step_rejects_bad_window(nominal_config_path, tmp_path):
    assert run([
        "step", "--config", nominal_config_path,
        "--out-dir", str(tmp_path / "out"), "--uncompensated", "--t-end", "0",
    ]) == 2


@pytest.mark.parametrize("command,flags,names", [
    # about 1.2e13 samples: refused before anything is allocated
    ("simulate", ["--t-end", "1e6"], ["t_end", "steps_per_period"]),
    ("step", ["--uncompensated", "--samples", "100000000000"], ["samples"]),
    # 3e8 frequencies
    ("bode", [
        "--kp", "0.23", "--ki", "1", "--omega-min", "1e-150", "--omega-max", "1e150",
        "--points-per-decade", "1000000",
    ], ["points_per_decade"]),
])
def test_over_sample_budget_is_exit_2(
    nominal_config_path, tmp_path, capsys, command, flags, names
):
    out = tmp_path / "out"
    assert run([
        command, "--config", nominal_config_path, "--out-dir", str(out), *flags,
    ]) == 2
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    for name in names:
        assert name in err
    assert list(out.iterdir()) == []


def test_step_needs_gains_or_uncompensated(nominal_config_path, tmp_path, capsys):
    assert run([
        "step", "--config", nominal_config_path, "--out-dir", str(tmp_path / "out"),
    ]) == 2
    assert "--kp" in capsys.readouterr().err


def test_simulate_hold(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    code = run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--t-end", "0.01", "--from-operating-point",
    ])
    assert code == 0
    report = read_json(out / "regulation.json")
    assert report["passed"]
    assert report["final_vc_mean"] == pytest.approx(15.0, rel=0.02)
    assert report["gains"]["kp"] == pytest.approx(17.25, rel=1e-9)
    header, rows = read_csv(out / "sim.csv")
    assert header == ["time_s", "il_a", "vc_v", "duty", "switch_state"]
    assert rows[0][4] in ("0", "1")
    # the held operating point never idles, and the OFF-run pass commits
    # part of its periods' OFF runs
    simulator = read_json(out / "simulate_manifest.json")["simulator"]
    assert 0 < simulator.pop("off_run_substeps") < len(rows) - 1
    assert simulator == {
        "substeps": len(rows) - 1,
        "on_substeps": sum(row[4] == "1" for row in rows[:-1]),
        "zero_current_samples": 0,
        "first_zero_current_time_s": None,
        "periods_at_duty_limit": {"all_off": 0, "all_on": 0},
        "idle_run_substeps": 0,
        "dcm_encountered": False,
    }


def test_simulate_manifest_counts_on_substeps_and_zero_current(nominal_config_path, tmp_path):
    spp = 200
    nominal, step = tmp_path / "nominal", tmp_path / "step"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(nominal),
        "--t-end", "0.002",
    ]) == 4  # still rising from rest after 2 ms
    duty, il = read_columns(nominal / "sim.csv", "duty", "il_a")
    simulator = read_json(nominal / "simulate_manifest.json")["simulator"]
    # each period's duty is its ON count over spp
    assert simulator["on_substeps"] == round(float(duty[:-1:spp].sum()) * spp) > 0
    assert simulator["zero_current_samples"] == int((il == 0.0).sum())
    # from rest, the first sample has zero current
    assert simulator["first_zero_current_time_s"] == 0.0

    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(step),
        "--vg", "500", "--from-operating-point", "--t-end", "0.005",
    ]) == 4
    times, il, duty = read_columns(step / "sim.csv", "time_s", "il_a", "duty")
    simulator = read_json(step / "simulate_manifest.json")["simulator"]
    assert simulator["zero_current_samples"] == int((il == 0.0).sum()) > 0
    # the first sample at zero current, and the periods held fully OFF or ON
    assert simulator["first_zero_current_time_s"] == times[np.flatnonzero(il == 0.0)[0]] > 0.0
    period_duty = duty[:-1:spp]
    assert simulator["periods_at_duty_limit"] == {
        "all_off": int((period_duty == 0.0).sum()),
        "all_on": int((period_duty == 1.0).sum()),
    }
    assert simulator["periods_at_duty_limit"]["all_off"] > 0


def test_simulate_manifest_reports_the_duty_quantum(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--vg", "500", "--from-operating-point", "--steps-per-period", "50",
        "--t-end", "0.002",
    ]) == 4
    manifest = read_json(out / "simulate_manifest.json")
    # one duty step of 1/50 moves the output by 500/50 = 10 V, against a
    # band of 2 % of 15 V
    quantum = manifest["duty_quantum"]
    assert quantum["output_step_v"] == 10.0
    assert quantum["band_v"] == pytest.approx(0.3, rel=1e-12)
    assert quantum["exceeds_band"] is True
    # the last 10 periods, which duty_final averages
    duty, = read_columns(out / "sim.csv", "duty")
    trailing = duty[:-1:50][-10:]
    assert read_json(out / "regulation.json")["duty_final"] == pytest.approx(trailing.mean())
    assert quantum["trailing_periods"] == 10
    assert quantum["trailing_all_off"] == int((trailing == 0.0).sum()) > 0
    assert quantum["trailing_all_on"] == int((trailing == 1.0).sum())
    # spp 50 leaves no OFF run long enough for the OFF-run pass
    assert manifest["simulator"]["off_run_substeps"] == 0


def test_simulate_judged_window_follows_its_constant(nominal_config_path, tmp_path, monkeypatch):
    # duty_final and the manifest's trailing counts take their window from
    # switched_sim.JUDGED_PERIODS, which cli imports
    for periods in (switched_sim.JUDGED_PERIODS, 3):
        monkeypatch.setattr(switched_sim, "JUDGED_PERIODS", periods)
        monkeypatch.setattr(cli, "JUDGED_PERIODS", periods)
        out = tmp_path / f"out{periods}"
        assert run([
            "simulate", "--config", nominal_config_path, "--out-dir", str(out),
            "--t-end", "0.0005", "--steps-per-period", "20",
        ]) in (0, 4)
        duty, = read_columns(out / "sim.csv", "duty")
        trailing = duty[:-1:20][-periods:].tolist()
        assert read_json(out / "regulation.json")["duty_final"] == sum(trailing) / periods
        quantum = read_json(out / "simulate_manifest.json")["duty_quantum"]
        assert quantum["trailing_periods"] == periods
        assert quantum["trailing_all_off"] == trailing.count(0.0)


def test_simulate_manifest_counts_few_fallback_cells(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--t-end", "0.002",
    ]) == 4  # still rising from rest after 2 ms
    _, rows = read_csv(out / "sim.csv")
    emitted = read_json(out / "simulate_manifest.json")["csv"]["sim.csv"]
    assert emitted == {"rows": len(rows), "fallback_cells": fallback_count(rows)}
    # the first samples of the time column lie below 1e-4
    early = sum(0.0 < float(row[0]) < 1e-4 for row in rows)
    assert early > 0
    assert early <= emitted["fallback_cells"] < 0.02 * 5 * len(rows)


def test_simulate_on_a_1e_20_volt_scale(nominal_config_path, tmp_path):
    # every voltage and current lies far below 1e-4: written one cell at a
    # time, and plotted against ticks that do not collapse to 0
    config = _config(tmp_path, nominal_config_path, vg=3e-20, vo_target=1e-20, vref=1e-20)
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", config, "--out-dir", str(out), "--from-operating-point",
        "--t-end", "0.0005", "--steps-per-period", "20", "--svg",
    ]) == 0
    _, rows = read_csv(out / "sim.csv")
    tiny = [x for row in rows for x in map(float, row[1:3]) if x != 0.0]
    assert len(tiny) > len(rows) and all(abs(x) < 1e-18 for x in tiny)
    others = fallback_count([[row[0], *row[3:]] for row in rows])
    assert read_json(out / "simulate_manifest.json")["csv"] == {
        "sim.csv": {"rows": len(rows), "fallback_cells": len(tiny) + others}
    }

    svg = (out / "sim.svg").read_text()
    grid = re.findall(r'y1="([-\d.]+)" x2="\d+" y2="[-\d.]+" stroke="#eee"', svg)
    labels = re.findall(r'text-anchor="end">([^<]*)<', svg)
    assert len(grid) == len(labels) >= 3
    assert all(28 <= float(y) <= 28 + 220 for y in grid)
    assert len(set(labels)) == len(labels) and "0" not in labels


def test_simulate_svg_plots_the_written_trajectory(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--t-end", "0.002", "--svg",
    ]) == 4  # still rising from rest after 2 ms
    assert read_json(out / "simulate_manifest.json")["outputs"][-1] == str(out / "sim.svg")
    times, vc = read_columns(out / "sim.csv", "time_s", "vc_v")
    xs, ys = decimate_reference(times, vc)
    assert len(xs) < len(times)
    assert (out / "sim.svg").read_text() == timeseries_svg_reference(
        xs, ys, "time (s)", "vc (V)", "vg=30 V"
    )


def test_simulate_input_step_to_500(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    code = run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--vg", "500", "--from-operating-point", "--t-end", "0.7",
        "--steps-per-period", "50",
    ])
    assert code == 0
    report = read_json(out / "regulation.json")
    assert report["passed"]
    assert report["final_vc_mean"] == pytest.approx(15.0, rel=0.02)
    assert report["duty_final"] == pytest.approx(0.0306, abs=0.005)
    # the overshoot after the step idles with the integrator frozen, 9 % of the run
    simulator = read_json(out / "simulate_manifest.json")["simulator"]
    assert simulator["substeps"] == 2_100_000 and simulator["dcm_encountered"]
    assert 0.05 < simulator["idle_run_substeps"] / simulator["substeps"] < 0.15


def test_simulate_undervoltage_fails_regulation(nominal_config_path, tmp_path):
    out = tmp_path / "out"
    code = run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--vg", "10", "--t-end", "0.01",
    ])
    assert code == 4
    report = read_json(out / "regulation.json")
    assert not report["passed"]
    assert report["duty_final"] == 1.0
    assert report["duty_saturated"]
    # outputs are still written on regulation failure
    assert (out / "sim.csv").exists()


@pytest.mark.parametrize("vg", ["10", "14", "1e-10"])
def test_simulate_unreachable_source_fails_regulation(
    nominal_config_path, tmp_path, capsys, vg
):
    # started from the 30 V operating point, the output still coasts through
    # the tolerance band at the end of the window, but no duty holds 15 V
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--vg", vg, "--from-operating-point", "--t-end", "0.002",
    ]) == 4
    report = read_json(out / "regulation.json")
    assert report["deviation_pct"] <= report["tolerance_pct"] and not report["passed"]
    # the report names the reason: the source's full-duty output
    config = read_json(nominal_config_path)
    full = float(vg) * config["r_load"] / (config["r_load"] + config["r_l"])
    assert report["unreachable_target"] == {
        "full_duty_output_v": full, "shortfall_v": config["vo_target"] - full,
    }
    stdout = capsys.readouterr().out
    assert "at full duty" in stdout and "short of the 15 V target" in stdout
    assert "regulation FAIL" in stdout
    # the configured 30 V source reaches the target: no such key
    nominal = tmp_path / "nominal"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(nominal),
        "--from-operating-point", "--t-end", "0.002",
    ]) in (0, 4)
    assert "unreachable_target" not in read_json(nominal / "regulation.json")
    assert "at full duty" not in capsys.readouterr().out


def test_simulate_requires_gain_pair(nominal_config_path, tmp_path, capsys):
    assert run([
        "simulate", "--config", nominal_config_path,
        "--out-dir", str(tmp_path / "out"), "--kp", "0.23", "--t-end", "0.01",
    ]) == 2
    assert "--kp" in capsys.readouterr().err


def test_simulate_gains_are_duty_domain(nominal_config_path, tmp_path):
    # the duty-domain defaults given on the command line drive the same loop
    runs = {}
    for name, gains in (("default", []), ("given", ["--kp", "0.23", "--ki", "1"])):
        out = tmp_path / name
        assert run([
            "simulate", "--config", nominal_config_path, "--out-dir", str(out),
            "--from-operating-point", "--t-end", "0.002", *gains,
        ]) in (0, 4)
        runs[name] = out
    sims = [(runs[name] / "sim.csv").read_bytes() for name in ("given", "default")]
    assert sims[0] == sims[1]
    default = read_json(runs["default"] / "regulation.json")
    given = read_json(runs["given"] / "regulation.json")
    assert default["gains_source"] == (
        "duty-domain defaults (kp=0.23, ki=1.0) rescaled by vs/sensor_gain"
    )
    assert given.pop("gains_source") == (
        "command line (kp=0.23, ki=1.0) rescaled by vs/sensor_gain"
    )
    del default["gains_source"]
    assert given == default


def test_tuned_kp_goes_to_simulate_as_is(nominal_config_path, nominal_params, tmp_path):
    out = tmp_path / "out"
    tune = ["tune", "--config", nominal_config_path, "--out-dir", str(out)]
    assert run([*tune, "--target-pm", "50"]) == 0
    kp = read_json(out / "tune.json")["gains"]["kp"]
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", repr(kp), "--ki", "1", "--from-operating-point", "--t-end", "0.002",
    ]) in (0, 4)
    want = cli.pwm_equivalent_gains(PIGains(kp, 1.0), nominal_params)
    gains = read_json(out / "regulation.json")["gains"]
    assert (gains["kp"].hex(), gains["ki"].hex()) == (want.kp.hex(), want.ki.hex())


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_simulate_non_finite_t_end_is_exit_2(nominal_config_path, tmp_path, capsys, t_end):
    assert run([
        "simulate", "--config", nominal_config_path,
        "--out-dir", str(tmp_path / "out"), "--t-end", t_end,
    ]) == 2
    err = capsys.readouterr().err
    assert "t_end must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kp,ki,name", [
    ("nan", "1", "kp"), ("inf", "1", "kp"), ("1", "nan", "ki"), ("1", "-inf", "ki"),
])
def test_simulate_non_finite_gain_is_exit_2(
    nominal_config_path, tmp_path, capsys, kp, ki, name
):
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        f"--kp={kp}", f"--ki={ki}", "--t-end", "0.001",
    ]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not (out / "sim.csv").exists()


def test_simulate_gain_overflowing_the_pwm_rescale_is_exit_2(
    nominal_config_path, tmp_path, capsys
):
    # the duty-domain kp is finite; its PWM-loop equivalent, 75 times it, is not
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--kp", "1e307", "--ki", "1", "--t-end", "0.001",
    ]) == 2
    err = capsys.readouterr().err
    assert "vs*vo_target/vref = 75.0" in err and "kp must be finite, got inf" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("gains", [[], ["--kp", "0.23", "--ki", "1"]])
@pytest.mark.parametrize("sensor", ["inf", "nan", "0", "-0.5", "0.2"])
def test_simulate_bad_sensor_gain_is_exit_2(
    nominal_config_path, tmp_path, capsys, gains, sensor
):
    # the sensor gain is vref/vo_target of the config; no option sets it
    out = tmp_path / "out"
    assert run([
        "simulate", "--config", nominal_config_path, "--out-dir", str(out),
        "--sensor-gain", sensor, "--t-end", "0.001", *gains,
    ]) == 2
    assert "unrecognized arguments: --sensor-gain" in capsys.readouterr().err
    assert not out.exists()


def test_tune_overflowing_loop_variant_is_exit_2(nominal_config_path, tmp_path, capsys):
    # vref/vo_target = 1.3e299: the design report's variant with modulator and
    # sensor gains overflows on the margin window; the old report called it
    # stable, with no crossovers, after numpy's overflow warning
    config = _config(tmp_path, nominal_config_path, vo_target=1.5e-299)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["tune", "--config", config, "--out-dir", str(out), "--target-pm", "50"])
    assert code == 2
    err = capsys.readouterr().err
    assert "loop response is not finite on the margin window" in err
    assert "Traceback" not in err
    assert not (out / "tune.json").exists()


def test_simulate_non_finite_config_is_exit_2(nominal_config_path, tmp_path, capsys):
    doc = read_json(nominal_config_path)
    doc["l"] = math.inf
    config = tmp_path / "inf_l.json"
    config.write_text(json.dumps(doc))  # json writes the value as Infinity
    assert run([
        "simulate", "--config", str(config), "--out-dir", str(tmp_path / "out"),
        "--t-end", "0.01",
    ]) == 2
    assert "l must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,changes,message", [
    # r_load*c underflows; the old derive raised ZeroDivisionError
    (["derive"], {"r_load": 5e-324}, "r_load 5e-324 makes 1/(r_load*c) overflow"),
    # 1/l overflows; the old run judged a NaN trajectory "regulation FAIL"
    (["simulate", "--t-end", "0.001"], {"l": 5e-324}, "l 5e-324 makes 1/l overflow"),
    # the --vg override is checked like the config
    (["simulate", "--vg", "1.7e308", "--t-end", "0.001"], {},
     "vg 1.7e+308 makes vg/l overflow"),
    # vg*r_load/(r_load+r_l) underflows; the old derive raised ZeroDivisionError
    (["derive"], {"vg": 3e-149, "vo_target": 1e-150, "r_l": 1e300},
     "required duty inf is outside (0, 1]"),
    # a finite mode model whose exact ZOH map overflows
    (["simulate", "--from-operating-point", "--t-end", "0.0005", "--steps-per-period", "20"],
     {"vg": 1e300},
     "zero-order-hold map over dt="),
    # PWM thresholds vs/spp*k would round to or above a subnormal vs
    (["derive"], {"vs": 5.5e-323}, "vs must be a normal float"),
])
def test_out_of_range_model_is_exit_2(
    nominal_config_path, tmp_path, capsys, argv, changes, message
):
    config = _config(tmp_path, nominal_config_path, **changes)
    out = tmp_path / "out"
    assert run([argv[0], "--config", config, "--out-dir", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_tune_past_the_float_range_of_a_pole_cube_exits_cleanly(
    nominal_config_path, tmp_path, capsys
):
    # c = 1e-120: the design report's closed-loop cubic has a real root whose
    # cube overflows
    config = _config(tmp_path, nominal_config_path, c=1e-120)
    assert run([
        "tune", "--config", config, "--out-dir", str(tmp_path / "out"),
        "--target-pm", "100",
    ]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# values at or beyond the edges of physics and of the float range, set as a
# field's value or multiplied into it
CONTRACT_VALUES = (0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308)
CONTRACT_COMMANDS = (
    ("derive",),
    ("bode", "--kp", "0.23", "--ki", "1", "--svg"),
    ("tune", "--target-pm", "50"),
    ("step", "--kp", "0.23", "--ki", "1", "--samples", "1001", "--svg"),
    ("simulate", "--from-operating-point", "--t-end", "0.0005",
     "--steps-per-period", "20", "--svg"),
)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    changes=st.dictionaries(
        st.sampled_from(PARAM_FIELDS),
        st.tuples(st.booleans(), st.sampled_from(CONTRACT_VALUES)),
        min_size=1, max_size=3,
    ),
    command=st.sampled_from(CONTRACT_COMMANDS),
)
def test_exit_code_contract(nominal_config_path, changes, command):
    doc = read_json(nominal_config_path)
    for name, (scale, value) in changes.items():
        doc[name] = doc[name] * value if scale else value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "params.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        argv = [command[0], "--config", config, "--out-dir", out, *command[1:]]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        if code in (0, 4):
            for name in os.listdir(out):
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as fh:
                        assert "NaN" not in fh.read(), name


# option values at or beyond the edges of the float range, and integers that
# count nothing, one or too few
OPTION_FLOATS = (0.0, -0.0, 5e-324, 1e300, 1.7e308, math.inf, -math.inf, math.nan)
OPTION_INTS = (0, -1, -10**30, 1, 20)
# per command: the options every run sets, which keep it below about 1e5
# rows or substeps, and the options a draw may set, by type; a drawn value
# follows and so overrides a set one
OPTION_COMMANDS = {
    "bode": (
        ("--kp=0.23", "--ki=1", "--points-per-decade=2", "--svg"),
        {"--kp": float, "--ki": float, "--omega-min": float, "--omega-max": float,
         "--points-per-decade": int},
    ),
    "tune": (("--target-pm=50",), {"--ki": float, "--target-pm": float}),
    "step": (
        ("--kp=0.23", "--ki=1", "--samples=101", "--svg"),
        {"--kp": float, "--ki": float, "--t-end": float, "--samples": int},
    ),
    "simulate": (
        ("--t-end=0.0005", "--steps-per-period=20", "--svg"),
        {"--kp": float, "--ki": float, "--vg": float, "--t-end": float,
         "--steps-per-period": int, "--from-operating-point": bool},
    ),
}


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(sorted(OPTION_COMMANDS)), data=st.data())
def test_exit_code_contract_over_options(nominal_config_path, command, data):
    fixed, drawn = OPTION_COMMANDS[command]
    names = data.draw(st.lists(st.sampled_from(sorted(drawn)), min_size=1, max_size=3,
                               unique=True))
    argv = [command, "--config", nominal_config_path, *fixed]
    for name in names:
        if drawn[name] is bool:
            argv.append(name)
        else:
            pool = OPTION_INTS if drawn[name] is int else OPTION_FLOATS
            # "--x=-inf", since argparse reads a bare "-inf" as an option
            argv.append(f"{name}={data.draw(st.sampled_from(pool))!r}")
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*argv, "--out-dir", tmp])
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue()
        for name in os.listdir(tmp):
            if name.endswith(".json"):
                with open(os.path.join(tmp, name)) as fh:
                    assert "NaN" not in fh.read(), (argv, name)


@pytest.mark.parametrize("changes,message", [
    ({"vref": 0.0}, "vref must be positive, got 0.0"),
    ({"vref": 5e-324}, "vref 5e-324 makes vo_target/vref overflow"),
    ({"vo_target": 5e-324}, "vo_target 5e-324 makes vref/vo_target overflow"),
])
@pytest.mark.parametrize("command", CONTRACT_COMMANDS, ids=lambda c: c[0])
def test_sensor_gain_out_of_range_is_exit_2(
    nominal_config_path, tmp_path, capsys, command, changes, message
):
    config = _config(tmp_path, nominal_config_path, **changes)
    out = tmp_path / "out"
    assert run([command[0], "--config", config, "--out-dir", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", CONTRACT_COMMANDS[:4], ids=lambda c: c[0])
def test_design_commands_refuse_a_point_outside_ccm(
    nominal_config_path, tmp_path, capsys, command
):
    # at 100 ohm the nominal converter's ripple reaches below zero current:
    # I_L/(delta_i_L/2) is 0.600, the boundary is near 60 ohm
    config = _config(tmp_path, nominal_config_path, r_load=100.0)
    out = tmp_path / "out"
    assert run([command[0], "--config", config, "--out-dir", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "I_L/(delta_i_L/2) is 0.600, not above 1" in err and "Traceback" not in err
    assert list(out.iterdir()) == []
    # and names the load at the boundary
    assert "(it needs r_load below 60.0007 ohm)" in err


def test_simulate_runs_outside_ccm(nominal_config_path, tmp_path):
    # the switched model covers discontinuous conduction, so it is not refused
    config = _config(tmp_path, nominal_config_path, r_load=100.0)
    out = tmp_path / "out"
    code = run(["simulate", "--config", config, "--out-dir", str(out), *CONTRACT_COMMANDS[4][1:]])
    assert code in (0, 4)
    assert (out / "sim.csv").exists()
    # it started from an averaged operating point that does not hold there
    validity = read_json(out / "simulate_manifest.json")["model_validity"]
    assert validity["start_in_ccm"] is False
    assert validity["ccm_ratio"] == validity["start_ccm_ratio"] == pytest.approx(0.6, abs=5e-4)


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2


def test_write_csv_matches_per_cell_format(tmp_path):
    # more rows than one block, with the float values that format specially
    n = 2 * cli._CSV_BLOCK_ROWS + 3
    ramp = np.arange(n) / 7.0
    special = np.resize([-0.0, math.inf, -math.inf, math.nan, 0.1, 1e-310, -2.5e300], n)
    flags = np.arange(n) % 3 == 0
    path = tmp_path / "x.csv"
    cli._write_csv(str(path), "a,b,c", ramp, special, flags)
    expect = "a,b,c\n" + "".join(
        f"{r:.17g},{x:.17g},{'1' if q else '0'}\n" for r, x, q in zip(ramp, special, flags)
    )
    assert path.read_bytes() == expect.encode()


def _avx512_dispatch():
    """True when numpy reports an AVX-512 feature it can dispatch to."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return any(on for name, on in __cpu_features__.items() if "AVX512" in name)


# the five commands on the nominal config, each into its own directory
_FIVE_COMMANDS = """
import sys
from buckforge.cli import main
cfg, out = sys.argv[1:]
for argv in (
    ["derive"],
    ["bode", "--kp", "0.23", "--ki", "1", "--svg"],
    ["tune", "--target-pm", "50"],
    ["step", "--kp", "0.23", "--ki", "1", "--svg"],
    ["simulate", "--from-operating-point", "--t-end", "0.002"],
):
    if main([*argv, "--config", cfg, "--out-dir", f"{out}/{argv[0]}"]):
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.skipif(
    not _avx512_dispatch(),
    reason="numpy reports no AVX-512 feature here, so both runs use the same kernels",
)
def test_outputs_do_not_depend_on_numpy_simd_dispatch(nominal_config_path, tmp_path):
    # the same OpenBLAS environment in both runs; one turns numpy's AVX-512
    # dispatch off with the value perfbench/run.py pins, the other leaves it
    # on. np.logspace rounded 67 of bode.csv's 1201 frequencies differently.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    pinned = dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    files = {}
    for name, run_env in (("native", env), ("pinned", pinned)):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-c", _FIVE_COMMANDS, nominal_config_path, str(out)],
            env=run_env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        files[name] = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith("_manifest.json")
        }
    assert len(files["native"]) == 10
    for path, data in files["native"].items():
        assert data == files["pinned"][path], path
