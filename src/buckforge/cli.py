"""Command-line front end for the modeling, tuning, and simulation pipeline.

Exit codes: 0 success, 2 input or configuration error, 3 tuning target
infeasible, 4 regulation failure (the report is still written). Numeric
file output is written at 17 significant digits; console tables round to
4. All computation is deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .averaging import continuous_conduction, derive_plant, full_duty_output, solve_duty
from .converter import default_sensor_gain, load_params
from .csvtext import format_block
from .lti import bode_sweep, close_unity_loop, stability_margins
from .pi_design import (
    DESIGN_STEP_SAMPLES,
    DESIGN_STEP_T_END,
    PIGains,
    TuningError,
    compensated_loop,
    design_report,
    published_gain_reference,
    tune_kp_for_pm,
)
from .svg import bode_svg, timeseries_svg
from .switched_sim import (
    JUDGED_PERIODS,
    REGULATION_TOLERANCE_PCT,
    SimConfig,
    pwm_equivalent_gains,
    regulation_report,
    simulate_closed_loop,
)
from .timedomain import NotSettledError, step_metrics, step_response

# duty-domain gains assumed when the simulate command gets none; simulate
# rescales every gain by vs*vo_target/vref (vs over the sensor divider)
# before it drives the PWM loop
DEFAULT_ANALYSIS_GAINS = PIGains(0.23, 1.0)

# a gain crossover above this fraction of fs is flagged in the manifest: the
# averaged plant describes the loop only well below the switching frequency
CROSSOVER_FS_LIMIT = 0.1


def _fmt4(x: float) -> str:
    return f"{x:.4g}"


def _write_json(path: str, obj) -> None:
    # json.dump would write each of the encoder's many small chunks apart
    text = json.dumps(obj, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# rows formatted per block: formatting whole columns at once multiplies
# peak memory on long simulations
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, header: str, *columns) -> dict:
    """One row per index across equal-length 1-D arrays, each cell "%.17g".

    Booleans print as 1 and 0. Returns the manifest's account of the file:
    its rows, and the cells that `csvtext.format_block` formatted one at a time.
    """
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    fallback_cells = 0
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, lengths[0], _CSV_BLOCK_ROWS):
            text, slow = format_block([col[lo : lo + _CSV_BLOCK_ROWS] for col in columns])
            fh.write(text)
            fallback_cells += slow
            del text  # freed before the next block is formatted, to bound peak memory
    return {"rows": lengths[0], "fallback_cells": fallback_cells}


def _write_svg(args, name: str, svg: str) -> str:
    path = os.path.join(args.out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return path


class _StageClock:
    """Wall seconds of a command's stages, for its manifest's `timing_s`:
    each `lap` closes the stage that ran since the previous lap, or since
    the clock was made."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _write_manifest(
    args, p, outputs: list[str], clock: _StageClock, extra: dict | None = None,
) -> None:
    """Write `<command>_manifest.json`, whose `resolved_config` holds the
    parameters `p` and every parsed option and whose `timing_s` holds the
    stages `clock` timed, and name the outputs on stdout."""
    options = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = {
        "command": args.command,
        "params_source": args.config,
        "resolved_config": {"converter_params": dataclasses.asdict(p), "options": options},
        "outputs": outputs,
        "tool_version": __version__,
        "timing_s": clock.seconds,
        **(extra or {}),
    }
    _write_json(os.path.join(args.out_dir, f"{args.command}_manifest.json"), manifest)
    if outputs:
        print(f"wrote {', '.join(outputs)}")


def _ccm_validity(p, op) -> dict:
    """The manifest's `model_validity` of an operating point: its ratio
    I_L/(delta_i_L/2), above 1 in continuous conduction mode."""
    return {"ccm_ratio": continuous_conduction(p, op)[0]}


def _loop_validity(p, op, crossover: float | None) -> dict:
    """`_ccm_validity`, and a loop's gain crossover (rad/s, None where there
    is none) as a fraction of fs, flagged above CROSSOVER_FS_LIMIT."""
    ratio = None if crossover is None else crossover / (2.0 * math.pi) / p.fs
    return {
        **_ccm_validity(p, op),
        "crossover_to_fs": ratio,
        "crossover_above_fs_limit": ratio is not None and ratio > CROSSOVER_FS_LIMIT,
    }


def cmd_derive(args) -> int:
    clock = _StageClock()
    p = load_params(args.config)
    derivation = derive_plant(p)
    op = derivation.operating_point
    clock.lap("model")
    doc = {
        "converter_params": dataclasses.asdict(p),
        "mode_on": dataclasses.asdict(derivation.mode_on),
        "mode_off": dataclasses.asdict(derivation.mode_off),
        "operating_point": dataclasses.asdict(op),
        "small_signal": dataclasses.asdict(derivation.small_signal),
        "transfer_function": dataclasses.asdict(derivation.plant),
    }
    out = os.path.join(args.out_dir, "derive.json")
    _write_json(out, doc)
    print(f"duty cycle D = {_fmt4(op.duty)}")
    print(f"equilibrium: il = {_fmt4(op.il)} A, vc = {_fmt4(op.vc)} V")
    print(
        "duty-to-output: "
        f"{_fmt4(derivation.plant.num[-1])} / "
        f"(s^2 + {_fmt4(derivation.plant.den[1])} s + {_fmt4(derivation.plant.den[2])})"
    )
    clock.lap("emit")
    _write_manifest(args, p, [out], clock, {"model_validity": _ccm_validity(p, op)})
    return 0


def cmd_bode(args) -> int:
    clock = _StageClock()
    p = load_params(args.config)
    gains = PIGains(args.kp, args.ki)
    derivation = derive_plant(p)
    loop = compensated_loop(derivation.plant, gains)
    clock.lap("model")
    sweep = bode_sweep(loop, args.omega_min, args.omega_max, args.points_per_decade)
    clock.lap("sweep")
    margins = stability_margins(loop)
    clock.lap("margins")

    csv_path = os.path.join(args.out_dir, "bode.csv")
    emitted = {"bode.csv": _write_csv(csv_path, "omega_rad_s,magnitude_db,phase_deg", *sweep)}
    margins_path = os.path.join(args.out_dir, "margins.json")
    _write_json(margins_path, dataclasses.asdict(margins))
    outputs = [csv_path, margins_path]
    if args.svg:
        title = f"open loop, kp={_fmt4(gains.kp)} ki={_fmt4(gains.ki)}"
        outputs.append(_write_svg(args, "bode.svg", bode_svg(sweep, margins, title)))
    pm = margins.phase_margin_deg
    gm = margins.gain_margin_db
    print(f"phase margin: {_fmt4(pm) if pm is not None else 'none'} deg")
    print(f"gain margin: {_fmt4(gm) if math.isfinite(gm) else 'infinite'} dB")
    print(f"stable loop: {margins.stable_loop}")
    clock.lap("emit")
    validity = _loop_validity(p, derivation.operating_point, margins.gain_crossover)
    _write_manifest(args, p, outputs, clock, {"csv": emitted, "model_validity": validity})
    return 0


def cmd_tune(args) -> int:
    clock = _StageClock()
    p = load_params(args.config)
    derivation = derive_plant(p)
    plant = derivation.plant
    clock.lap("model")
    try:
        result = tune_kp_for_pm(plant, args.ki, args.target_pm)
    except TuningError as exc:
        # the failed search still explains itself in the manifest
        clock.lap("search")
        extra = {"model_validity": _ccm_validity(p, derivation.operating_point)}
        if exc.trace:
            extra["tuning_trace"] = dataclasses.asdict(exc.trace)
        _write_manifest(args, p, [], clock, extra)
        raise
    clock.lap("search")
    report = design_report(plant, result.gains, p)
    clock.lap("report")
    # the report's margins are those the search accepted the tuned kp on
    margins = report["loop_variants"]["plant_times_pi"]
    doc = {
        "target_phase_margin_deg": args.target_pm,
        "gains": dataclasses.asdict(result.gains),
        "achieved_margins": margins,
        "design_report": report,
    }
    published = published_gain_reference(args.target_pm)
    if published is not None:
        doc["published_gain_reference"] = published
    out = os.path.join(args.out_dir, "tune.json")
    _write_json(out, doc)
    print(
        f"kp = {_fmt4(result.gains.kp)} reaches "
        f"{_fmt4(margins['phase_margin_deg'])} deg phase margin "
        f"(target {_fmt4(args.target_pm)})"
    )
    clock.lap("emit")
    validity = _loop_validity(p, derivation.operating_point, margins["gain_crossover"])
    _write_manifest(
        args, p, [out], clock,
        {"tuning_trace": dataclasses.asdict(result.trace), "model_validity": validity},
    )
    return 0


def _gain_pair(args) -> PIGains | None:
    """PIGains from --kp and --ki, or None when neither is given."""
    if args.kp is None and args.ki is None:
        return None
    if args.kp is None or args.ki is None:
        raise ValueError(f"{args.command} takes --kp and --ki together, not one alone")
    return PIGains(args.kp, args.ki)


def cmd_step(args) -> int:
    clock = _StageClock()
    p = load_params(args.config)
    derivation = derive_plant(p)
    plant = derivation.plant
    if args.uncompensated:
        if args.kp is not None or args.ki is not None:
            raise ValueError(
                "step --uncompensated takes no --kp or --ki: it runs no controller"
            )
        loop = plant
        label = "uncompensated unity feedback"
    else:
        gains = _gain_pair(args)
        if gains is None:
            raise ValueError("step needs --kp and --ki, or --uncompensated")
        loop = compensated_loop(plant, gains)
        label = f"kp={_fmt4(gains.kp)} ki={_fmt4(gains.ki)}"
    closed = close_unity_loop(loop)
    clock.lap("model")
    traj = step_response(closed, args.t_end, args.samples)
    clock.lap("response")
    # before any file is written: step_metrics refuses a non-finite response
    try:
        metrics = step_metrics(traj, 1.0)
        doc, code = dataclasses.asdict(metrics), 0
        print(
            f"{label}: final {_fmt4(metrics.final_value)}, "
            f"overshoot {_fmt4(metrics.max_overshoot_pct)}%, "
            f"settling {_fmt4(metrics.settling_time)} s"
        )
    except NotSettledError as exc:
        doc, code = {"error": str(exc)}, 2
        print(f"error: {exc}", file=sys.stderr)
    clock.lap("metrics")

    csv_path = os.path.join(args.out_dir, "step.csv")
    emitted = {"step.csv": _write_csv(csv_path, "time_s,output", traj.times, traj.values)}
    metrics_path = os.path.join(args.out_dir, "step_metrics.json")
    _write_json(metrics_path, doc)
    outputs = [csv_path, metrics_path]
    if args.svg:
        svg = timeseries_svg(traj.times, traj.values, "time (s)", "output", label)
        outputs.append(_write_svg(args, "step.svg", svg))
    clock.lap("emit")
    validity = _ccm_validity(p, derivation.operating_point)
    _write_manifest(args, p, outputs, clock, {"csv": emitted, "model_validity": validity})
    return code


def cmd_simulate(args) -> int:
    clock = _StageClock()
    configured = p = load_params(args.config)
    sensor = default_sensor_gain(p)
    duty_gains, source = _gain_pair(args), "command line"
    if duty_gains is None:
        duty_gains, source = DEFAULT_ANALYSIS_GAINS, "duty-domain defaults"
    gains = pwm_equivalent_gains(duty_gains, p)
    gains_source = (
        f"{source} (kp={duty_gains.kp}, ki={duty_gains.ki}) rescaled by vs/sensor_gain"
    )

    initial = (0.0, 0.0)
    integrator_init = 0.0
    start_ccm = (None, None)  # from rest
    if args.from_operating_point:
        op = solve_duty(p)  # operating point at the configured vg
        initial = (op.il, op.vc)
        integrator_init = op.duty * p.vs
        start_ccm = continuous_conduction(p, op)
    if args.vg is not None:
        p = dataclasses.replace(p, vg=args.vg)

    cfg = SimConfig(
        t_end=args.t_end,
        gains=gains,
        steps_per_period=args.steps_per_period,
        initial_state=initial,
        integrator_init=integrator_init,
    )
    traj = simulate_closed_loop(p, cfg)
    clock.lap("simulate")
    report = regulation_report(traj, p)
    clock.lap("report")

    csv_path = os.path.join(args.out_dir, "sim.csv")
    emitted = {"sim.csv": _write_csv(
        csv_path,
        "time_s,il_a,vc_v,duty,switch_state",
        traj.times,
        traj.il,
        traj.vc,
        traj.duty_cmd,
        traj.switch_state,
    )}
    report_path = os.path.join(args.out_dir, "regulation.json")
    doc = dataclasses.asdict(report)
    doc["gains"] = dataclasses.asdict(gains)
    doc["gains_source"] = gains_source
    doc["sensor_gain"] = sensor
    full = full_duty_output(p)
    shortfall = p.vo_target - full
    if shortfall > 0.0:
        # why regulation fails however close the final cycle came
        doc["unreachable_target"] = {"full_duty_output_v": full, "shortfall_v": shortfall}
    _write_json(report_path, doc)
    outputs = [csv_path, report_path]
    if args.svg:
        title = f"vg={_fmt4(p.vg)} V"
        svg = timeseries_svg(traj.times, traj.vc, "time (s)", "vc (V)", title)
        outputs.append(_write_svg(args, "sim.svg", svg))
    print(
        f"vg={_fmt4(p.vg)} V: final-cycle vc = {_fmt4(report.final_vc_mean)} V "
        f"({_fmt4(report.deviation_pct)}% off target), duty = {_fmt4(report.duty_final)}"
    )
    if shortfall > 0.0:
        print(
            f"vg={_fmt4(p.vg)} V holds at most {_fmt4(full)} V at full duty, "
            f"{_fmt4(shortfall)} V short of the {_fmt4(p.vo_target)} V target"
        )
    print(f"regulation {'PASS' if report.passed else 'FAIL'}")
    clock.lap("emit")
    # counted from the returned arrays, so the kernel pays nothing per substep
    zero_current = traj.il == 0.0
    zero_current_samples = int(zero_current.sum())
    spp = traj.steps_per_period
    period_duty = traj.duty_cmd[:-1:spp]
    simulator = {
        "substeps": len(traj.times) - 1,
        "on_substeps": int(traj.switch_state[:-1].sum()),
        "zero_current_samples": zero_current_samples,
        "first_zero_current_time_s": (
            float(traj.times[zero_current.argmax()]) if zero_current_samples else None
        ),
        "periods_at_duty_limit": {
            "all_off": int((period_duty == 0.0).sum()),
            "all_on": int((period_duty == 1.0).sum()),
        },
        "idle_run_substeps": traj.idle_run_substeps,
        "run_ahead_substeps": traj.run_ahead_substeps,
        "dcm_encountered": traj.dcm_encountered,
    }
    # one step of the comparator's duty grid moves the output by vg/spp; the
    # trailing periods are those that regulation_report's duty_final averages
    output_step, band = p.vg / spp, REGULATION_TOLERANCE_PCT / 100.0 * p.vo_target
    trailing = period_duty[-JUDGED_PERIODS:]
    duty_quantum = {
        "output_step_v": output_step,
        "band_v": band,
        "exceeds_band": output_step > band,
        "trailing_periods": len(trailing),
        "trailing_all_off": int((trailing == 0.0).sum()),
        "trailing_all_on": int((trailing == 1.0).sum()),
    }
    # the run's settings that no option holds
    pwm_loop = {
        "gains": dataclasses.asdict(gains),
        "sensor_gain": sensor,
        "initial_state": list(initial),
        "integrator_init": integrator_init,
    }
    try:
        # at the operating point that regulates the simulated source
        ccm_ratio = continuous_conduction(p, solve_duty(p))[0]
    except ValueError:  # no duty reaches vo_target
        ccm_ratio = None
    validity = {
        "ccm_ratio": ccm_ratio, "start_ccm_ratio": start_ccm[0], "start_in_ccm": start_ccm[1],
    }
    _write_manifest(args, configured, outputs, clock, {
        "pwm_loop": pwm_loop, "csv": emitted, "simulator": simulator,
        "duty_quantum": duty_quantum, "model_validity": validity,
    })
    return 0 if report.passed else 4


# built once per process: argparse asks for the terminal size on every
# add_argument, which costs about a millisecond per build
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buckforge",
        description=(
            "Model a buck converter by state-space averaging, analyze and tune "
            "PI feedback in the frequency domain, and validate with linear and "
            "switched-mode PWM simulation."
        ),
        epilog=(
            "Exit codes: 0 success, 2 input/config error, 3 tuning infeasible, "
            "4 regulation failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="converter parameter JSON")
        sp.add_argument("--out-dir", default="./out", help="output directory")

    sp = sub.add_parser("derive", help="mode models, equilibrium, duty, plant")
    common(sp)

    sp = sub.add_parser("bode", help="frequency sweep and stability margins")
    common(sp)
    sp.add_argument("--kp", type=float, required=True)
    sp.add_argument("--ki", type=float, required=True)
    sp.add_argument("--omega-min", type=float, default=1.0)
    sp.add_argument("--omega-max", type=float, default=1e6)
    sp.add_argument("--points-per-decade", type=int, default=200)
    sp.add_argument("--svg", action="store_true", help="also write a two-panel plot")

    sp = sub.add_parser("tune", help="search kp for a phase-margin target")
    common(sp)
    sp.add_argument("--ki", type=float, default=1.0)
    sp.add_argument("--target-pm", type=float, required=True, help="degrees")

    sp = sub.add_parser("step", help="closed-loop unit step and metrics")
    common(sp)
    sp.add_argument("--kp", type=float)
    sp.add_argument("--ki", type=float)
    sp.add_argument("--uncompensated", action="store_true",
                    help="unity feedback around the bare plant")
    sp.add_argument("--t-end", type=float, default=DESIGN_STEP_T_END)
    sp.add_argument("--samples", type=int, default=DESIGN_STEP_SAMPLES)
    sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("simulate", help="switched-mode PWM closed loop")
    common(sp)
    sp.add_argument("--kp", type=float, help="duty-domain proportional gain")
    sp.add_argument("--ki", type=float, help="duty-domain integral gain")
    sp.add_argument("--vg", type=float, help="override the source voltage")
    sp.add_argument("--t-end", type=float, default=0.05)
    sp.add_argument("--steps-per-period", type=int, default=200)
    sp.add_argument("--from-operating-point", action="store_true",
                    help="start at the configured-vg operating point "
                         "(input-step experiment) instead of rest")
    sp.add_argument("--svg", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        # looked up at call time, not bound into the cached parser, so a
        # wrapper installed on the module attribute (perfbench's tracer) runs
        return globals()[f"cmd_{args.command}"](args)
    except TuningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
