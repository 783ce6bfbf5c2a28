"""Span tracing from outside the program, and the per-layer metrics it yields.

Public functions are wrapped at the module attributes where their callers
look them up (``buckforge.cli.simulate_closed_loop``,
``buckforge.pi_design.stability_margins``, ...), so the program itself is
not edited. Spans stay in memory as ``[name, start, end, parent, op]``
lists and are written out once, when the run ends. A span's layer is the
part of its name before the first dot; the module names of
``src/buckforge/`` are the layers, and ``bench`` is the harness itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name, keep the return value for counting)
TARGETS = (
    ("buckforge.cli", "main", "cli.main", False),
    ("buckforge.cli", "cmd_derive", "cli.derive", False),
    ("buckforge.cli", "cmd_bode", "cli.bode", False),
    ("buckforge.cli", "cmd_tune", "cli.tune", False),
    ("buckforge.cli", "cmd_step", "cli.step", False),
    ("buckforge.cli", "cmd_simulate", "cli.simulate", False),
    ("buckforge.cli", "_write_csv", "cli.emit_csv", False),
    ("buckforge.cli", "_write_json", "cli.emit_json", False),
    ("buckforge.cli", "load_params", "converter.load_params", False),
    ("buckforge.cli", "derive_plant", "averaging.derive_plant", False),
    ("buckforge.cli", "solve_duty", "averaging.solve_duty", False),
    ("buckforge.cli", "bode_sweep", "lti.bode_sweep", False),
    ("buckforge.cli", "stability_margins", "lti.stability_margins", False),
    ("buckforge.cli", "close_unity_loop", "lti.close_unity_loop", False),
    ("buckforge.cli", "tune_kp_for_pm", "pi_design.tune_kp_for_pm", False),
    ("buckforge.cli", "design_report", "pi_design.design_report", False),
    ("buckforge.cli", "step_response", "timedomain.step_response", True),
    ("buckforge.cli", "step_metrics", "timedomain.step_metrics", False),
    ("buckforge.cli", "bode_svg", "svg.bode_svg", False),
    ("buckforge.cli", "timeseries_svg", "svg.timeseries_svg", False),
    ("buckforge.cli", "pwm_equivalent_gains", "switched_sim.pwm_equivalent_gains", False),
    ("buckforge.cli", "simulate_closed_loop", "switched_sim.simulate_closed_loop", True),
    ("buckforge.cli", "regulation_report", "switched_sim.regulation_report", False),
    ("buckforge.pi_design", "stability_margins", "lti.stability_margins", False),
    ("buckforge.pi_design", "close_unity_loop", "lti.close_unity_loop", False),
    ("buckforge.pi_design", "step_response", "timedomain.step_response", True),
    ("buckforge.pi_design", "step_metrics", "timedomain.step_metrics", False),
    ("buckforge.switched_sim", "simulate_closed_loop", "switched_sim.simulate_closed_loop", True),
    ("buckforge.switched_sim", "regulation_report", "switched_sim.regulation_report", False),
    ("buckforge.switched_sim", "cycle_average", "switched_sim.cycle_average", True),
    ("buckforge.switched_sim", "pwm_equivalent_gains", "switched_sim.pwm_equivalent_gains", False),
    ("buckforge.averaging", "solve_duty", "averaging.solve_duty", False),
)

LAYERS = (
    "bench", "cli", "converter", "averaging", "lti", "pi_design",
    "timedomain", "switched_sim", "svg",
)
CLI_COMMANDS = ("derive", "bode", "tune", "step", "simulate")
# inclusive time per operation, reported as "<span name>.s"
TIMED_SPANS = (
    "switched_sim.simulate_closed_loop", "switched_sim.regulation_report",
    "lti.stability_margins", "lti.bode_sweep", "pi_design.tune_kp_for_pm",
    "pi_design.design_report", "timedomain.step_response",
    "timedomain.step_metrics", "svg.bode_svg", "svg.timeseries_svg",
    "averaging.derive_plant", "converter.load_params",
)
ROOT = "bench.op"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records nested spans for operations run in this thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._kept: list[tuple[int, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                self._kept.append((idx, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one is skipped."""
        for module_name, attr, name, keep in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, keep))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def begin_op(self) -> None:
        self.op += 1
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, 0.0, 0.0, -1, self.op])
        self.spans[-1][1] = time.perf_counter()

    def end_op(self) -> float:
        """Close the operation's root span; return its wall time."""
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        self._count_kept()
        return rec[2] - rec[1]

    def _count_kept(self) -> None:
        # runs after the operation's clock stopped, so counting costs it nothing
        for idx, result in self._kept:
            name = self.spans[idx][0]
            if name == "switched_sim.simulate_closed_loop":
                self.counts[idx] = {
                    "substeps": len(result.times) - 1,
                    "dcm_substeps": int((result.il == 0.0).sum()),
                }
            elif name == "timedomain.step_response":
                self.counts[idx] = {"samples": len(result.times)}
            elif name == "switched_sim.cycle_average":
                self.counts[idx] = {"periods": len(result)}
        self._kept.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Problems found: a span outside its parent or its operation, or self
    times of an operation that do not add up to its wall time."""
    problems = []
    wall: dict[int, float] = {}
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            parent = spans[rec[3]]
            if rec[1] < parent[1] or rec[2] > parent[2] or rec[4] != parent[4]:
                problems.append(f"span {i} ({rec[0]}) lies outside its parent")
        elif rec[0] == ROOT:
            wall[rec[4]] = rec[2] - rec[1]
        else:
            problems.append(f"span {i} ({rec[0]}) has no operation")
    total: dict[int, float] = {}
    for rec, s in zip(spans, self_times(spans)):
        total[rec[4]] = total.get(rec[4], 0.0) + s
    for op, w in wall.items():
        if abs(total[op] - w) > 1e-9 + 1e-9 * w:
            problems.append(f"op {op}: self times sum to {total[op]!r}, wall is {w!r}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, first_pass_ops: set[int], op_stats: dict[int, dict]) -> dict:
    """Per-layer metrics from the spans of all traced operations.

    Times are medians over traced operations; "ns_per" rates divide the
    summed span time by the summed work; counts are totals over the first
    traced pass, which runs each of the seed's inputs once, so they repeat
    exactly for a given seed. ``op_stats`` holds the rows and bytes the
    gate counted in each traced operation's files.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = sorted({rec[4] for rec in spans})
    per_op = {op: {} for op in ops}

    def add(op, key, value):
        per_op[op][key] = per_op[op].get(key, 0.0) + value

    # the "cli.<command>" span each span sits under, if any
    commands = {f"cli.{c}" for c in CLI_COMMANDS}
    command_of = [None] * len(spans)
    under_tune = [False] * len(spans)
    for i, rec in enumerate(spans):
        parent = rec[3]
        if parent >= 0:
            command_of[i] = command_of[parent]
            under_tune[i] = under_tune[parent] or spans[parent][0] == "pi_design.tune_kp_for_pm"
        if rec[0] in commands:
            command_of[i] = rec[0]

    work = {"substeps": 0, "dcm_substeps": 0, "samples": 0, "periods": 0}
    first = dict(work, margins_calls=0, pm_evals=0)
    for i, rec in enumerate(spans):
        name, op = rec[0], rec[4]
        dur = rec[2] - rec[1]
        add(op, f"layer.{_layer(name)}.self_s", selfs[i])
        add(op, f"{name}.s", dur)
        if _layer(name) == "cli" and command_of[i]:
            add(op, f"{command_of[i]}.self_s", selfs[i])
        for key, value in tracer.counts.get(i, {}).items():
            work[key] += value
            if op in first_pass_ops:
                first[key] += value
        if name == "lti.stability_margins" and op in first_pass_ops:
            first["margins_calls"] += 1
            first["pm_evals"] += int(under_tune[i])

    def median(key):
        return statistics.median(per_op[op].get(key, 0.0) for op in ops)

    total = {}
    for rec in spans:
        total[rec[0]] = total.get(rec[0], 0.0) + (rec[2] - rec[1])
    out = {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = (median(f"cli.{cmd}.self_s"), "s")
    all_rows = sum(op_stats[op]["rows"] for op in ops)
    out["cli.emit_ns_per_row"] = (1e9 * _ratio(total.get("cli.emit_csv", 0.0), all_rows), "ns")
    out["cli.rows_written"] = (sum(op_stats[op]["rows"] for op in first_pass_ops), "count")
    out["cli.bytes_written"] = (sum(op_stats[op]["bytes"] for op in first_pass_ops), "bytes")
    for name in TIMED_SPANS:
        out[f"{name}.s"] = (median(f"{name}.s"), "s")
    out["switched_sim.simulate_closed_loop.ns_per_substep"] = (
        1e9 * _ratio(total.get("switched_sim.simulate_closed_loop", 0.0), work["substeps"]),
        "ns",
    )
    out["switched_sim.simulate_closed_loop.substeps"] = (first["substeps"], "count")
    out["switched_sim.simulate_closed_loop.dcm_substeps"] = (first["dcm_substeps"], "count")
    out["switched_sim.periods"] = (first["periods"], "count")
    out["lti.stability_margins.calls"] = (first["margins_calls"], "count")
    out["pi_design.tune_kp_for_pm.pm_evals"] = (first["pm_evals"], "count")
    out["timedomain.step_response.ns_per_sample"] = (
        1e9 * _ratio(total.get("timedomain.step_response", 0.0), work["samples"]),
        "ns",
    )
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (median(f"layer.{layer}.self_s"), "s")
    return out
