"""Runs one workload in a fresh process and prints its raw results as JSON.

Started by ``run.py`` with the checkout as working directory and ``src``
on ``PYTHONPATH``. One client, one thread: each operation starts after the
previous one returned and was checked against the gate.

An untraced run times each operation of the program back to back with the
same operation of the seed commit's frozen copy (``baseline/``), in
alternating order, and reports the ratio of each pair. A pair takes a
second or two at most, so a slow stretch of a shared host slows both
sides of it alike. ``--no-reference`` runs the program alone.

    python3 perfbench/worker.py --workload line_sweep --seed 1 --seconds 25 \\
        --trace 0 --work-dir .perfbench_work/run
    python3 perfbench/worker.py --record perfbench/expected.json --work-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(HERE, "baseline"))

import tracing  # noqa: E402
from workloads import PROGRAM, SEED_COPY, WORKLOADS, input_key, mismatch, package  # noqa: E402


def _clear(out_dir: str) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)


def record_all(path: str, work_dir: str) -> None:
    """Run every input of every workload's pool once and store its record."""
    out_dir = os.path.join(work_dir, "out")
    doc = {}
    for name, cls in WORKLOADS.items():
        wl = cls(work_dir, package(PROGRAM))
        doc[name] = {}
        for inp in cls.pool():
            _clear(out_dir)
            result = wl.run(wl.prepare(inp), out_dir)
            doc[name][input_key(inp)], _ = wl.record(result, out_dir)
        print(f"{name}: {len(doc[name])} inputs recorded", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, name in enumerate(doc):
            fh.write(f' "{name}": {{\n')
            items = list(doc[name].items())
            for j, (key, rec) in enumerate(items):
                sep = "," if j + 1 < len(items) else ""
                fh.write(f"  {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}{sep}\n")
            fh.write(" }" + ("," if i + 1 < len(doc) else "") + "\n")
        fh.write("}\n")


def run(args) -> dict:
    cls = WORKLOADS[args.workload]
    wl = cls(args.work_dir, package(PROGRAM))
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[cls.name]
    inputs = cls.inputs(args.seed)
    if args.tiny:
        inputs = inputs[:2]
    prepared = [(input_key(inp), wl.prepare(inp)) for inp in inputs]
    out_dir = os.path.join(args.work_dir, "out")
    tracer = tracing.Tracer() if args.trace else None
    paired = tracer is None and not args.no_reference
    if paired:
        ref = cls(args.work_dir, package(SEED_COPY))
        ref_prepared = [ref.prepare(inp) for inp in inputs]

    attempted = failed = 0
    reasons: list[str] = []

    def check(key, result, who=wl):
        nonlocal attempted, failed
        got, stats = who.record(result, out_dir)
        problems = mismatch(expected.get(key), got)
        attempted += 1
        if problems:
            failed += 1
            if len(reasons) < 5:
                where = "" if who is wl else " (seed copy)"
                reasons.append(f"{key}{where}: " + "; ".join(problems))
        return stats

    # warm-up operations: untimed, but gated, and used to test the gate itself
    key, arg = prepared[0]
    if paired:
        # the seed copy must reproduce the recorded outputs, or it is not the seed
        _clear(out_dir)
        check(key, ref.run(ref_prepared[0], out_dir), ref)
    _clear(out_dir)
    result = wl.run(arg, out_dir)
    check(key, result)
    corrupted = wl.corrupt(out_dir, result)
    gate_self_test = bool(mismatch(expected.get(key), wl.record(corrupted, out_dir)[0]))

    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    ratios: list[float] = []  # program wall / seed copy wall, per pair
    # fastest untraced wall time and the substeps of each input
    best = [float("inf")] * len(prepared)
    input_substeps = [0] * len(prepared)
    op_stats: dict[int, dict] = {}  # traced operations only
    first_pass_ops: set[int] = set()
    deadline = time.perf_counter() + args.seconds
    pass_index = 0
    # the first pass runs whole, so every input has a fastest time; a traced
    # run makes at least one traced pass and one untraced operation
    done = False
    while not done:
        # in a traced run every other pass is traced, so both halves see
        # the same inputs and their difference is the tracing overhead
        traced = tracer is not None and pass_index % 2 == 0
        if traced:
            tracer.install()
        for i, (key, arg) in enumerate(prepared):
            # the seed copy goes first in every other pair
            seed_first = paired and len(ratios) % 2 == 1
            if seed_first:
                ref_wall = _timed(ref, ref_prepared[i], out_dir)
            if cls.writes_files:
                _clear(out_dir)
            if traced:
                tracer.begin_op()
                result = wl.run(arg, out_dir)
                wall = tracer.end_op()
            else:
                t0 = time.perf_counter()
                result = wl.run(arg, out_dir)
                wall = time.perf_counter() - t0
                best[i] = min(best[i], wall)
            stats = check(key, result)
            if paired:
                if not seed_first:
                    ref_wall = _timed(ref, ref_prepared[i], out_dir)
                ratios.append(wall / ref_wall)
            walls["traced" if traced else "untraced"].append(wall)
            input_substeps[i] = stats["substeps"]
            if traced:
                op_stats[tracer.op] = stats
                if pass_index == 0:
                    first_pass_ops.add(tracer.op)
            first_pass_whole = pass_index >= 1 or i == len(prepared) - 1
            if first_pass_whole and walls["untraced"] and time.perf_counter() >= deadline:
                done = True
                break
        if traced:
            tracer.uninstall()
        pass_index += 1

    out = {
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "gate_self_test": gate_self_test,
        "walls": walls,
        "ratios": ratios,
        "best_walls": best,
        "pass_substeps": sum(input_substeps),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        out.update(
            trace_problems=tracing.check_nesting(tracer.spans)[:5],
            per_layer=tracing.layer_metrics(tracer, first_pass_ops, op_stats),
        )
        tracer.write(os.path.join(args.work_dir, "spans.json"))
    return out


def _timed(wl, arg, out_dir: str) -> float:
    """Wall time of one operation of ``wl``; its outputs are not kept."""
    if wl.writes_files:
        _clear(out_dir)
    t0 = time.perf_counter()
    wl.run(arg, out_dir)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--no-reference", action="store_true",
                        help="run the program alone, without the seed copy")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args()
    if args.record:
        record_all(args.record, args.work_dir)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
