"""buckforge benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25   # every workload, one table
    python3 perfbench/run.py --smoke                       # tiny runs, checks every metric
    python3 perfbench/run.py --record                      # rewrite expected.json

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--record`` is for the commit whose outputs define correct results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("design_sweep", "input_step_500", "line_sweep")
WORK_ROOT = ".perfbench_work"
SETUP_REPEATS = 8
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
IMPORTED = (
    "buckforge", "buckforge.converter", "buckforge.averaging", "buckforge.lti",
    "buckforge.pi_design", "buckforge.timedomain", "buckforge.switched_sim",
    "buckforge.svg", "buckforge.cli", "numpy", "scipy.linalg",
)
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import buckforge.cli\n"
    "buckforge.cli.load_params('configs/buck_nominal.json')\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env() -> dict:
    """Environment of every child: the source tree, and pinned numerics.

    OpenBLAS and NumPy pick kernels by CPU, and the kernels round
    differently, so output bytes would differ between hosts. Pinning the
    AVX2 kernels gives the bytes ``expected.json`` was recorded with on any
    x86-64 host with AVX2 and FMA. One BLAS thread keeps the client single
    threaded.
    """
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_CORETYPE="Haswell",
        OPENBLAS_NUM_THREADS="1",
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    return env


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and reaped."""
    try:
        return subprocess.run(
            argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"child timed out after {exc.timeout} s: {argv}") from None


def _checked(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{what} failed with exit code {proc.returncode}")
    return proc.stdout


def measure_setup(repeats: int) -> list[float]:
    """Import buckforge.cli and load the config, each in a fresh process."""
    values = []
    for _ in range(repeats):
        out = _checked(_child([sys.executable, "-c", SETUP_CODE]), "setup child")
        values.append(float(out.strip().splitlines()[-1]))
    return values


def measure_imports() -> dict[str, float]:
    """Cumulative import time of each module, median of fresh processes."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORTED}
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")
    for _ in range(IMPORT_REPEATS):
        proc = _child([sys.executable, "-X", "importtime", "-c", "import buckforge.cli"])
        _checked(proc, "import-time child")
        seen = {}
        for m in line.finditer(proc.stderr):
            seen[m.group(3)] = int(m.group(2)) * 1e-6
        for module in IMPORTED:
            samples[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it, and its name.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported and named p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "p100"
    k = n - 11
    return ordered[k], f"p{math.floor(100 * (k + 1) / n)}"


def _worker(workload: str, seed: int, seconds: float, trace: int, work_dir: str,
            tiny: bool, *extra: str) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", work_dir, *extra,
    ] + (["--tiny"] if tiny else [])
    return json.loads(_checked(_child(argv), f"{workload} worker").strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """Returns (result line, notes) for one run of one workload."""
    work_dir = os.path.join(WORK_ROOT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        setup, memory, imports = [], None, {}
        if trace:
            raw = _worker(workload, seed, seconds, trace, work_dir, tiny)
            imports = measure_imports()
        else:
            # half the set-up samples before the workload and half after it,
            # so that one slow stretch of the host holds fewer of them; the
            # first child writes the bytecode caches and is not counted
            setup = measure_setup(SETUP_REPEATS // 2 + 1)[1:]
            raw = _worker(workload, seed, seconds, trace, work_dir, tiny)
            # peak memory of the program alone, in a fresh process; the inputs
            # of a workload differ little in size, so two of them are enough
            memory = _worker(workload, seed, 0.0, 0, work_dir, True, "--no-reference")
            setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        # keep only the spans of a traced run
        for name in os.listdir(work_dir):
            if name != "spans.json":
                path = os.path.join(work_dir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
        if not os.listdir(work_dir):
            os.rmdir(work_dir)

    attempted, failed = raw["attempted"], raw["failed"]
    reasons, self_tests = raw["reasons"], [raw["gate_self_test"]]
    if memory:
        attempted += memory["attempted"]
        failed += memory["failed"]
        reasons += memory["reasons"]
        self_tests.append(memory["gate_self_test"])
    notes = [f"{workload}: seed {seed}, {attempted} operations attempted, "
             f"{failed} failed (failed_ratio {failed / attempted:.4g})"]
    notes += [f"  gate mismatch: {r}" for r in reasons]
    correct = failed == 0 and all(self_tests)
    if not all(self_tests):
        notes.append("  gate self-test: a corrupted output was not flagged")
    walls = raw["walls"]["untraced"]
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw["per_layer"].items()}
        overhead = statistics.median(raw["walls"]["traced"]) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for module, value in imports.items():
            metrics[f"import.{module}.s"] = {"value": value, "unit": "s"}
        if raw["trace_problems"]:
            correct = False
            notes += [f"  trace: {p}" for p in raw["trace_problems"]]
        notes.append(f"  traced operations: {len(raw['walls']['traced'])}, untraced: "
                     f"{len(walls)}; spans in {work_dir}/spans.json")
    else:
        metrics = {
            "wall_vs_seed_p50": {"value": statistics.median(raw["ratios"]), "unit": "ratio"},
            "peak_rss_mb": {"value": memory["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        notes.append(f"  wall_vs_seed_p50 over {len(raw['ratios'])} pairs of operations; "
                     f"peak_rss_mb over {len(memory['walls']['untraced'])} operations; "
                     f"setup_s is the median of {len(setup)} fresh processes")
        # absolute times follow the host's load as much as the program
        best = raw["best_walls"]
        tail_value, tail_name = tail(walls)
        notes.append(f"  not bounded, over {len(walls)} operations of the program: "
                     f"wall_s_p50 {statistics.median(walls):.6g} s, "
                     f"wall_s_tail ({tail_name}) {tail_value:.6g} s, "
                     f"wall_s_best {sum(best) / len(best):.6g} s (mean of each input's fastest), "
                     f"ops_per_s {len(walls) / sum(walls):.6g} 1/s, "
                     f"substeps_per_s {raw['pass_substeps'] / sum(best):.6g} 1/s at the fastest")
    for name, m in metrics.items():
        notes.append(f"  {name:55s} {m['value']:>16.6g} {m['unit']}")
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, notes


def _checkout_ok() -> bool:
    needed = (os.path.join("src", "buckforge", "cli.py"), os.path.join("configs", "buck_nominal.json"))
    missing = [p for p in needed if not os.path.isfile(p)]
    for p in missing:
        print(f"error: {p} not found; run from the root of a buckforge checkout", file=sys.stderr)
    return not missing


def smoke(seed: int) -> int:
    """Tiny run of each workload, traced and untraced; every metric named in
    BENCHMARK.json must be present and every operation must pass the gate."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line, notes = run_workload(workload, seed, 0.0, trace, tiny=True)
            print("\n".join(notes))
            missing = [m["name"] for m in bench[section] if m["name"] not in line["metrics"]]
            bad_units = [m["name"] for m in bench[section]
                         if m["name"] in line["metrics"] and line["metrics"][m["name"]]["unit"] != m["unit"]]
            passed = line["correct"] and not missing and not bad_units
            ok &= passed
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'}"
                  + (f"; missing {missing}" if missing else "")
                  + (f"; unit differs for {bad_units}" if bad_units else ""))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not _checkout_ok():
        return 2
    if args.record:
        work_dir = os.path.join(WORK_ROOT, "record")
        os.makedirs(work_dir, exist_ok=True)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--work-dir", work_dir,
                "--record", os.path.join(HERE, "expected.json")]
        try:
            _checked(_child(argv), "recording")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    if args.smoke:
        return smoke(args.seed)
    if args.all:
        correct = True
        for workload in WORKLOADS:
            line, notes = run_workload(workload, args.seed, args.seconds, 0)
            print("\n".join(notes))
            correct &= line["correct"]
        return 0 if correct else 1
    if not args.workload:
        parser.error("give --workload, --all, --smoke or --record")
    t0 = time.perf_counter()
    line, notes = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(notes))
    print(f"  run took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
