"""Paired benchmark record of a change against a base commit: BENCH_<n>.json.

Runs ``perfbench/run.py``, the one bench script, on a copy of the base
commit and on this checkout (the change, with its uncommitted edits), in
alternating pairs per workload, untraced (``--trace 0``) and traced
(``--trace 1``). It does no timing of its own: it keeps the last JSON line
of each run and summarizes the pairs. Run from the root of the checkout:

    python3 tools/bench_record.py --out BENCH_31.json --base HEAD --seconds 10 --seed 7

Every workload of ``BENCHMARK.json`` gets `PAIRS` untraced and
`TRACED_PAIRS` traced pairs. Measuring the base against itself (``HEAD``
as the base and no edit to ``src/``) is refused.

``commits.change`` is the commit under the measured diff, ``HEAD``, and
``commits.change_src_diff_sha256`` names that diff (`src_diff_sha256`):
``src/``'s tracked changes and its untracked files, None when there are
none. A change measured before it is committed has ``change`` equal to its
base and is told apart by that hash. ``src_lines`` counts the lines of
``src/**/*.py`` in the exported base and in this checkout, so that the size
of the measured code is recorded with its speed.

The base is exported with ``git archive`` into a temporary directory, which
is removed at the end; unlike a ``git worktree``, that writes nothing into
the repository's ``.git``. Before every run the ``__pycache__``
directories of both sides are cleared, so each starts from the same
bytecode state, and ``PYTHONDONTWRITEBYTECODE`` is dropped from the runs'
environment, so each writes and then uses its bytecode as ``run.py``
expects. Pair k runs the base first when k is even and the change first
when k is odd.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

# metrics whose values do not mean what their names say, until the benchmark
# counts them anew
UNRELIABLE = {
    "switched_sim.periods": (
        "reads 0: counts the results of switched_sim.cycle_average, which no workload calls"
    ),
    "pi_design.tune_kp_for_pm.pm_evals": (
        "reads 0: counts stability_margins calls, which the tune has not made since "
        "it evaluates the phase margin through lti.gain_crossing"
    ),
    "timedomain.step_response.ns_per_sample": (
        "averages in the calls answered from the held response, which compute no sample"
    ),
}
SIDES = ("base", "change")
# pairs per workload: ten untraced, the fewest a gain may be claimed from,
# and four traced, for the per-layer metrics
PAIRS, TRACED_PAIRS = 10, 4


def _git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], capture_output=True, check=True).stdout
    return out if binary else out.decode().strip()


def src_diff_sha256() -> str | None:
    """SHA-256 of how ``src/`` in the working tree differs from ``HEAD``, or
    None where it does not: the tracked diff, then the path and bytes of each
    untracked file that git does not ignore, so that a module added and
    measured before ``git add`` is named too."""
    diff = _git("diff", "HEAD", "--", "src", binary=True)
    listed = _git("ls-files", "--others", "--exclude-standard", "-z", "--", "src", binary=True)
    untracked = sorted(filter(None, listed.split(b"\0")))
    if not (diff or untracked):
        return None
    digest = hashlib.sha256(diff)
    for path in untracked:
        with open(path, "rb") as fh:
            digest.update(path + b"\0" + fh.read())
    return digest.hexdigest()


def src_lines(root: str) -> int:
    """Lines of the Python files under ``src/`` of the tree at `root`."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _export(commit: str, into: str) -> None:
    """The tracked files of `commit`, written under `into`."""
    archive = io.BytesIO(_git("archive", "--format=tar", commit, binary=True))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(into, filter="data")


def _clear_bytecode(root: str) -> None:
    for top in ("src", "perfbench", "tests"):
        for dirpath, dirnames, _ in os.walk(os.path.join(root, top)):
            if "__pycache__" in dirnames:
                shutil.rmtree(os.path.join(dirpath, "__pycache__"))
                dirnames.remove("__pycache__")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _host() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_start": list(os.getloadavg()),
    }


def _run(root: str, argv: list[str]) -> dict:
    """The last JSON line of one run.py run with `root` as working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{argv} in {root} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[list[float]], better: str) -> dict:
    """Median and quartiles of each side of (base, change) pairs, and the
    number of pairs in which the change is strictly better."""
    out = {"pairs": pairs}
    for i, side in enumerate(SIDES):
        values = [pair[i] for pair in pairs]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
            else values * 3
        )
        out[side] = {"median": median, "q1": q1, "q3": q3}
    lower = better == "lower"
    out["change_better"] = sum((c < b) if lower else (c > b) for b, c in pairs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, BENCH_<n>.json")
    parser.add_argument("--base", default="HEAD", help="commit the change is measured against")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=911)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    # the measured source: the commit under the change, plus src/'s diff from it
    base, change = _git("rev-parse", args.base), _git("rev-parse", "HEAD")
    diff = src_diff_sha256()
    if base == change and diff is None:
        raise SystemExit(f"src/ at {base} has no change against the base to measure")
    doc = {
        "commits": {"base": base, "change": change, "change_src_diff_sha256": diff},
        "command": {
            "untraced": ["python3", "perfbench/run.py", "--workload", "<workload>", "--seed",
                         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            "traced": ["python3", "perfbench/run.py", "--workload", "<workload>", "--seed",
                       str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            "collector": ["python3", *sys.argv],
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "host": _host(),
        "unreliable_metrics": UNRELIABLE,
        "workloads": {},
    }
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        _export(args.base, base_root)
        roots = {"base": base_root, "change": os.getcwd()}
        doc["src_lines"] = {side: src_lines(root) for side, root in roots.items()}
        for workload in workloads:
            runs, values = [], {}
            for trace, n_pairs in ((0, PAIRS), (1, TRACED_PAIRS)):
                argv = ["perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace)]
                for k in range(n_pairs):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    lines = {}
                    for side in order:
                        for root in roots.values():
                            _clear_bytecode(root)
                        lines[side] = _run(roots[side], argv)
                    runs.append({
                        "trace": trace, "first": order[0],
                        **{s: {key: lines[s][key] for key in ("correct", "attempted", "failed")}
                           for s in SIDES},
                    })
                    for name in lines["base"]["metrics"]:
                        pair = [lines[s]["metrics"][name]["value"] for s in SIDES]
                        values.setdefault((trace, name), []).append(pair)
                    print(f"{workload} trace={trace} pair {k + 1}/{n_pairs} done", file=sys.stderr)
            doc["workloads"][workload] = {
                "runs": runs,
                "metrics": {
                    name: {"trace": trace, "unit": units[name],
                           "better": better[name], **summarize(pairs, better[name])}
                    for (trace, name), pairs in values.items()
                },
            }
    for root in roots.values():
        _clear_bytecode(root)
    doc["host"]["loadavg_end"] = list(os.getloadavg())
    doc["elapsed_s"] = time.perf_counter() - t0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
