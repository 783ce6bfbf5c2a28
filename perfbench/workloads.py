"""The three workloads: seeded inputs, one operation each, and the output gate.

Every input a seed can produce comes from a small fixed pool, so the
outputs of the whole pool are recorded once, from the seed commit, in
``expected.json``. An operation fails when its exit codes, the SHA-256 of
any content file (manifests embed the out-dir path and are left out) or
its verdict differ from that record.

A workload runs against one package: ``buckforge`` from ``src``, the
program under test, or ``buckforge_seed`` from ``baseline``, the frozen
copy of the seed commit's package that each operation is timed against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np

NOMINAL = os.path.join("configs", "buck_nominal.json")
PROGRAM = "buckforge"
SEED_COPY = "buckforge_seed"


def package(name: str) -> SimpleNamespace:
    """The modules a workload calls, from package ``name``.

    Workloads look functions up on these modules at call time, so the
    tracer's wrappers on ``buckforge.*`` attributes are seen.
    """
    modules = ("averaging", "cli", "converter", "pi_design", "switched_sim")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


class _Discard(io.TextIOBase):
    """Console sink: the CLI still formats its lines, nobody reads them."""

    def write(self, s):
        return len(s)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def input_key(inp: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in inp.items())


def _file_record(out_dir: str, codes: list, verdict, trajectory_csv: str):
    """The gate record of an operation that wrote files, and its counts.

    ``substeps`` are the steps of the trajectory in ``trajectory_csv``:
    its data rows less one.
    """
    files = {}
    rows = size = substeps = 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith("_manifest.json"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        files[name] = _sha(data)
        size += len(data)
        if name.endswith(".csv"):
            n = data.count(b"\n") - 1
            rows += n
            if name == trajectory_csv:
                substeps = n - 1
    record = {"exit": codes, "verdict": verdict, "files": files}
    return record, {"rows": rows, "bytes": size, "substeps": substeps}


def _corrupt_file(out_dir: str, result):
    """Flip one bit in the middle of the largest content file."""
    names = [n for n in os.listdir(out_dir) if not n.endswith("_manifest.json")]
    path = max((os.path.join(out_dir, n) for n in names), key=os.path.getsize)
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 1]))
    return result


class DesignSweep:
    """derive, bode, tune and step through ``buckforge.cli.main`` per config.

    Each seed draws a Latin hypercube over the factor levels: every level
    of every factor appears equally often, in a seeded pairing, so seeds
    differ in their configs but not in their mix of plant sizes.
    """

    name = "design_sweep"
    FACTORS = ("vg", "r_load", "l", "c")
    LEVELS = (0.85, 1.0, 1.2)
    PER_SEED = 18
    writes_files = True

    def __init__(self, work_dir: str, pkg: SimpleNamespace):
        self.work_dir = work_dir
        self.pkg = pkg
        with open(NOMINAL, encoding="utf-8") as fh:
            self.base = json.load(fh)

    @classmethod
    def pool(cls):
        return [dict(zip(cls.FACTORS, f)) for f in itertools.product(cls.LEVELS, repeat=4)]

    @classmethod
    def inputs(cls, seed: int):
        rng = random.Random(seed)
        columns = []
        for _ in cls.FACTORS:
            column = list(cls.LEVELS) * (cls.PER_SEED // len(cls.LEVELS))
            rng.shuffle(column)
            columns.append(column)
        return [dict(zip(cls.FACTORS, row)) for row in zip(*columns)]

    def prepare(self, factors):
        """Write the scaled config; return what the operation needs."""
        doc = dict(self.base)
        for k, f in factors.items():
            doc[k] = self.base[k] * f
        path = os.path.join(self.work_dir, f"config-{input_key(factors)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run(self, config: str, out_dir: str):
        cli = self.pkg.cli
        common = ["--config", config, "--out-dir", out_dir]
        with redirect_stdout(_Discard()):
            codes = [
                cli.main(["derive", *common]),
                cli.main(["bode", *common, "--kp", "0.23", "--ki", "1", "--svg"]),
                cli.main(["tune", *common, "--target-pm", "50"]),
            ]
            tuned = _read_json(os.path.join(out_dir, "tune.json"))
            if tuned is None:
                codes.append(None)
            else:
                kp = repr(tuned["gains"]["kp"])
                codes.append(cli.main(["step", *common, "--kp", kp, "--ki", "1", "--svg"]))
        return codes

    def record(self, codes, out_dir: str):
        margins = _read_json(os.path.join(out_dir, "margins.json")) or {}
        tuned = _read_json(os.path.join(out_dir, "tune.json")) or {}
        verdict = {
            "bode_stable": margins.get("stable_loop"),
            "tuned_stable": tuned.get("achieved_margins", {}).get("stable_loop"),
        }
        return _file_record(out_dir, codes, verdict, "step.csv")

    corrupt = staticmethod(_corrupt_file)


class InputStep500:
    """The 30 V -> 500 V input step of acceptance test 8c through the CLI,
    at the CLI's default 0.05 s window. The output is still recovering
    from the step there, so the program's verdict is regulation FAIL
    (exit 4); the gate checks that this verdict and the bytes repeat.
    The seed does not change this single input.
    """

    name = "input_step_500"
    ARGV = ["--vg", "500", "--from-operating-point", "--steps-per-period", "50"]
    writes_files = True

    def __init__(self, work_dir: str, pkg: SimpleNamespace):
        self.work_dir = work_dir
        self.pkg = pkg

    @classmethod
    def pool(cls):
        return [{"vg": 500.0}]

    @classmethod
    def inputs(cls, seed: int):
        return cls.pool()

    def prepare(self, _inp):
        return NOMINAL

    def run(self, config: str, out_dir: str):
        with redirect_stdout(_Discard()):
            argv = ["simulate", "--config", config, "--out-dir", out_dir, *self.ARGV]
            return [self.pkg.cli.main(argv)]

    def record(self, codes, out_dir: str):
        report = _read_json(os.path.join(out_dir, "regulation.json")) or {}
        return _file_record(out_dir, codes, {"passed": report.get("passed")}, "sim.csv")

    corrupt = staticmethod(_corrupt_file)


class LineSweep:
    """simulate_closed_loop then regulation_report, in the library only.

    Each scenario starts from its own operating point with the
    PWM-equivalent default gains, as in acceptance test 8a. The seed
    picks one vg from each of 15 log-spaced strata of [30, 500] V and
    pairs them with load factors, each used equally often.
    """

    name = "line_sweep"
    VG_GRID = tuple(round(30.0 * (500.0 / 30.0) ** (k / 59), 1) for k in range(60))
    STRATA = 15
    LOAD_LEVELS = (0.8, 1.0, 1.25)
    T_END = 0.02
    STEPS_PER_PERIOD = 200
    KP, KI = 0.23, 1.0
    writes_files = False

    def __init__(self, work_dir: str, pkg: SimpleNamespace):
        self.pkg = pkg
        self.nominal = pkg.converter.load_params(NOMINAL)
        self.gains = pkg.pi_design.PIGains(self.KP, self.KI)

    @classmethod
    def pool(cls):
        return [{"vg": vg, "r_load": f} for vg in cls.VG_GRID for f in cls.LOAD_LEVELS]

    @classmethod
    def inputs(cls, seed: int):
        rng = random.Random(seed)
        width = len(cls.VG_GRID) // cls.STRATA
        loads = list(cls.LOAD_LEVELS) * (cls.STRATA // len(cls.LOAD_LEVELS))
        rng.shuffle(loads)
        return [
            {"vg": cls.VG_GRID[s * width + rng.randrange(width)], "r_load": f}
            for s, f in zip(range(cls.STRATA), loads)
        ]

    def prepare(self, inp):
        return dataclasses.replace(
            self.nominal, vg=inp["vg"], r_load=self.nominal.r_load * inp["r_load"]
        )

    def run(self, p, _out_dir):
        switched_sim = self.pkg.switched_sim
        gains = switched_sim.pwm_equivalent_gains(self.gains, p)
        op = self.pkg.averaging.solve_duty(p)
        cfg = switched_sim.SimConfig(
            t_end=self.T_END,
            gains=gains,
            steps_per_period=self.STEPS_PER_PERIOD,
            initial_state=(op.il, op.vc),
            integrator_init=op.duty * p.vs,
        )
        traj = switched_sim.simulate_closed_loop(p, cfg)
        return traj, switched_sim.regulation_report(traj, p)

    def record(self, result, _out_dir):
        traj, report = result
        digest = hashlib.sha256()
        for name in ("times", "il", "vc", "duty_cmd", "switch_state"):
            digest.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
        doc = json.dumps(dataclasses.asdict(report), sort_keys=True)
        rec = {
            "exit": None,
            "verdict": {"passed": report.passed},
            "files": {"trajectory": digest.hexdigest(), "regulation": _sha(doc.encode())},
        }
        return rec, {"rows": 0, "bytes": 0, "substeps": len(traj.times) - 1}

    @staticmethod
    def corrupt(_out_dir, result):
        traj, report = result
        il = traj.il.copy()
        il[len(il) // 2] = np.nextafter(il[len(il) // 2], np.inf)
        return dataclasses.replace(traj, il=il), report


WORKLOADS = {w.name: w for w in (DesignSweep, InputStep500, LineSweep)}


def mismatch(expected: dict | None, got: dict) -> list[str]:
    """What differs between an operation's record and the reference."""
    if expected is None:
        return ["no reference recorded for this input"]
    reasons = []
    if expected["exit"] != got["exit"]:
        reasons.append(f"exit codes {got['exit']} != {expected['exit']}")
    if expected["verdict"] != got["verdict"]:
        reasons.append(f"verdict {got['verdict']} != {expected['verdict']}")
    names = sorted(set(expected["files"]) | set(got["files"]))
    for name in names:
        if expected["files"].get(name) != got["files"].get(name):
            reasons.append(f"{name}: sha256 differs")
    return reasons
