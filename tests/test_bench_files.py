"""Every committed BENCH_*.json: its schema, and its metrics against BENCHMARK.json.

No bench runs here; the files are read as committed. The collector's hash of
the measured source is checked in a temporary git repository.
"""

import glob
import importlib.util
import json
import math
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
# the first file whose collector recorded src_lines
SRC_LINES_FROM = 36


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _collector():
    path = os.path.join(ROOT, "tools", "bench_record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_schema(path):
    doc = _load(path)
    keys = {
        "commits", "command", "seed", "seconds", "host", "unreliable_metrics", "workloads",
        "elapsed_s",
    }
    number = int(os.path.basename(path)[len("BENCH_"):-len(".json")])
    if number >= SRC_LINES_FROM or "src_lines" in doc:
        keys.add("src_lines")
        lines = doc["src_lines"]
        assert set(lines) == {"base", "change"}
        assert all(isinstance(n, int) and n > 0 for n in lines.values()), lines
    assert set(doc) == keys
    commits = doc["commits"]
    for side in ("base", "change"):
        assert len(commits[side]) == 40 and int(commits[side], 16) >= 0
    # a change measured uncommitted is told from its base by its diff of src/
    diff = commits["change_src_diff_sha256"]
    assert diff is None or (len(diff) == 64 and int(diff, 16) >= 0)
    assert commits["change"] != commits["base"] or diff is not None
    assert set(doc["command"]) == {"untraced", "traced", "collector"}
    assert doc["command"]["untraced"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(doc["seed"], int) and doc["seconds"] > 0
    host = doc["host"]
    assert isinstance(host["cpu_model"], str) and host["cpu_count"] >= 1
    for key in ("python", "numpy", "scipy"):
        assert isinstance(host[key], str) and host[key]
    for key in ("loadavg_start", "loadavg_end"):
        assert len(host[key]) == 3 and all(_is_number(x) for x in host[key])
    assert set(doc["unreliable_metrics"]) <= set(METRICS)
    assert all(isinstance(r, str) and r for r in doc["unreliable_metrics"].values())


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_pairs_and_their_summaries(path):
    summarize = _collector().summarize
    doc = _load(path)
    # every workload, with at least 6 untraced and 2 traced pairs
    assert set(doc["workloads"]) == WORKLOADS
    for workload, record in doc["workloads"].items():
        runs = record["runs"]
        n_pairs = {trace: sum(run["trace"] == trace for run in runs) for trace in (0, 1)}
        assert n_pairs[0] >= 6 and n_pairs[1] >= 2, (workload, n_pairs)
        for run in runs:
            assert run["first"] in ("base", "change")
            for side in ("base", "change"):
                assert isinstance(run[side]["correct"], bool)
                assert 0 <= run[side]["failed"] <= run[side]["attempted"]
        assert END_TO_END <= set(record["metrics"]), workload
        for name, metric in record["metrics"].items():
            assert name in METRICS, name
            assert metric["unit"] == METRICS[name]["unit"]
            assert metric["better"] == METRICS[name]["better"]
            assert metric["trace"] == (0 if name in END_TO_END else 1)
            pairs = metric["pairs"]
            assert len(pairs) == n_pairs[metric["trace"]], (workload, name)
            assert all(len(pair) == 2 and all(map(_is_number, pair)) for pair in pairs)
            summary = {k: metric[k] for k in ("pairs", "base", "change", "change_better")}
            assert summary == summarize(pairs, metric["better"]), (workload, name)


def test_src_lines_counts_python_sources_only(tmp_path):
    src_lines = _collector().src_lines
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "pkg" / "data.json").write_text("{}\n{}\n")
    (tmp_path / "tools.py").write_text("w = 4\n")
    assert src_lines(str(tmp_path)) == 3


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git command")
def test_src_diff_hash_names_untracked_sources(tmp_path, monkeypatch):
    src_diff_sha256 = _collector().src_diff_sha256
    for name in ("GIT_DIR", "GIT_WORK_TREE", "GIT_INDEX_FILE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)

    def git(*args):
        subprocess.run(["git", *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("*.pyc\n")
    git("add", "-A")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com",
        "-c", "commit.gpgsign=false", "commit", "-q", "-m", "base")
    assert src_diff_sha256() is None

    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    edited = src_diff_sha256()
    assert edited is not None and len(edited) == 64
    # neither an ignored file nor one outside src/ is measured source
    (tmp_path / "src" / "a.pyc").write_bytes(b"\0")
    (tmp_path / "notes.txt").write_text("n\n")
    assert src_diff_sha256() == edited
    (tmp_path / "src" / "b.py").write_text("y = 1\n")
    added = src_diff_sha256()
    assert added not in (None, edited)
    (tmp_path / "src" / "b.py").write_text("y = 2\n")
    assert src_diff_sha256() not in (None, edited, added)
