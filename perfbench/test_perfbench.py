"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = wl.input_bytes(name, 5, 12, tmp_path / "a")
    assert first == wl.input_bytes(name, 5, 12, tmp_path / "b")
    assert first != wl.input_bytes(name, 6, 12, tmp_path / "c")


def test_median_and_tail_on_known_sample():
    sample = [ms / 1000 for ms in range(1, 101)]
    random.Random(0).shuffle(sample)
    got = harness.latency_summary(sample)
    assert got["samples"] == 100
    assert got["p50_ms"] == pytest.approx(50.5)
    # the highest percentile with ten samples beyond it: p90 of 1..100 ms
    assert got["tail_ms"] == pytest.approx(90.0)
    assert got["tail_percentile"] == 90.0
    assert sum(1 for s in sample if s * 1e3 > got["tail_ms"] + 1e-9) == 10
    small = harness.latency_summary([0.003, 0.001, 0.002])
    assert small["tail_ms"] == pytest.approx(3.0)
    assert small["tail_percentile"] == 100.0


def test_self_time_on_synthetic_span_tree():
    span = lambda sid, parent, start, end: (sid, parent, 0, f"s{sid}", start, end, False)  # noqa: E731
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),  # overlaps child 2
        span(2, 0, 3.0, 6.0),
        span(3, 0, 8.0, 12.0),  # runs past its parent's end
        span(4, 1, 2.0, 3.0),
    ]
    got = harness.self_times(spans)
    assert got == pytest.approx({0: 10 - (5 + 2), 1: 3 - 1, 2: 3, 3: 4, 4: 1})


def test_time_budget_fails_the_operation_not_the_run():
    def op(inp, calls, out):
        time.sleep(inp)
        return {}

    outcomes, _ = harness.run_closed_loop(
        op, [2.0, 0.0], 0.0, harness.Calls(True), 0.05, wl.CheckFailed
    )
    assert [o.kind for o in outcomes] == ["timeout"]


def test_latency_is_library_time_only():
    def op(inp, calls, out):
        calls("lib.sleep", time.sleep, inp)
        time.sleep(0.05)  # a check, outside the clock
        return {}

    outcomes, _ = harness.run_closed_loop(
        op, [0.01], 0.0, harness.Calls(False), 5.0, wl.CheckFailed
    )
    (o,) = outcomes
    assert 0.01 <= o.latency_s < 0.04 and o.op_s >= 0.06


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec(wl)


def _command(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_healthy_run_reports_every_end_to_end_metric():
    done = _command(ROOT, "--workload", "topo-batch", "--seed", "3", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]


def _copy_repo(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def _mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_wrong_output_exits_nonzero(tmp_path):
    repo = _copy_repo(tmp_path)
    # Ztop off by the constant 1: caught by the direct Fraction sum
    _mutate(repo / "src/qzeta/zeta.py", "total = RatFunc.zero()", "total = RatFunc.const(1)")
    done = _command(repo, "--workload", "topo-batch", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct": true' not in done.stdout


def test_digest_mismatch_exits_nonzero(tmp_path):
    repo = _copy_repo(tmp_path)
    # ascending-degree rendering is still the same function, so only the
    # recorded digests can tell
    _mutate(repo / "src/qzeta/ratfunc.py", "for i in range(self.degree, -1, -1):",
            "for i in range(self.degree + 1):")
    done = _command(repo, "--workload", "bigrat-zeta", "--seconds", "1")
    assert done.returncode != 0
    assert "digests" in done.stderr


def test_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _command(tmp_path, "--workload", "topo-batch", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
