"""Smoke test: every workload at toy size, with and without tracing.

Run from the root of the repository: python3 -m pytest -q bench/test_smoke.py
Each run must exit 0, pass its own checks, and print every metric that
BENCHMARK.json declares for its mode, with the declared unit and a
finite number. A traced run must repeat its counts exactly.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_counts_repeat_across_runs():
    first = _run("equilibria", 1)["metrics"]
    again = _run("equilibria", 1)["metrics"]
    counts = [m["name"] for m in DECLARED["per_layer"]
              if m["unit"] in ("count", "bytes")]
    assert {n: first[n]["value"] for n in counts} \
        == {n: again[n]["value"] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", "zvc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
