"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_package()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_fails_nothing(name, trace, tmp_path):
    result = workloads.run_workload(name, seed=3, seconds=0.2, trace=trace, sizes=workloads.TINY,
                                    spans_path=tmp_path / "spans.jsonl", scratch=tmp_path)

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in emitted.items()}
    assert all(math.isfinite(v["value"]) for v in emitted.values())
    if not trace:
        assert all(v["value"] > 0 for v in emitted.values())
    assert result["failures"] == []
    assert result["failed"] == 0 and result["failed_share"] == 0.0 and result["correct"]
    assert result["diagnostics"]["rows_at_threshold"] == 0
    if trace:
        spans = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(spans) >= emitted["trace.spans"]["value"] > 0


def test_workload_names_and_reasons_match_benchmark_json():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.enabled = True
    tracer.call("outer", lambda: tracer.call("middle", lambda: tracer.call("inner", sum, [1])))
    outer, middle, inner = ((end - start) for _, start, end, _, _ in tracer.spans)
    own = tracer.self_times()
    assert [parent for *_, parent, _ in tracer.spans] == [-1, 0, 1]
    assert own == pytest.approx([outer - middle, middle - inner, inner], abs=1e-12)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check-tied", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
