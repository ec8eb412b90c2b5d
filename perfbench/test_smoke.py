"""Smoke test of the benchmark: every workload at tiny size, both passes.

Run with ``python -m pytest perfbench/ -q`` from the repository root.  Each
case starts its own Spark session through ``run.py``, as the benchmark
command does.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero on each workload's path.  The
#: keys are every workload ``run.py`` offers, including ``fleet``, which
#: ``BENCHMARK.json`` leaves out of the evaluation (README.md).
ON_PATH = {
    "sweep": ["kernel.busy_s", "sweep.cells", "sweep.parallel_eff", "kernel.seq_us_per_point.mtcsc_a"],
    "fleet": ["pack.s", "apply.s", "collect.s", "apply.groups", "kernel.seq_us_per_point.mtcsc_l"],
    "long": ["pack.s", "apply.warmup_rows", "chunk.seq_s", "chunk.seq_speedup", "metrics.spark_s"],
    "stream": ["stream.process_batch_ms_p50", "stream.batches", "stream.wal_commit_ms_p50", "batch_latency_p85_ms"],
}
WORKLOADS = list(ON_PATH)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_lists_units_and_directions():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert "perfbench" in SPEC["paths"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] and m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("meta ")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float), m["name"]
    if trace:
        for name in ON_PATH[workload]:
            assert result["metrics"][name]["value"] > 0, name
        if workload != "long":  # chunked output is approximate (README.md)
            assert result["metrics"]["speed.violating_pairs"]["value"] == 0
    else:
        for name, got in result["metrics"].items():
            assert got["value"] > 0, name


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
