"""Smoke test: each workload runs at its smallest size and reports every metric.

Timings are never asserted; only the shape of the output and the output
checks are.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics the report names beyond the result line, on the workloads that
# run the stage they time
WORKLOAD_METRICS = {
    "train-acc": ("train_phones_per_s", "score_embed_trials_per_s"),
    "score-acc": ("score_embed_trials_per_s",),
    "ingest-scale": (),
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(
        ROOT,
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
        "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    *report_lines, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if trace == "0":
            assert reported["value"] > 0, metric["name"]

    report = json.loads("\n".join(report_lines))
    assert report["error_rate"] == 0.0
    assert set(WORKLOAD_METRICS[workload]) <= set(report["end_to_end"])
    for key in ("nproc", "python", "numpy", "blas", "num_threads_env", "blas_threads_pinned"):
        assert key in report["environment"]
    assert all(check["failures"] == 0 for check in report["checks"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*")
    )
    proc = run_bench(tmp_path, "--workload", "score-acc", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
