"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e -q`` (about 15 s).  The
tier-1 suite does not collect them (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = workloads.make_inputs(workload, 3)
    assert json.dumps(first) == json.dumps(workloads.make_inputs(workload, 3))
    assert first != workloads.make_inputs(workload, 4)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_miniature_input_passes_its_checks(workload, tmp_path):
    """An untraced and a traced repetition of a miniature input pass
    every check, agree on their digests, and yield exactly the metric
    names BENCHMARK.json declares."""
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(workload, 0, mini=True)))
    task = {"workload": workload, "inputs": str(inputs)}
    plain = workloads.run_task({**task, "work": str(tmp_path / "plain")}, tracing.NullRecorder())
    rec = tracing.Recorder()
    rec.install()
    try:
        traced = workloads.run_task({**task, "work": str(tmp_path / "traced")}, rec)
    finally:
        rec.uninstall()
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digests"] == traced["digests"]
    plain["peak_rss_mb"] = 1.0
    assert set(run.end_to_end([plain], [plain["setup_s"]])) == END_TO_END
    assert set(workloads.layer_metrics(rec)) == PER_LAYER
    assert rec.missing == []
    doc = tmp_path / "trace.json"
    assert rec.write_chrome_trace(doc, workload) > 0


def _checkout(tmp_path: pathlib.Path, with_src: bool) -> pathlib.Path:
    """A copy of BENCHMARK.json and benchmarks/e2e, optionally with src."""
    root = tmp_path / "checkout"
    shutil.copytree(
        HERE,
        root / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        (root / "src").symlink_to(ROOT / "src")
    return root


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    root = _checkout(tmp_path, with_src=True)
    path = root / "benchmarks" / "e2e" / "expected.json"
    expected = json.loads(path.read_text())
    expected["des"]["0"]["tree"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "des", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == 1
    assert set(result["metrics"]) == END_TO_END
    assert "des/tree: digest" in proc.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "parent, change, better, label",
    [
        ([5.0] * 10, [5.0] * 10, "lower", "unchanged"),
        ([10.0 + i / 100 for i in range(10)], [8.0 + i / 100 for i in range(10)], "lower", "improved"),
        ([10.0 + i / 100 for i in range(10)], [12.0 + i / 100 for i in range(10)], "lower", "regressed"),
        ([10.0 + i / 100 for i in range(10)], [12.0 + i / 100 for i in range(10)], "higher", "improved"),
        ([8.0, 12.0] * 5, [9.0, 12.5] * 5, "lower", "unresolved"),
    ],
)
def test_compare_labels(parent, change, better, label):
    assert compare.label(parent, change, better, bound=0.05)["label"] == label
