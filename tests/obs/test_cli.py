"""CLI tests: `repro trace` and `repro run --trace`."""

import json

import pytest

from repro.cli import main
from repro.obs import scenario_ids, validate_trace_events


def test_trace_list_scenarios(capsys):
    assert main(["trace", "--list"]) == 0
    out = capsys.readouterr().out
    for sid in scenario_ids():
        assert sid in out


def test_trace_unknown_scenario_fails(capsys):
    assert main(["trace", "nope"]) == 2
    assert "unknown trace scenario" in capsys.readouterr().err


def test_trace_without_scenario_fails(capsys):
    assert main(["trace"]) == 2
    assert "--list" in capsys.readouterr().err


def test_trace_writes_valid_trace_and_metrics(tmp_path, capsys):
    trace_file = tmp_path / "ring.json"
    metrics_file = tmp_path / "ring.metrics.json"
    code = main(
        [
            "trace",
            "torus-ring",
            "-o",
            str(trace_file),
            "--metrics",
            str(metrics_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ring shift x8" in out
    assert "== span attribution" in out  # summary printed by default

    doc = json.loads(trace_file.read_text())
    validate_trace_events(doc)
    pids = {ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert set(range(8)) <= pids  # per-rank span tracks

    metrics = json.loads(metrics_file.read_text())
    assert metrics["counters"]["mpi.messages"] == 32


def test_trace_no_summary_flag(tmp_path, capsys):
    assert main(["trace", "pingpong", "-o", str(tmp_path / "p.json"), "--no-summary"]) == 0
    assert "== span attribution" not in capsys.readouterr().out


def test_trace_output_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["trace", "allreduce", "-o", str(a), "--no-summary"]) == 0
    assert main(["trace", "allreduce", "-o", str(b), "--no-summary"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("scenario", ["pop"])
def test_app_scenario_has_named_phases(tmp_path, capsys, scenario):
    out_file = tmp_path / f"{scenario}.json"
    assert main(["trace", scenario, "-o", str(out_file), "--no-summary"]) == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    validate_trace_events(doc)
    phases = {ev["name"] for ev in doc["traceEvents"] if ev.get("cat") == "phase"}
    assert {"baroclinic", "barotropic"} <= phases


def test_run_with_trace_and_metrics(tmp_path, capsys):
    trace_file = tmp_path / "halo.json"
    metrics_file = tmp_path / "halo.metrics.json"
    code = main(
        [
            "run",
            "table1",
            "--trace",
            str(trace_file),
            "--metrics",
            str(metrics_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    validate_trace_events(json.loads(trace_file.read_text()))
    json.loads(metrics_file.read_text())


@pytest.mark.parametrize("flag", ["--trace", "--metrics"])
def test_run_all_jobs_with_trace_needs_output_dir(tmp_path, capsys, monkeypatch, flag):
    """Pool workers record nothing for a run without -o, so asking for a
    trace there exits 2, before any job runs, and names -o DIR."""
    import repro.campaign

    monkeypatch.setattr(repro.campaign, "pool_map", lambda jobs: pytest.fail("a job ran"))
    out = tmp_path / "out.json"
    assert main(["run", "all", "-j", "2", flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "-o DIR" in err
    assert not out.exists()


def test_run_without_trace_writes_nothing(tmp_path, capsys):
    assert main(["run", "table1"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
