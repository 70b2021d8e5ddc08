"""The ``repro faults`` subcommand and --param plumbing."""

import json

import pytest

from repro.cli import main
from repro.obs.scenarios import run_scenario, scenario_ids


def test_faults_list(capsys):
    assert main(["faults", "--list"]) == 0
    out = capsys.readouterr().out
    for sid in scenario_ids("faults"):
        assert sid in out


def test_faults_requires_scenario(capsys):
    assert main(["faults"]) == 2
    assert "scenario id" in capsys.readouterr().err


def test_faults_unknown_scenario_exits_2(capsys):
    assert main(["faults", "nope"]) == 2
    assert "unknown fault scenario" in capsys.readouterr().err


def test_faults_bad_param_exits_2(capsys):
    assert main(["faults", "mtbf", "--param", "seed"]) == 2
    assert "malformed --param" in capsys.readouterr().err


def test_faults_non_numeric_param_exits_2(capsys):
    assert main(["faults", "mtbf", "--param", "seed=abc"]) == 2
    assert "non-numeric" in capsys.readouterr().err


def test_faults_unsupported_param_exits_2(capsys):
    assert main(["faults", "mtbf", "--param", "bogus=1"]) == 2
    assert "does not take parameter" in capsys.readouterr().err


def test_faults_mtbf_scenario_runs(capsys):
    assert main(["faults", "mtbf", "--param", "seed=9"]) == 0
    assert "mtbf plan" in capsys.readouterr().out


def test_faults_link_kill_writes_trace(tmp_path, capsys):
    out = tmp_path / "lk.trace.json"
    metrics = tmp_path / "lk.metrics.json"
    assert main(
        ["faults", "link-kill", "-o", str(out), "--metrics", str(metrics)]
    ) == 0
    stdout = capsys.readouterr().out
    assert "drop(s)" in stdout and "reroute(s)" in stdout
    doc = json.loads(out.read_text())
    assert any(ev.get("cat") == "fault" for ev in doc["traceEvents"])
    json.loads(metrics.read_text())


def test_link_kill_traces_are_byte_identical():
    def trace_bytes():
        from repro.obs import chrome_trace_json

        tracer, _line = run_scenario("link-kill", "faults", rounds=4)
        return chrome_trace_json(tracer)

    assert trace_bytes() == trace_bytes()


def test_noretry_scenario_reports_fault_error(capsys):
    assert main(["faults", "link-kill-noretry"]) == 0
    out = capsys.readouterr().out
    assert "FaultError as intended" in out
    assert "failed link" in out


def test_run_experiment_rejects_unknown_param():
    from repro.core.evaluation import run_experiment

    with pytest.raises(KeyError, match="does not take parameter"):
        run_experiment("table1", junk=3)


def test_trace_param_flows_to_scenario(capsys):
    assert main(["trace", "pingpong", "--param", "nbytes=bad"]) == 2
    assert "non-numeric" in capsys.readouterr().err
