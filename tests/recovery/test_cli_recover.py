"""The ``repro recover`` subcommand."""

import json

from repro.cli import main
from repro.obs.scenarios import scenario_ids


def test_recover_list(capsys):
    assert main(["recover", "--list"]) == 0
    out = capsys.readouterr().out
    for sid in scenario_ids("recover"):
        assert sid in out
    assert {"pop-shrink", "pop-restart", "s3d-shrink", "livelock",
            "checkpoint-sim"} <= set(scenario_ids("recover"))


def test_recover_requires_scenario(capsys):
    assert main(["recover"]) == 2
    assert "scenario id" in capsys.readouterr().err


def test_recover_unknown_scenario_exits_2(capsys):
    assert main(["recover", "nope"]) == 2
    assert "unknown recovery scenario" in capsys.readouterr().err


def test_recover_unsupported_param_exits_2(capsys):
    assert main(["recover", "livelock", "--param", "bogus=1"]) == 2
    assert "does not take parameter" in capsys.readouterr().err


def test_recover_livelock_budget_fires(capsys):
    assert main(["recover", "livelock"]) == 0
    out = capsys.readouterr().out
    assert "livelock stopped as intended" in out
    assert "budget exceeded" in out


def test_recover_pop_shrink_writes_artifacts(tmp_path, capsys):
    trace = tmp_path / "shrink.trace.json"
    metrics = tmp_path / "shrink.metrics.json"
    assert main(
        [
            "recover", "pop-shrink",
            "--param", "processes=8", "--param", "steps=4",
            "-o", str(trace), "--metrics", str(metrics),
        ]
    ) == 0
    stdout = capsys.readouterr().out
    assert "shrink" in stdout
    doc = json.loads(trace.read_text())
    assert any(ev.get("cat") == "recovery" for ev in doc["traceEvents"])
    mdoc = json.loads(metrics.read_text())
    assert any(k.startswith("recovery.") for k in mdoc.get("counters", mdoc))


def test_faults_checkpoint_simulate(capsys):
    """``recover checkpoint-sim`` compares the executed checkpoint
    protocol with the analytic Young/Daly model."""
    assert main(["recover", "checkpoint-sim"]) == 0
    out = capsys.readouterr().out
    assert "simulated (DES)" in out
    # Both Table 1 machines are compared and each shows a signed delta.
    assert out.count("simulated (DES)") >= 2
    assert "%" in out


def test_faults_checkpoint_without_simulate_is_analytic_only(capsys):
    assert main(["faults", "checkpoint"]) == 0
    assert "executed vs analytic" not in capsys.readouterr().out
