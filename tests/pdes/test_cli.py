"""CLI surface: ``repro pdes list/run``."""

import filecmp

import pytest

from repro.cli import main
from repro.pdes.scenarios import scenario_ids


def test_pdes_list(capsys):
    assert main(["pdes", "list"]) == 0
    out = capsys.readouterr().out
    for sid in scenario_ids():
        assert sid in out


def test_pdes_run_prints_sync_counters(capsys):
    assert main(["pdes", "run", "torus-ring", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "pdes.null_messages" in out
    assert "pdes.stalls" in out
    assert "pdes.link_conflicts" in out
    assert "shards=2" in out


def test_pdes_run_writes_cmp_identical_artifacts(tmp_path, capsys):
    outdir = str(tmp_path)
    assert main(["pdes", "run", "torus-ring", "-o", outdir]) == 0
    assert main(["pdes", "run", "torus-ring", "--shards", "2", "-o", outdir]) == 0
    capsys.readouterr()
    for suffix in ("trace.json", "metrics.json", "events.jsonl"):
        ref = tmp_path / f"torus-ring.s1.{suffix}"
        new = tmp_path / f"torus-ring.s2.{suffix}"
        assert ref.exists() and new.exists()
        assert filecmp.cmp(ref, new, shallow=False), suffix


def test_pdes_run_unknown_scenario(capsys):
    assert main(["pdes", "run", "nope"]) == 2
    assert "unknown pdes scenario" in capsys.readouterr().err


def test_pdes_run_bad_param(capsys):
    assert main(["pdes", "run", "torus-ring", "--param", "bogus=1"]) == 2
    assert "does not take parameter" in capsys.readouterr().err


def test_pdes_run_bare_skips_artifacts(tmp_path, capsys):
    assert main(
        ["pdes", "run", "torus-ring", "--shards", "2", "--bare",
         "-o", str(tmp_path)]
    ) == 0
    err = capsys.readouterr().err
    assert "--bare records no artifacts" in err
    assert list(tmp_path.iterdir()) == []
