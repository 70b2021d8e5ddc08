"""`repro bench` CLI: list, run, compare, profile."""

import json
import re

from repro.cli import main
from repro.obs import validate_trace_events
from repro.perf import (
    benchmark_ids,
    HOST_PID,
    load_snapshot,
    run_benchmarks,
    snapshot_filename,
)
from repro.perf.suite import temporary_benchmark

from .test_harness import _counting_bench, FakeClock


def test_bench_list_shows_the_registered_suite(capsys):
    assert main(["bench", "list"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "registered micro-benchmarks:"
    assert [row.split()[0] for row in rows] == benchmark_ids()


def test_bench_run_exits_1_over_budget(tmp_path, capsys):
    """The budget gate CI relies on (the lint benchmarks' 5 s): a
    median over its ``budget_s`` fails the run after the snapshot is
    written."""
    bench = _counting_bench("t.over_budget", [], budget_s=1e-12)
    with temporary_benchmark(bench):
        code = main(
            ["bench", "run", "t.over_budget", "-o", str(tmp_path), "-r", "1", "--warmup", "0"]
        )
    assert code == 1
    assert (tmp_path / snapshot_filename()).is_file()
    assert "BUDGET: t.over_budget" in capsys.readouterr().err


def test_bench_run_writes_canonical_snapshot(tmp_path, capsys):
    code = main(
        [
            "bench",
            "run",
            "engine.heap_churn",
            "topology.torus_route",
            "-o",
            str(tmp_path),
            "--repeats",
            "2",
            "--warmup",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    path = tmp_path / snapshot_filename()
    assert f"wrote {path}" in out
    snap = load_snapshot(path)
    assert snap.names() == ["engine.heap_churn", "topology.torus_route"]
    assert all(e.repeats == 2 for e in snap.entries.values())


def test_bench_run_unknown_name_exits_2(tmp_path, capsys):
    assert main(["bench", "run", "no.such.bench", "-o", str(tmp_path)]) == 2
    assert "no.such.bench" in capsys.readouterr().err


def test_bench_compare_self_is_clean(tmp_path, capsys):
    out_file = tmp_path / "snap.json"
    assert main(
        ["bench", "run", "engine.heap_churn", "-o", str(out_file), "-r", "2", "--warmup", "0"]
    ) == 0
    code = main(["bench", "compare", str(out_file), str(out_file)])
    assert code == 0
    assert "GATE: ok" in capsys.readouterr().out


def test_bench_compare_trips_on_injected_slowdown(tmp_path, capsys):
    # A fake clock makes every sample one step long, so the slowed
    # snapshot's median is exactly twice the base's.  Timed on the host,
    # a base median that happens to run slow can hide an honest 2x
    # behind the gate's noise slack.
    def snapshot(path, step):
        run_benchmarks(
            ["engine.heap_churn"], repeats=3, warmup=1, clock=FakeClock(step=step)
        ).write(path)

    base = tmp_path / "base.json"
    slow = tmp_path / "slow.json"
    snapshot(base, 1.0)
    snapshot(slow, 2.0)
    code = main(["bench", "compare", str(base), str(slow), "--fail-over", "15%"])
    assert code == 1
    assert "GATE: 1 failure(s)" in capsys.readouterr().out


def test_bench_compare_schema_violation_exits_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(
        ["bench", "run", "engine.heap_churn", "-o", str(good), "-r", "1", "--warmup", "0"]
    ) == 0
    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["schema"] = "wrong/9"
    bad.write_text(json.dumps(doc))
    assert main(["bench", "compare", str(good), str(bad)]) == 2
    assert "schema" in capsys.readouterr().err


def test_bench_compare_bad_tolerance_exits_2(tmp_path, capsys):
    f = tmp_path / "x.json"
    assert main(
        ["bench", "run", "engine.heap_churn", "-o", str(f), "-r", "1", "--warmup", "0"]
    ) == 0
    assert main(["bench", "compare", str(f), str(f), "--fail-over=-3%"]) == 2


def test_bench_profile_scenario_writes_host_spans(tmp_path, capsys):
    out = tmp_path / "prof.trace.json"
    code = main(["bench", "profile", "allreduce", "-o", str(out), "-n", "5"])
    assert code == 0
    text = capsys.readouterr().out
    assert "host self-profile" in text
    assert "== top 5 hotspots (by self time) ==" in text
    assert "== host-side cost (simulator wall time) ==" in text
    doc = json.loads(out.read_text())
    validate_trace_events(doc)
    host = [e for e in doc["traceEvents"] if e.get("pid") == HOST_PID]
    assert len([e for e in host if e.get("cat") == "host.hotspot"]) == 5
    layers = {e["name"] for e in host if e.get("cat") == "host.layer"}
    assert {"host:simengine", "host:simmpi", "host:obs"} <= layers
    counts = re.search(r"^(\d+) engine events, (\d+) messages$", text, re.M)
    assert counts and int(counts[1]) > int(counts[2]) > 0


def test_bench_profile_list_and_errors(capsys):
    assert main(["bench", "profile", "--list"]) == 0
    assert "allreduce" in capsys.readouterr().out
    assert main(["bench", "profile"]) == 2
    assert main(["bench", "profile", "nope"]) == 2
