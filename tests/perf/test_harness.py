"""The benchmark runner: repetitions, warmup, registry."""

import pytest

from repro.perf import Benchmark, benchmark_ids, run_benchmarks
from repro.perf.suite import get_benchmark, temporary_benchmark


class FakeClock:
    """Deterministic clock: each read advances by a scripted step."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def _counting_bench(name, calls, **kwargs):
    def fn():
        calls.append(name)
        return {"calls_so_far": len(calls)}

    return Benchmark(name=name, fn=fn, **kwargs)


def test_registered_suite_is_nonempty_and_sorted():
    ids = benchmark_ids()
    assert ids == sorted(ids)
    assert "engine.heap_churn" in ids
    assert "lint.full_tree" in ids
    assert get_benchmark("lint.full_tree").budget_s == 5.0


def test_unknown_benchmark_raises_with_known_list():
    with pytest.raises(KeyError, match="engine.heap_churn"):
        get_benchmark("no.such.bench")


def test_repeats_warmup_and_fake_clock():
    calls = []
    with temporary_benchmark(_counting_bench("t.counting", calls)):
        snap = run_benchmarks(
            ["t.counting"], repeats=3, warmup=2, clock=FakeClock(step=0.5)
        )
    entry = snap.entries["t.counting"]
    assert len(calls) == 5  # 2 warmup + 3 timed
    assert entry.warmup == 2
    assert entry.repeats == 3
    # FakeClock advances 0.5 per read; one fn call sits between the two
    # reads of a sample, so every sample is exactly one step.
    assert entry.samples_s == [0.5, 0.5, 0.5]
    assert entry.meta["calls_so_far"] == 5


def test_snapshot_carries_code_and_host_identity():
    with temporary_benchmark(_counting_bench("t.id", [])):
        snap = run_benchmarks(["t.id"], repeats=1, warmup=0, clock=FakeClock())
    assert len(snap.code_fingerprint) == 64
    assert snap.host["fingerprint"]
    assert snap.host["cpu_count"] >= 1


def test_budget_and_threshold_flow_into_the_entry():
    bench = _counting_bench("t.budgeted", [], budget_s=9.0, threshold=0.4)
    with temporary_benchmark(bench):
        snap = run_benchmarks(["t.budgeted"], repeats=1, warmup=0, clock=FakeClock())
    entry = snap.entries["t.budgeted"]
    assert entry.budget_s == 9.0
    assert entry.threshold == 0.4


def test_parameter_validation():
    with pytest.raises(ValueError, match="repeats"):
        run_benchmarks([], repeats=0)
    with pytest.raises(ValueError, match="warmup"):
        run_benchmarks([], warmup=-1)


def test_progress_callback_sees_every_entry():
    seen = []
    names = ["t.p1", "t.p2"]
    with temporary_benchmark(_counting_bench("t.p1", [])), temporary_benchmark(
        _counting_bench("t.p2", [])
    ):
        run_benchmarks(
            names,
            repeats=1,
            warmup=0,
            clock=FakeClock(),
            progress=lambda name, entry: seen.append(name),
        )
    assert seen == names


def test_duplicate_registration_rejected():
    bench = _counting_bench("t.dup", [])
    with temporary_benchmark(bench):
        with pytest.raises(ValueError, match="already registered"):
            with temporary_benchmark(bench):
                pass


def test_micro_suite_metric_keys_are_deterministic():
    """Two runs of the same tree expose the identical key set — what
    lets CI `cmp` the metric-key lists of two fresh snapshots."""
    a = run_benchmarks(["engine.heap_churn"], repeats=1, warmup=0, clock=FakeClock())
    b = run_benchmarks(["engine.heap_churn"], repeats=1, warmup=0, clock=FakeClock())
    assert a.names() == b.names()
    assert a.entries["engine.heap_churn"].meta["events_processed"] == (
        b.entries["engine.heap_churn"].meta["events_processed"]
    )
