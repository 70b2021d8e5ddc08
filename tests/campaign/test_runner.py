"""The campaign orchestrator's acceptance contract:

* ``--jobs N`` artifacts are byte-identical to a serial run,
* an immediate rerun is 100% cache hits and touches no artifact,
* an interrupted campaign resumes computing only the unfinished jobs,
* failures are classified and only transient ones retried.
"""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    classify_failure,
    read_journal,
)
from repro.core.evaluation import EXPERIMENTS

#: fast real experiments (all render in milliseconds)
FAST = ["table1", "top500", "lists", "fig6"]


def run_campaign(tmp_path, ids=None, name="t", max_jobs=None, **kwargs):
    spec = CampaignSpec.from_ids(ids or FAST, name=name)
    runner = CampaignRunner(spec, tmp_path / name, **kwargs)
    return runner, runner.run(max_jobs=max_jobs)


# ---------------------------------------------------------------------------
# parallel == serial, byte for byte
# ---------------------------------------------------------------------------
def test_jobs4_artifacts_byte_identical_to_serial(tmp_path):
    _, serial = run_campaign(tmp_path, name="serial", jobs=1)
    _, parallel = run_campaign(tmp_path, name="parallel", jobs=4)
    assert serial.done == parallel.done == len(FAST)
    for eid in FAST:
        a = (tmp_path / "serial" / f"{eid}.txt").read_bytes()
        b = (tmp_path / "parallel" / f"{eid}.txt").read_bytes()
        assert a == b, f"{eid} differs between --jobs 1 and --jobs 4"
    by_id = lambda r: {x.job_id: x.digest for x in r.records}  # noqa: E731
    assert by_id(serial) == by_id(parallel)


def test_pool_refills_freed_slots_before_settling(tmp_path, monkeypatch):
    """A worker that hands back a job gets its next one before the parent
    writes the first one's artifact, cache entry and journal record: every
    job is settled while ``min(jobs, jobs not yet handed back)`` attempts
    are in flight, so with one job returned at a time all but the last
    two are settled with both workers busy."""
    from repro.campaign import runner as runner_module
    from repro.campaign.pool import PoolSupervisor

    supervisors, reaped, seen = [], [0], []

    class CountingSupervisor(PoolSupervisor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            supervisors.append(self)

        def reap(self, timeout=0.0):
            out = super().reap(timeout)
            reaped[0] += len(out)
            return out

    settle = CampaignRunner._settle

    def observed_settle(self, result, records, keys, job, *rest):
        seen.append((job.job_id, len(supervisors[0].flights), total - reaped[0]))
        return settle(self, result, records, keys, job, *rest)

    monkeypatch.setattr(runner_module, "PoolSupervisor", CountingSupervisor)
    monkeypatch.setattr(CampaignRunner, "_settle", observed_settle)
    spec = CampaignSpec.from_dict(
        {"jobs": [{"experiment": "fig6", "axes": {"edge": list(range(8, 16))}}]}
    )
    total = len(spec.expand())
    result = CampaignRunner(spec, tmp_path / "pool", jobs=2).run()
    assert result.done == total == len(seen) == 8
    for job_id, in_flight, unreturned in seen:
        assert in_flight == min(2, unreturned), (job_id, in_flight, unreturned)


# ---------------------------------------------------------------------------
# rerun: all hits, nothing touched
# ---------------------------------------------------------------------------
def test_rerun_is_all_cache_hits_and_touches_nothing(tmp_path):
    runner, first = run_campaign(tmp_path, jobs=2)
    assert first.cache_hits == 0 and len(first.executed) == len(FAST)

    stats = {
        eid: (runner.directory / f"{eid}.txt").stat() for eid in FAST
    }
    second = runner.run()
    assert second.cache_hits == len(FAST)
    assert second.cache_misses == 0
    assert second.executed == []
    assert second.artifacts_written == 0
    assert "100%" in second.summary_line()
    for eid in FAST:
        after = (runner.directory / f"{eid}.txt").stat()
        before = stats[eid]
        assert (after.st_mtime_ns, after.st_size) == (
            before.st_mtime_ns,
            before.st_size,
        ), f"{eid}.txt was touched by an all-hit rerun"


def test_deleted_artifact_restored_from_cache_byte_identical(tmp_path):
    runner, _ = run_campaign(tmp_path, ids=["table1"])
    path = runner.directory / "table1.txt"
    original = path.read_bytes()
    path.unlink()
    second = runner.run()
    assert second.cache_hits == 1 and second.executed == []
    assert second.artifacts_written == 1
    assert path.read_bytes() == original


# ---------------------------------------------------------------------------
# interrupt + resume
# ---------------------------------------------------------------------------
def test_interrupted_campaign_resumes_only_unfinished(tmp_path):
    runner, first = run_campaign(tmp_path, max_jobs=2)
    assert first.interrupted
    assert first.executed == FAST[:2]
    assert first.pending == 2
    # the journal survived the interrupt with exactly the finished jobs
    journal = read_journal(runner.directory / "journal.jsonl")
    assert sorted(journal) == sorted(FAST[:2])

    second = runner.run()
    assert not second.interrupted
    assert second.executed == FAST[2:], "resume must compute only unfinished jobs"
    assert second.cache_hits == 2
    assert second.done == len(FAST)


def test_manifest_tracks_pending_jobs_across_interrupt(tmp_path):
    runner, _ = run_campaign(tmp_path, max_jobs=1)
    doc = json.loads((runner.directory / "manifest.json").read_text())
    statuses = {j["job_id"]: j["status"] for j in doc["jobs"]}
    assert statuses[FAST[0]] == "done"
    assert all(statuses[eid] == "pending" for eid in FAST[1:])
    runner.run()
    doc = json.loads((runner.directory / "manifest.json").read_text())
    assert all(j["status"] == "done" for j in doc["jobs"])
    # manifest digests are the artifacts' real content digests
    from repro.campaign import text_digest

    for job in doc["jobs"]:
        payload = (runner.directory / job["artifact"]).read_text(encoding="utf-8")
        assert job["digest"] == text_digest(payload)


# ---------------------------------------------------------------------------
# failure classification + retry policy
# ---------------------------------------------------------------------------
def test_classify_failure_by_type():
    from repro.faults.errors import FaultError
    from repro.simengine import BudgetExceeded
    from repro.simengine.budget import BudgetSummary

    budget = BudgetExceeded(BudgetSummary("max-events", 1.0, 5, 0.1))
    fault = FaultError(0, 1, 7, 1024)
    assert classify_failure(budget) == "budget"
    assert classify_failure(fault) == "fault"
    assert classify_failure(KeyError("bad experiment")) == "config"
    assert classify_failure(ValueError("bad param")) == "config"
    assert classify_failure(OSError("worker lost")) == "transient"
    assert classify_failure(MemoryError()) == "transient"


def _register(monkeypatch, name, fn):
    monkeypatch.setitem(EXPERIMENTS, name, fn)


def test_deterministic_failures_never_retry(tmp_path, monkeypatch):
    calls = {"budget": 0, "fault": 0}

    def budget_exp():
        calls["budget"] += 1
        from repro.simengine import BudgetExceeded
        from repro.simengine.budget import BudgetSummary

        raise BudgetExceeded(BudgetSummary("max-events", 1.0, 5, 0.1))

    def fault_exp():
        calls["fault"] += 1
        from repro.faults.errors import FaultError

        raise FaultError(0, 1, 7, 1024)

    _register(monkeypatch, "budget_exp", budget_exp)
    _register(monkeypatch, "fault_exp", fault_exp)
    runner, result = run_campaign(
        tmp_path, ids=["budget_exp", "fault_exp", "table1"], jobs=1, retries=3
    )
    assert calls == {"budget": 1, "fault": 1}, "deterministic failures retried"
    assert result.retries == 0
    assert result.failed == 2 and result.done == 1

    by_id = {r.job_id: r for r in result.records}
    assert by_id["budget_exp"].classification == "budget"
    assert by_id["budget_exp"].error_type == "BudgetExceeded"
    assert by_id["fault_exp"].classification == "fault"
    assert by_id["table1"].status == "done", "failures must not stop siblings"


def test_transient_failures_retry_to_success(tmp_path, monkeypatch):
    calls = {"n": 0}

    def flaky_exp():
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("worker hiccough")
        return "flaky result"

    _register(monkeypatch, "flaky_exp", flaky_exp)
    runner, result = run_campaign(tmp_path, ids=["flaky_exp"], jobs=1, retries=1)
    assert calls["n"] == 2
    assert result.retries == 1 and result.done == 1
    (record,) = result.records
    assert record.attempts == 2 and record.status == "done"
    assert (runner.directory / "flaky_exp.txt").read_text() == "flaky result\n"


def test_transient_retries_are_bounded(tmp_path, monkeypatch):
    calls = {"n": 0}

    def doomed_exp():
        calls["n"] += 1
        raise OSError("always down")

    _register(monkeypatch, "doomed_exp", doomed_exp)
    _, result = run_campaign(tmp_path, ids=["doomed_exp"], jobs=1, retries=2)
    assert calls["n"] == 3  # 1 attempt + 2 retries
    (record,) = result.records
    assert record.status == "failed"
    assert record.classification == "transient"
    assert record.attempts == 3


# ---------------------------------------------------------------------------
# journal robustness
# ---------------------------------------------------------------------------
def test_journal_tolerates_torn_tail(tmp_path):
    runner, _ = run_campaign(tmp_path, ids=["table1"])
    journal = runner.directory / "journal.jsonl"
    with open(journal, "a") as fh:
        fh.write('{"job_id": "half-writ')  # hard-kill mid-append
    records = read_journal(journal)
    assert sorted(records) == ["table1"]
    # and the next pass still works
    result = runner.run()
    assert result.done == 1


def test_fresh_truncates_journal_but_keeps_cache(tmp_path):
    runner, _ = run_campaign(tmp_path, ids=["table1"])
    result = runner.run(fresh=True)
    assert result.cache_hits == 1  # cache survives --fresh
    journal = read_journal(runner.directory / "journal.jsonl")
    assert sorted(journal) == ["table1"]


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
def test_campaign_telemetry(tmp_path):
    from repro.obs import Tracer, chrome_trace, metrics_dict, validate_trace_events

    tracer = Tracer()
    spec = CampaignSpec.from_ids(["table1", "top500"], name="obs")
    runner = CampaignRunner(spec, tmp_path / "obs", jobs=1, tracer=tracer)
    runner.run()
    runner.run()  # second pass: hits

    doc = chrome_trace(tracer)
    validate_trace_events(doc)
    names = [e["name"] for e in doc["traceEvents"]]
    assert "table1" in names and "top500" in names  # job spans
    assert "cache-miss" in names and "cache-hit" in names
    assert "running_jobs" in names  # worker-utilization counter track

    counters = metrics_dict(tracer)["counters"]
    assert counters["campaign.jobs_total"] == 4
    assert counters["campaign.cache_misses"] == 2
    assert counters["campaign.cache_hits"] == 2
    assert counters["campaign.executed"] == 2


def test_runner_validates_arguments(tmp_path):
    spec = CampaignSpec.from_ids(["table1"])
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        CampaignRunner(spec, tmp_path, jobs=0)
    with pytest.raises(ValueError, match="retries must be >= 0"):
        CampaignRunner(spec, tmp_path, retries=-1)
