"""The chaos acceptance contract: a campaign under injected host
faults — worker kills, hangs past deadline, torn writes — completes
with artifacts byte-identical to an undisturbed run, and the same
chaos seed reproduces the same injection set across runs."""

import multiprocessing
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, read_journal
from repro.chaos import ChaosEvent, ChaosSpec

FAST = ["table1", "top500", "lists"]


def run_chaos(tmp_path, name, chaos=None, ids=None, **kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    spec = CampaignSpec.from_ids(ids or FAST, name=name)
    runner = CampaignRunner(spec, tmp_path / name, chaos=chaos, **kwargs)
    return runner, runner.run()


def assert_artifacts_match(tmp_path, a, b, ids=None):
    for eid in ids or FAST:
        left = (tmp_path / a / f"{eid}.txt").read_bytes()
        right = (tmp_path / b / f"{eid}.txt").read_bytes()
        assert left == right, f"{eid} differs between {a} and {b}"


# ---------------------------------------------------------------------------
# the headline acceptance: kill + hang + torn, byte-identical output
# ---------------------------------------------------------------------------
def test_full_chaos_campaign_completes_byte_identical(tmp_path):
    _, plain = run_chaos(tmp_path, "plain")
    chaos = ChaosSpec.from_string("seed=42,kills=1,hangs=1,torn=1,hang_seconds=0.4")
    runner, hurt = run_chaos(tmp_path, "hurt", chaos=chaos, deadline_s=0.2)
    assert plain.done == hurt.done == len(FAST)
    assert hurt.failed == 0
    assert len(hurt.chaos_fired) == 3
    assert hurt.crashes >= 1 and hurt.timeouts >= 1
    assert_artifacts_match(tmp_path, "plain", "hurt")


def test_same_seed_fires_the_same_injection_set(tmp_path):
    chaos = ChaosSpec.from_string("seed=42,kills=1,hangs=1,torn=1,hang_seconds=0.4")
    _, first = run_chaos(tmp_path, "one", chaos=chaos, deadline_s=0.2)
    _, second = run_chaos(tmp_path, "two", chaos=chaos, deadline_s=0.2)
    assert first.chaos_fired == second.chaos_fired
    assert len(first.chaos_fired) == 3
    assert_artifacts_match(tmp_path, "one", "two")


# ---------------------------------------------------------------------------
# worker kill: real SIGKILL in the pool, rebuild, requeue
# ---------------------------------------------------------------------------
def test_pool_worker_kill_breaks_and_rebuilds_the_pool(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="kill", job="table1"),))
    runner, result = run_chaos(tmp_path, "kill", chaos=chaos, jobs=2)
    assert result.done == len(FAST) and result.failed == 0
    assert result.crashes >= 1
    assert result.pool_rebuilds >= 1
    assert result.chaos_fired == ["kill:table1@1"]
    record = {r.job_id: r for r in result.records}["table1"]
    assert record.attempts == 2  # the killed attempt was consumed
    assert len(record.backoff_s) == 1  # and retried after a seeded delay


def test_inline_worker_kill_is_simulated_and_retried(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="kill", job="table1"),))
    _, result = run_chaos(tmp_path, "ikill", chaos=chaos, jobs=1)
    assert result.done == len(FAST) and result.crashes == 1
    assert result.pool_rebuilds == 0  # no pool to rebuild inline
    record = {r.job_id: r for r in result.records}["table1"]
    assert record.attempts == 2


# ---------------------------------------------------------------------------
# hangs: cooperative timeout vs the hard-hang watchdog
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_cooperative_hang_times_out_and_retries(tmp_path, jobs):
    chaos = ChaosSpec(
        events=(ChaosEvent(kind="hang", job="table1", seconds=5.0),)
    )
    _, result = run_chaos(
        tmp_path, f"hang{jobs}", chaos=chaos, jobs=jobs, deadline_s=0.2
    )
    assert result.done == len(FAST) and result.timeouts == 1
    record = {r.job_id: r for r in result.records}["table1"]
    assert record.attempts == 2 and len(record.backoff_s) == 1


def test_hard_hang_trips_the_parent_watchdog(tmp_path):
    before = set(multiprocessing.active_children())
    chaos = ChaosSpec(
        events=(ChaosEvent(kind="hang", job="table1", seconds=30.0, hard=True),)
    )
    _, result = run_chaos(
        tmp_path, "hard", chaos=chaos, jobs=2, deadline_s=0.2, deadline_grace=0.2
    )
    assert result.done == len(FAST) and result.failed == 0
    assert result.timeouts >= 1
    assert result.pool_rebuilds >= 1  # the stuck worker had to be killed
    assert result.chaos_fired == ["hang:table1@1"]
    # ... and it was: no worker the pass started lives out the 30 s hang
    deadline = time.monotonic() + 10.0
    while set(multiprocessing.active_children()) - before:
        assert time.monotonic() < deadline, "a pool worker outlived its pass"
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# torn / ioerr writes are absorbed, recovery is a clean miss
# ---------------------------------------------------------------------------
def test_torn_cache_write_recomputes_next_pass(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="torn", stream="cache", job="table1"),))
    runner, first = run_chaos(tmp_path, "torn", chaos=chaos)
    assert first.done == len(FAST)
    # rerun without chaos: the torn entry is a miss, the others hit
    rerun = CampaignRunner(
        CampaignSpec.from_ids(FAST, name="torn"), tmp_path / "torn", retries=2
    )
    second = rerun.run()
    assert second.cache_hits == len(FAST) - 1
    assert second.executed == ["table1"]
    assert second.done == len(FAST)
    assert second.artifacts_written == 0  # recompute matched the old bytes


def test_journal_ioerr_is_absorbed_and_campaign_completes(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="ioerr", stream="journal", job="table1"),))
    runner, result = run_chaos(tmp_path, "ioerr", chaos=chaos)
    assert result.done == len(FAST) and result.failed == 0
    # the injected journal append was dropped; everything else landed
    journal = read_journal(runner.directory / "journal.jsonl")
    assert sorted(journal) == sorted(set(FAST) - {"table1"})
    # the manifest still has the full truth
    assert {r.job_id for r in result.records if r.status == "done"} == set(FAST)


def test_torn_manifest_write_is_recoverable(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="torn", stream="manifest"),))
    runner, result = run_chaos(tmp_path, "tmani", chaos=chaos)
    assert result.done == len(FAST)
    from repro.campaign import load_manifest, load_or_rebuild_manifest

    assert load_manifest(runner.directory / "manifest.json") is None  # torn
    doc = load_or_rebuild_manifest(runner.directory)
    assert doc is not None and doc["rebuilt_from_journal"] is True
    assert {j["job_id"]: j["status"] for j in doc["jobs"]} == {
        eid: "done" for eid in FAST
    }
