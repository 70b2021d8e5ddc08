"""The journal gains a record only when a job's record changes.

The last complete record per job wins, so appending a record equal to
the job's last durable one changes nothing a reader can see.  These
tests pin that the skip is exact: every recovery path still re-appends
what the journal lacks, a mixed campaign ends with the same last record
per job as an always-append runner, and chaos write faults fire only on
writes that happen.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    read_journal,
    rebuild_manifest_doc,
)
from repro.chaos import ChaosEvent, ChaosSpec
from repro.core.evaluation import EXPERIMENTS
from repro.obs import metrics_dict, Tracer

#: fast real experiments (all render in milliseconds)
FAST = ["table1", "top500", "lists", "fig6"]


class AlwaysAppend(CampaignRunner):
    """The runner as it was: every finished job appends its record."""

    def _journal_append(self, record):
        self._journaled = {}
        super()._journal_append(record)


def make_runner(tmp_path, name, ids=None, cls=CampaignRunner, **kwargs):
    """A runner in ``tmp_path / name``; every spec is named alike, so two
    directories' manifests compare equal when their records do."""
    spec = CampaignSpec.from_ids(ids or FAST, name="t")
    return cls(spec, tmp_path / name, **kwargs)


def journal_path(runner):
    return runner.directory / "journal.jsonl"


def journal_lines(runner):
    return journal_path(runner).read_bytes().splitlines()


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


# ---------------------------------------------------------------------------
# all-hit passes
# ---------------------------------------------------------------------------
def test_second_all_hit_pass_appends_nothing(tmp_path, fsyncs):
    tracer = Tracer()
    runner = make_runner(tmp_path, "hits", tracer=tracer)
    runner.run()
    assert len(journal_lines(runner)) == len(FAST)
    assert len(fsyncs) == len(FAST)

    # First all-hit pass: every record's source moves computed -> cache.
    second = runner.run()
    assert second.cache_hits == len(FAST)
    assert len(journal_lines(runner)) == 2 * len(FAST)
    assert len(fsyncs) == 2 * len(FAST)
    assert {r.source for r in read_journal(journal_path(runner)).values()} == {"cache"}
    assert "campaign.journal_unchanged" not in metrics_dict(tracer)["counters"]

    # Second all-hit pass: nothing changed, so nothing is written.
    before = journal_path(runner).read_bytes()
    third = runner.run()
    assert third.cache_hits == len(FAST)
    assert journal_path(runner).read_bytes() == before
    assert len(fsyncs) == 2 * len(FAST), "an unchanged record was fsync'd"
    counters = metrics_dict(tracer)["counters"]
    assert counters["campaign.journal_unchanged"] == len(FAST)
    assert counters["campaign.cache_hits"] == 2 * len(FAST)


def test_every_appended_record_is_fsyncd_on_its_own(tmp_path, fsyncs):
    runner = make_runner(tmp_path, "durable")
    runner.run()
    runner.run()
    assert len(fsyncs) == len(journal_lines(runner)) == 2 * len(FAST)


# ---------------------------------------------------------------------------
# recovery: whatever the journal lacks is appended by the next pass
# ---------------------------------------------------------------------------
def settled(tmp_path, name, **kwargs):
    """A runner whose journal already ends with each job's cache record."""
    runner = make_runner(tmp_path, name, **kwargs)
    runner.run()
    runner.run()
    return runner


def assert_journal_holds(runner, result):
    """The journal's last record per job is the record the pass made."""
    journal = read_journal(journal_path(runner))
    assert journal == {r.job_id: r for r in result.records}
    assert sorted(journal) == sorted(FAST)


def test_fresh_pass_rejournals_every_job(tmp_path):
    runner = settled(tmp_path, "fresh")
    result = runner.run(fresh=True)
    assert result.cache_hits == len(FAST)
    assert len(journal_lines(runner)) == len(FAST)
    assert_journal_holds(runner, result)


def test_deleted_journal_is_rewritten(tmp_path):
    runner = settled(tmp_path, "deleted")
    journal_path(runner).unlink()
    result = runner.run()
    assert len(journal_lines(runner)) == len(FAST)
    assert_journal_holds(runner, result)


def test_torn_tail_record_is_appended_again(tmp_path):
    runner = settled(tmp_path, "torn")
    path = journal_path(runner)
    data = path.read_bytes()
    last = data.splitlines()[-1]
    job = json.loads(last)["job_id"]
    path.write_bytes(data[: len(data) - len(last) // 2 - 1])  # a kill mid-append
    # The torn record was the job's cache record; its computed one remains.
    assert read_journal(path)[job].source == "computed"

    result = runner.run()
    assert_journal_holds(runner, result)
    lines = journal_lines(runner)
    # The torn fragment is healed onto its own line, then only the lost
    # record is appended again.
    assert len(lines) == 2 * len(FAST) + 1
    assert json.loads(lines[-1])["job_id"] == job


def test_journal_ioerr_in_first_pass_is_repaired_by_the_next(tmp_path):
    chaos = ChaosSpec(events=(ChaosEvent(kind="ioerr", stream="journal", job="table1"),))
    hurt = make_runner(tmp_path, "ioerr", chaos=chaos)
    first = hurt.run()
    assert first.chaos_fired == ["ioerr:journal:table1"]
    assert "table1" not in read_journal(journal_path(hurt))

    result = make_runner(tmp_path, "ioerr").run()
    assert_journal_holds(hurt, result)


# ---------------------------------------------------------------------------
# a mixed campaign: same last record per job as always-append
# ---------------------------------------------------------------------------
def test_mixed_sequence_matches_always_append(tmp_path, monkeypatch):
    def broken_exp():
        raise ValueError("deterministic config error")

    monkeypatch.setitem(EXPERIMENTS, "broken_exp", broken_exp)
    ids = ["table1", "top500", "broken_exp", "lists", "fig6"]
    poison = ChaosSpec(
        events=(
            ChaosEvent(kind="kill", job="lists", attempt=1),
            ChaosEvent(kind="kill", job="lists", attempt=2),
        )
    )
    kwargs = dict(ids=ids, jobs=1, retries=3, backoff_base=0.001, quarantine_after=2)
    new = make_runner(tmp_path, "new", **kwargs)
    old = make_runner(tmp_path, "old", cls=AlwaysAppend, **kwargs)

    def both(**run_kwargs):
        results = [runner.run(**run_kwargs) for runner in (new, old)]
        a, b = (read_journal(journal_path(r)) for r in (new, old))
        assert a == b
        docs = [rebuild_manifest_doc(r.directory) for r in (new, old)]
        assert docs[0] == docs[1]
        return results

    interrupted, _ = both(max_jobs=2)  # compute two, leave three pending
    assert interrupted.interrupted and interrupted.pending == 3
    new.chaos = old.chaos = poison
    mixed, _ = both()  # two hits, a failure, a quarantine, one compute
    assert (mixed.cache_hits, mixed.failed, mixed.quarantined) == (2, 1, 1)
    new.chaos = old.chaos = None
    hits, _ = both()  # hits, the same failure again, poison carried forward
    assert (hits.cache_hits, hits.failed, hits.quarantined) == (3, 1, 1)
    both()
    both(fresh=True)  # quarantine lifted: the poison job now computes
    both()
    assert len(journal_lines(new)) < len(journal_lines(old))


# ---------------------------------------------------------------------------
# chaos: a skipped write has nothing to tear
# ---------------------------------------------------------------------------
JOURNAL_FAULTS = ChaosSpec(
    events=(
        ChaosEvent(kind="torn", stream="journal", job="table1"),
        ChaosEvent(kind="ioerr", stream="journal", job="top500"),
    )
)


def test_journal_fault_on_unchanged_record_does_not_fire(tmp_path):
    runner = settled(tmp_path, "quiet")
    before = journal_path(runner).read_bytes()
    runner.chaos = JOURNAL_FAULTS
    result = runner.run()
    assert result.chaos_fired == []
    assert "no injections fired" in runner.chaos_report()
    assert journal_path(runner).read_bytes() == before
    assert_journal_holds(runner, result)


def test_journal_fault_on_changed_record_fires_as_before(tmp_path):
    new = make_runner(tmp_path, "new", chaos=JOURNAL_FAULTS)
    old = make_runner(tmp_path, "old", cls=AlwaysAppend, chaos=JOURNAL_FAULTS)
    for _ in range(2):  # a compute pass, then the first all-hit pass
        a, b = new.run(), old.run()
        assert a.chaos_fired == b.chaos_fired == ["ioerr:journal:top500", "torn:journal:table1"]
        assert read_journal(journal_path(new)) == read_journal(journal_path(old))
    assert sorted(read_journal(journal_path(new))) == ["fig6", "lists"]
