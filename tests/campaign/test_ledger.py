"""One write-fault contract for both front doors.

``repro campaign run`` and ``repro serve start`` write a campaign
directory through the same ledger, so an injected torn or failed write
must be absorbed the same way by each: the fault fires once, every job
still ends ``done``, and the next pass (or ``repro campaign status``
rebuilding from the journal) recovers what the fault cost.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, read_journal
from repro.chaos import ChaosEvent, ChaosPlan
from repro.cli import main
from repro.serve.client import ServeClient
from repro.serve.server import CampaignServer, ServerConfig

FAST = ["table1", "top500", "lists"]

FAULTS = {
    "torn-cache": ChaosEvent(kind="torn", stream="cache", job="table1"),
    "ioerr-journal": ChaosEvent(kind="ioerr", stream="journal", job="table1"),
    "torn-manifest": ChaosEvent(kind="torn", stream="manifest"),
}


def run_batch(directory, plan):
    runner = CampaignRunner(CampaignSpec.from_ids(FAST, name="faults"), directory, chaos=plan)
    result = runner.run()
    return result.chaos_fired, {r.job_id: r.status for r in result.records}


def run_served(directory, plan):
    server = CampaignServer(ServerConfig(directory=directory, tick_s=0.02, jobs=2, chaos=plan))
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "faults", "jobs": FAST})
        final = client.wait(doc["campaign"], timeout=60, poll_s=0.02)
        fired = client.stats()["chaos_fired"]
    finally:
        handle.stop()
    return fired, {job["job_id"]: job["state"] for job in final["jobs"]}


def status_counts(directory):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["campaign", "status", "-o", str(directory), "--json"]) == 0
    return json.loads(out.getvalue())["counts"]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("front_door", [run_batch, run_served], ids=["batch", "serve"])
def test_a_write_fault_fires_once_and_is_recovered(tmp_path, front_door, fault):
    event = FAULTS[fault]
    directory = tmp_path / "camp"
    fired, states = front_door(directory, ChaosPlan(seed=0, events=(event,)))
    assert fired == [event.key()]
    assert states == {eid: "done" for eid in FAST}
    if event.stream == "cache":
        # the torn entry reads as a miss: the next pass recomputes it alone
        again = CampaignRunner(
            CampaignSpec.from_ids(FAST, name="again"),
            tmp_path / "again",
            cache_dir=directory / ".cache",
        ).run()
        assert again.executed == ["table1"] and again.cache_hits == len(FAST) - 1
        assert again.done == len(FAST)
    elif event.stream == "journal":
        # the failed append is lost; the manifest still holds the truth
        assert sorted(read_journal(directory / "journal.jsonl")) == ["lists", "top500"]
        assert status_counts(directory) == {"done": len(FAST)}
    else:
        assert status_counts(directory) == {"done": len(FAST)}
