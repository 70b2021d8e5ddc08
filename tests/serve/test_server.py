"""CampaignServer: routes, shedding, chaos recovery, live service."""

import json
import time

import pytest

from repro.campaign.cache import cache_key
from repro.chaos import ChaosEvent, ChaosPlan
from repro.cli import main
from repro.serve.protocol import ProtocolError, Request
from repro.serve.server import CampaignServer, ServerConfig
from repro.serve.client import ServeClient


def make_server(tmp_path, **overrides):
    overrides.setdefault("directory", tmp_path / "srv")
    overrides.setdefault("tick_s", 0.02)
    return CampaignServer(ServerConfig(**overrides))


def post_spec(server, jobs, name="camp"):
    body = json.dumps({"name": name, "jobs": jobs}).encode()
    return server._route(Request("POST", "/v1/campaigns", body=body))


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ---------------------------------------------------------------------------
# routing, no event loop: the dispatcher is off, the ledger still works
# ---------------------------------------------------------------------------
def test_submit_accepts_then_dedupes(tmp_path):
    server = make_server(tmp_path)
    status, doc, _ = post_spec(server, ["table1", "top500"])
    assert status == 201
    assert doc["total"] == 2 and doc["accepted"] == 2 and doc["dedup"] == 0
    again_status, again, _ = post_spec(server, ["table1", "top500"])
    assert again_status == 201
    assert again["campaign"] == doc["campaign"]  # same spec, same address
    assert again["accepted"] == 0 and again["dedup"] == 2
    assert server.store.backlog() == 2


def test_submit_time_cache_hits_skip_the_queue(tmp_path):
    server = make_server(tmp_path)
    key = cache_key("table1", {}, server._fingerprint)
    server.cache.put(key, "cached artifact text", meta={})
    status, doc, _ = post_spec(server, ["table1"])
    assert status == 201
    assert doc["cache"] == 1 and doc["accepted"] == 0
    row = server.store.job(key)
    assert row.state == "done" and row.source == "cache"
    assert (server.directory / "table1.txt").read_text() == "cached artifact text\n"
    assert server.store.backlog() == 0


def test_full_backlog_sheds_with_retry_after(tmp_path):
    server = make_server(tmp_path, max_backlog=1, shed_retry_after=3.0)
    assert post_spec(server, ["table1"])[0] == 201
    status, doc, headers = post_spec(server, ["top500"], name="second")
    assert status == 429
    assert headers["Retry-After"] == "3"
    assert "backlog full" in doc["error"]
    assert server.counters["shed"] == 1
    # nothing of the shed spec was admitted — that is the durability bar
    assert server.store.backlog() == 1


def test_draining_server_refuses_submissions(tmp_path):
    server = make_server(tmp_path)
    status, doc, _ = server._route(Request("POST", "/v1/drain"))
    assert status == 200 and doc["draining"] is True
    status, doc, headers = post_spec(server, ["table1"])
    assert status == 503
    assert "Retry-After" in headers


def test_unknown_routes_and_methods(tmp_path):
    server = make_server(tmp_path)
    with pytest.raises(ProtocolError) as err:
        server._route(Request("GET", "/nope"))
    assert err.value.status == 404
    with pytest.raises(ProtocolError) as err:
        server._route(Request("PUT", "/v1/campaigns"))
    assert err.value.status == 405
    with pytest.raises(ProtocolError) as err:
        server._route(Request("GET", "/v1/jobs/missing"))
    assert err.value.status == 404
    with pytest.raises(ProtocolError) as err:
        server._route(Request("GET", "/v1/jobs/missing/artifact"))
    assert err.value.status == 404


def test_campaign_and_health_docs(tmp_path):
    server = make_server(tmp_path)
    _, doc, _ = post_spec(server, ["table1", "top500"])
    cid = doc["campaign"]
    status, camp, _ = server._route(Request("GET", f"/v1/campaigns/{cid}"))
    assert status == 200
    assert camp["counts"] == {"queued": 2}
    assert camp["done"] is False
    assert [j["job_id"] for j in camp["jobs"]] == ["table1", "top500"]
    _, health, _ = server._route(Request("GET", "/v1/health"))
    assert health["backlog"] == 2 and health["draining"] is False
    _, listing, _ = server._route(Request("GET", "/v1/campaigns"))
    assert listing["campaigns"] == [cid]


def test_campaign_status_json_reports_an_in_flight_campaign(tmp_path):
    """Satellite: ``repro campaign status --json`` against a serve
    directory mid-flight — queued/leased/running are first-class."""
    server = make_server(tmp_path)
    post_spec(server, ["table1", "top500", "lists"])
    leased = server.store.acquire(worker=0, lease_ttl=5.0)
    running = server.store.acquire(worker=1, lease_ttl=5.0)
    server.store.mark_running(running.key, running.lease_token)
    server._write_manifest()
    import io
    from contextlib import redirect_stdout

    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["campaign", "status", "-o", str(server.directory), "--json"])
    assert rc == 0
    doc = json.loads(out.getvalue())
    assert doc["counts"] == {"leased": 1, "queued": 1, "running": 1}
    by_id = {j["id"]: j["status"] for j in doc["jobs"]}
    assert by_id[leased.job_id] == "leased"
    assert by_id[running.job_id] == "running"


# ---------------------------------------------------------------------------
# live service: background thread, real sockets, real worker pool
# ---------------------------------------------------------------------------
def test_live_submit_complete_and_artifact_roundtrip(tmp_path):
    server = make_server(tmp_path, jobs=2)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "live", "jobs": ["table1"]})
        assert doc["accepted"] == 1
        final = client.wait(doc["campaign"], timeout=60)
        assert final["done"] is True
        job = final["jobs"][0]
        assert job["state"] == "done" and job["source"] == "computed"
        body = client.artifact(job["key"])
        assert body.decode() == (server.directory / "table1.txt").read_text()
        # resubmission dedupes onto the finished row: nothing re-runs
        again = client.submit({"name": "live", "jobs": ["table1"]})
        assert again["dedup"] == 1 and again["accepted"] == 0
        stats = client.stats()
        assert stats["counters"]["completed"] == 1
    finally:
        handle.stop()


def test_heartbeat_loss_expires_the_lease_and_retries(tmp_path):
    """A lease that stops heartbeating dies of timeout while its worker
    is still running; the late result is discarded as stale and the
    retry produces the artifact."""
    plan = ChaosPlan(
        seed=0,
        events=(
            ChaosEvent(kind="heartbeat_loss", job="table1", attempt=1),
            ChaosEvent(kind="hang", job="table1", attempt=1, seconds=1.5),
        ),
    )
    server = make_server(tmp_path, jobs=1, lease_ttl=0.3, retries=1, chaos=plan)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "hb", "jobs": ["table1"]})
        final = client.wait(doc["campaign"], timeout=60)
        assert final["done"] is True
        assert final["jobs"][0]["state"] == "done"
        stats = client.stats()
        assert stats["counters"]["chaos_heartbeat_loss"] == 1
        assert stats["counters"]["lease_expiries"] >= 1
        assert stats["counters"]["retries"] >= 1
        assert stats["counters"].get("stale_discards", 0) >= 1
    finally:
        handle.stop()


def test_hard_hang_trips_the_server_watchdog(tmp_path):
    """A worker that never returns outlives deadline + grace: the
    watchdog kills it by rebuilding the pool, charges the attempt as a
    timeout, and the retry produces the artifact."""
    plan = ChaosPlan(
        seed=0,
        events=(ChaosEvent(kind="hang", job="table1", attempt=1, seconds=30.0, hard=True),),
    )
    server = make_server(
        tmp_path, jobs=2, deadline_s=0.2, deadline_grace=0.2, tick_s=0.02, chaos=plan
    )
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "hang", "jobs": ["table1", "top500"]})
        final = client.wait(doc["campaign"], timeout=60, poll_s=0.02)
        stats = client.stats()
    finally:
        handle.stop()
    jobs = {job["job_id"]: job for job in final["jobs"]}
    assert [job["state"] for job in final["jobs"]] == ["done", "done"]
    assert jobs["table1"]["attempts"] == 2
    assert len(jobs["table1"]["backoff_s"]) == 1
    assert stats["counters"]["pool_rebuilds"] == 1
    assert "hang:table1@1" in stats["chaos_fired"]


def test_server_kill_fires_once_and_restart_recovers(tmp_path):
    """The tentpole drill in-process: a server_kill injection stops the
    server at lease-grant (fired key already durable); a fresh server
    over the same directory requeues the lease, never re-fires the
    event, and finishes the campaign."""
    directory = tmp_path / "srv"
    plan = ChaosPlan(
        seed=0, events=(ChaosEvent(kind="server_kill", job="table1", attempt=1),)
    )
    first = CampaignServer(
        ServerConfig(directory=directory, tick_s=0.02, jobs=1, chaos=plan)
    )
    first.config.on_server_kill = first.request_stop  # in-process stand-in
    handle = first.start_background()
    try:
        client = ServeClient("127.0.0.1", first.port)
        doc = client.submit({"name": "drill", "jobs": ["table1"]})
        assert doc["accepted"] == 1
        assert wait_for(lambda: not handle.thread.is_alive(), timeout=30)
    finally:
        handle.stop()
    assert first.counters["chaos_server_kill"] == 1

    # restart: no chaos argument — the persisted plan reloads from SQLite
    second = CampaignServer(ServerConfig(directory=directory, tick_s=0.02, jobs=1))
    assert second.counters["recovered_leases"] == 1
    handle = second.start_background()
    try:
        client = ServeClient("127.0.0.1", second.port)
        final = client.wait(doc["campaign"], timeout=60)
        assert final["done"] is True
        assert final["jobs"][0]["state"] == "done"
        stats = client.stats()
        # the one-shot survived the restart: fired set came from SQLite
        assert stats["counters"].get("chaos_server_kill", 0) == 0
        assert stats["chaos_fired"] == ["server_kill:table1@1"]
    finally:
        handle.stop()


def test_drain_completes_backlog_then_exits(tmp_path):
    server = make_server(tmp_path, jobs=2)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "drain", "jobs": ["table1", "top500"]})
        drained = client.drain()
        assert drained["draining"] is True
        assert wait_for(lambda: not handle.thread.is_alive(), timeout=60)
    finally:
        handle.stop()
    # the drained server finished everything before exiting
    counts = {
        j["status"]
        for j in json.loads(
            (server.directory / "manifest.json").read_text()
        )["jobs"]
    }
    assert counts == {"done"}
    assert server.store.recover.__self__ is server.store  # store object survives


# ---------------------------------------------------------------------------
# dispatch: events drive it, the sweep period only bounds housekeeping
# ---------------------------------------------------------------------------
def test_dispatch_is_driven_by_events_not_the_clock(tmp_path):
    """With a 30 s sweep period a campaign still finishes, and a drain
    still exits, in far less than one period: the submission, every
    finished flight and the drain each wake the dispatcher.  A loop that
    sleeps ``tick_s`` between passes needs at least two periods."""
    server = make_server(tmp_path, jobs=2, tick_s=30.0)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "events", "jobs": ["table1", "top500", "lists"]})
        final = client.wait(doc["campaign"], timeout=20, poll_s=0.02)
        assert [j["state"] for j in final["jobs"]] == ["done", "done", "done"]
        client.drain()
        handle.thread.join(timeout=20)
        assert not handle.thread.is_alive()
    finally:
        handle.stop()
    # the exit write leaves the manifest current even between sweeps
    manifest = json.loads((server.directory / "manifest.json").read_text())
    assert [j["status"] for j in manifest["jobs"]] == ["done", "done", "done"]


def test_manifest_writes_are_bounded_by_the_sweep_period(tmp_path):
    from repro.obs import Tracer

    tracer = Tracer()
    start = time.monotonic()
    server = make_server(tmp_path, jobs=2, tick_s=0.2, tracer=tracer)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "sweep", "jobs": ["table1", "top500", "lists", "fig6"]})
        client.wait(doc["campaign"], timeout=60, poll_s=0.02)
        writes = client.stats()["counters"]["manifest_writes"]
        elapsed = time.monotonic() - start
    finally:
        handle.stop()
    assert 1 <= writes <= elapsed / 0.2 + 2
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["serve.manifest_writes"] == server.counters["manifest_writes"]


def test_a_failing_dispatch_pass_is_reported_and_survived(tmp_path, capsys, monkeypatch):
    """A pass that raises is counted, its traceback reaches stderr, and
    the loop keeps serving: the campaign still finishes."""
    server = make_server(tmp_path, jobs=1)
    claim, failures = server._claim, []

    def claim_failing_once():
        if not failures:
            failures.append(1)
            raise OSError(28, "No space left on device")
        claim()

    monkeypatch.setattr(server, "_claim", claim_failing_once)
    handle = server.start_background()
    try:
        client = ServeClient("127.0.0.1", server.port)
        doc = client.submit({"name": "flaky", "jobs": ["table1"]})
        final = client.wait(doc["campaign"], timeout=60, poll_s=0.02)
        assert final["jobs"][0]["state"] == "done"
        assert client.stats()["counters"]["tick_errors"] == 1
    finally:
        handle.stop()
    err = capsys.readouterr().err
    assert err.count("Traceback (most recent call last)") == 1
    assert "No space left on device" in err


def test_pass_failures_print_one_traceback_per_exception_type(tmp_path, capsys):
    server = make_server(tmp_path)
    for exc in (OSError("disk full"), OSError("disk still full"), ValueError("bad row")):
        try:
            raise exc
        except Exception as caught:  # noqa: BLE001 - what the loop catches
            server._pass_failed(caught)
    assert server.counters["tick_errors"] == 3
    err = capsys.readouterr().err
    assert err.count("Traceback (most recent call last)") == 2
    assert "disk full" in err and "bad row" in err and "disk still full" not in err
