"""The server's incremental manifest against a full re-render.

The server re-encodes only the ledger rows that changed since its last
write and reuses the pieces of the rest.  Driving one store through
every transition, and writing after each, must give exactly the bytes a
full ``json.dumps`` of the whole ledger gives — no stale piece survives.
"""

import json

from repro.campaign.manifest import JobRecord, manifest_doc
from repro.serve.protocol import Request
from repro.serve.server import CampaignServer, ServerConfig


def reference_manifest(server):
    """Every ledger row as a record, rendered in one ``json.dumps``."""
    records = [
        JobRecord(
            job_id=row.job_id,
            experiment=row.experiment,
            params=row.params,
            status=row.state,
            source=row.source,
            digest=row.digest,
            artifact=row.artifact,
            attempts=row.attempts,
            error=row.error,
            error_type=row.error_type,
            classification=row.classification,
            backoff_s=row.backoff_s,
        )
        for row in server.store.jobs()
    ]
    doc = manifest_doc(records, name=server.config.name, code_fingerprint=server._fingerprint)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def submit(server, name, jobs):
    body = json.dumps({"name": name, "jobs": jobs}).encode()
    status, _, _ = server._route(Request("POST", "/v1/campaigns", body=body))
    assert status == 201


def test_incremental_manifest_matches_a_full_render_after_every_transition(tmp_path):
    server = CampaignServer(ServerConfig(directory=tmp_path / "srv", name="live ☃"))
    store, path = server.store, server.directory / "manifest.json"

    def check(step):
        server._write_manifest()
        assert path.read_text(encoding="utf-8") == reference_manifest(server), step
        assert len(server._manifest_pieces) == len(store.jobs())

    check("empty ledger")
    fig3 = {"experiment": "fig3", "params": {"nbytes": 1024, "processes": 64}}
    submit(server, "first", ["table1", "top500", "lists", fig3])
    check("submit")
    a = store.acquire(worker=0, lease_ttl=5.0)
    check("acquire")
    assert store.mark_running(a.key, a.lease_token)
    check("mark_running")
    piece = server._manifest_pieces[a.key][1]
    assert store.heartbeat([(a.key, a.lease_token)], lease_ttl=5.0) == 1
    check("heartbeat")
    assert server._manifest_pieces[a.key][1] is piece  # lease columns are not in the record
    assert store.complete(a.key, a.lease_token, digest="d" * 64, artifact="table1.txt")
    check("complete")
    b = store.acquire(worker=1, lease_ttl=5.0)
    error = 'worker said "no"\nthen \\ gave up ☃'
    assert store.requeue_failure(b.key, b.lease_token, "transient", error, "ValueError", 0.0)
    check("requeue_failure")
    b = store.acquire(worker=1, lease_ttl=5.0)
    assert store.finalize_failure(
        b.key, b.lease_token, "quarantined", "poison", "boom\t2", "KeyError"
    )
    check("finalize_failure")
    c = store.acquire(worker=0, lease_ttl=5.0)
    assert store.release_innocent(c.key, c.lease_token)
    check("release_innocent")
    submit(server, "second", ["lists", "fig6"])
    check("second submit (one dedup, one new)")
