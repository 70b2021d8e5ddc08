"""repro.serve: durable simulation-as-a-service.

The campaign layer (:mod:`repro.campaign`) runs batch passes; this
package wraps the same execution engine — the same
:class:`~repro.campaign.pool.PoolSupervisor` worker pool, the same
:class:`~repro.campaign.ledger.Ledger` for every durable write, the
same :class:`~repro.campaign.policy.FailurePolicy` — in a long-running,
crash-safe HTTP service:

* :mod:`~repro.serve.store` — the SQLite (WAL) durable job queue;
  every state transition a single transaction, schema-versioned,
  fencing-token leases;
* :mod:`~repro.serve.leases` — lease lifecycle: heartbeats, expiry as
  a shared-policy timeout, stale-result discard;
* :mod:`~repro.serve.server` — the asyncio server: bounded admission
  (429 + Retry-After), idempotent submission by cache key, dispatch to
  a worker pool, chaos-drillable SIGKILL recovery;
* :mod:`~repro.serve.client` — the blocking stdlib client the CLI and
  drills use;
* :mod:`~repro.serve.protocol` — the shared HTTP/1.1 + JSON wire layer.

Quick start::

    from repro.serve import CampaignServer, ServerConfig, ServeClient

    handle = CampaignServer(ServerConfig(directory="out/serve")).start_background()
    client = ServeClient("127.0.0.1", handle.port)
    receipt = client.submit({"name": "demo", "jobs": ["table1", "top500"]})
    final = client.wait(receipt["campaign"])
    handle.stop()

CLI: ``repro serve start|submit|status|drain``.  See ``docs/service.md``.
"""

from .client import ServeClient, discover
from .leases import LeaseManager, Settled
from .protocol import (
    API_VERSION,
    JOB_STATES,
    MAX_BODY_BYTES,
    TERMINAL_STATES,
    ProtocolError,
    Request,
    ServeError,
    json_body,
    read_request,
    render_response,
)
from .server import (
    DB_FILE,
    SERVE_PID,
    SERVER_FILE,
    CampaignServer,
    ServerConfig,
    ServerHandle,
    campaign_id,
)
from .store import SCHEMA_VERSION, JobRow, JobStore, StoreError

__all__ = [
    "API_VERSION",
    "CampaignServer",
    "DB_FILE",
    "JOB_STATES",
    "JobRow",
    "JobStore",
    "LeaseManager",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "SCHEMA_VERSION",
    "SERVER_FILE",
    "SERVE_PID",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerHandle",
    "Settled",
    "StoreError",
    "TERMINAL_STATES",
    "campaign_id",
    "discover",
    "json_body",
    "read_request",
    "render_response",
]
