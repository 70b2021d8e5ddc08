"""The durable job queue: SQLite in WAL mode, one transaction per transition.

This is the crash-safety core of the campaign service.  Design rules:

* **Every state transition is a single transaction** (``BEGIN
  IMMEDIATE`` … ``COMMIT``), so a SIGKILL at any instant leaves the
  database at a transition boundary — never between "job marked done"
  and "lease cleared".
* **WAL + ``synchronous=FULL``**: a committed transition survives the
  process dying before the next line executes.  Readers (status
  requests) never block the dispatcher's writes.
* **Schema is versioned** via ``PRAGMA user_version``; opening a
  database from a newer schema fails loudly instead of corrupting it.
* **Submission is idempotent**: the primary key of a job row is its
  content-address (the campaign :func:`~repro.campaign.cache.cache_key`),
  so resubmitting the same work — same client retrying after a 429, four
  concurrent clients racing the same spec — collapses onto one row.
* **Leases carry fencing tokens**: every grant gets a fresh token, and
  every terminal transition must present the token it was granted.  A
  worker whose lease expired (missed heartbeats) can still finish its
  computation, but its attempt to commit the result is detected as
  stale and discarded — no duplicated side effects.

The store knows nothing about HTTP, workers, or retry policy; it is the
ledger.  :mod:`repro.serve.leases` applies policy on top of it.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from contextlib import contextmanager

from ..perf.hostclock import host_counter
from .protocol import JOB_STATES, TERMINAL_STATES

__all__ = ["SCHEMA_VERSION", "StoreError", "JobRow", "JobStore"]

#: Bump on any incompatible schema change; the store refuses databases
#: written by a *newer* schema and migrates (today: creates) older ones.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL UNIQUE,
    job_id         TEXT NOT NULL,
    experiment     TEXT NOT NULL,
    params         TEXT NOT NULL,
    state          TEXT NOT NULL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    kills          INTEGER NOT NULL DEFAULT 0,
    not_before     REAL NOT NULL DEFAULT 0,
    lease_token    TEXT NOT NULL DEFAULT '',
    lease_worker   INTEGER NOT NULL DEFAULT -1,
    lease_deadline REAL NOT NULL DEFAULT 0,
    source         TEXT NOT NULL DEFAULT '',
    digest         TEXT NOT NULL DEFAULT '',
    artifact       TEXT NOT NULL DEFAULT '',
    error          TEXT NOT NULL DEFAULT '',
    error_type     TEXT NOT NULL DEFAULT '',
    classification TEXT NOT NULL DEFAULT '',
    backoff_s      TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, not_before);
CREATE TABLE IF NOT EXISTS campaigns (
    id       TEXT PRIMARY KEY,
    name     TEXT NOT NULL,
    spec     TEXT NOT NULL,
    accepted INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    campaign_id TEXT NOT NULL,
    key         TEXT NOT NULL,
    position    INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, key)
);
CREATE TABLE IF NOT EXISTS chaos_fired (key TEXT PRIMARY KEY);
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
"""


class StoreError(RuntimeError):
    """The job store cannot be opened or a transition is invalid."""


@dataclass
class JobRow:
    """One job as the ledger sees it (plain data, no live objects)."""

    key: str
    job_id: str
    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    state: str = "queued"
    attempts: int = 0
    kills: int = 0
    not_before: float = 0.0
    lease_token: str = ""
    lease_worker: int = -1
    lease_deadline: float = 0.0
    source: str = ""
    digest: str = ""
    artifact: str = ""
    error: str = ""
    error_type: str = ""
    classification: str = ""
    backoff_s: List[float] = field(default_factory=list)

    @classmethod
    def _from_sql(cls, row: sqlite3.Row) -> "JobRow":
        return cls(
            key=row["key"],
            job_id=row["job_id"],
            experiment=row["experiment"],
            params=json.loads(row["params"]),
            state=row["state"],
            attempts=row["attempts"],
            kills=row["kills"],
            not_before=row["not_before"],
            lease_token=row["lease_token"],
            lease_worker=row["lease_worker"],
            lease_deadline=row["lease_deadline"],
            source=row["source"],
            digest=row["digest"],
            artifact=row["artifact"],
            error=row["error"],
            error_type=row["error_type"],
            classification=row["classification"],
            backoff_s=json.loads(row["backoff_s"]),
        )


class JobStore:
    """The SQLite-backed durable queue behind the campaign service.

    ``clock`` supplies host seconds (monotonic; the sanctioned
    :func:`~repro.perf.hostclock.host_counter` by default — on Linux its
    epoch is boot time, so ``not_before`` backoff stamps stay comparable
    across a restart of the server process).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        clock: Callable[[], float] = host_counter,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self._token_seq = 0
        # check_same_thread=False: the store may be *built* on one
        # thread and then used from the server's event-loop thread
        # (start_background); after init, all access is single-threaded
        # by construction — routes and dispatcher share the loop.
        self._conn = sqlite3.connect(
            str(self.path), isolation_level=None, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        cur = self._conn.cursor()
        cur.execute("PRAGMA journal_mode=WAL")
        cur.execute("PRAGMA synchronous=FULL")
        cur.execute("PRAGMA busy_timeout=5000")
        version = cur.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            self._conn.close()
            raise StoreError(
                f"{self.path}: schema version {version} is newer than this "
                f"code understands ({SCHEMA_VERSION}); refusing to touch it"
            )
        # executescript issues its own COMMIT, so no _txn() here; the
        # pragma write after it is atomic on its own.
        cur.executescript(_SCHEMA)
        cur.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Cursor]:
        """One transition = one transaction (IMMEDIATE: writer lock now,
        so a transition never splits around a reader's snapshot)."""
        cur = self._conn.cursor()
        cur.execute("BEGIN IMMEDIATE")
        try:
            yield cur
        except BaseException:
            cur.execute("ROLLBACK")
            raise
        cur.execute("COMMIT")

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        campaign_id: str,
        name: str,
        spec_doc: Dict[str, Any],
        rows: List[Dict[str, Any]],
    ) -> List[str]:
        """Admit one campaign's expanded jobs; idempotent by content key.

        ``rows`` carry ``key``/``job_id``/``experiment``/``params`` plus
        optionally ``state='done'`` + ``digest``/``artifact``/``source``
        for jobs already served by the result cache.  Returns one
        disposition per row, aligned: ``"accepted"`` (new queued row),
        ``"cache"`` (new row, already done via cache), or ``"dedup"``
        (row existed — submission folded onto it).  The whole admission
        is a single transaction: a SIGKILL mid-submit loses the entire
        campaign or none of it, never half.
        """
        dispositions: List[str] = []
        with self._txn() as cur:
            cur.execute(
                "INSERT OR IGNORE INTO campaigns (id, name, spec) VALUES (?, ?, ?)",
                (campaign_id, name, json.dumps(spec_doc, sort_keys=True)),
            )
            for position, row in enumerate(rows):
                existing = cur.execute(
                    "SELECT state FROM jobs WHERE key=?", (row["key"],)
                ).fetchone()
                if existing is not None:
                    dispositions.append("dedup")
                else:
                    state = row.get("state", "queued")
                    if state not in JOB_STATES:
                        raise StoreError(f"bad submit state {state!r}")
                    cur.execute(
                        "INSERT INTO jobs (key, job_id, experiment, params, "
                        "state, source, digest, artifact) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            row["key"],
                            row["job_id"],
                            row["experiment"],
                            json.dumps(row["params"], sort_keys=True),
                            state,
                            row.get("source", ""),
                            row.get("digest", ""),
                            row.get("artifact", ""),
                        ),
                    )
                    dispositions.append("cache" if state == "done" else "accepted")
                cur.execute(
                    "INSERT OR IGNORE INTO campaign_jobs "
                    "(campaign_id, key, position) VALUES (?, ?, ?)",
                    (campaign_id, row["key"], position),
                )
        return dispositions

    # -- leases -------------------------------------------------------------
    def acquire(self, worker: int, lease_ttl: float) -> Optional[JobRow]:
        """Lease the oldest eligible queued job, or ``None``.

        The SELECT and the UPDATE share one immediate transaction, so
        two dispatchers (or a dispatcher racing its own tick) can never
        lease the same row.  The fencing token is unique per grant.
        """
        now = self.clock()
        self._token_seq += 1
        token = f"{os.getpid()}:{self._token_seq}"
        with self._txn() as cur:
            row = cur.execute(
                "SELECT * FROM jobs WHERE state='queued' AND not_before<=? "
                "ORDER BY seq LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            cur.execute(
                "UPDATE jobs SET state='leased', lease_token=?, lease_worker=?, "
                "lease_deadline=? WHERE key=?",
                (token, worker, now + lease_ttl, row["key"]),
            )
        job = JobRow._from_sql(row)
        job.state = "leased"
        job.lease_token = token
        job.lease_worker = worker
        job.lease_deadline = now + lease_ttl
        return job

    def mark_running(self, key: str, token: str) -> bool:
        with self._txn() as cur:
            cur.execute(
                "UPDATE jobs SET state='running' "
                "WHERE key=? AND lease_token=? AND state='leased'",
                (key, token),
            )
            return cur.rowcount == 1

    def heartbeat(self, keys_tokens: List[tuple], lease_ttl: float) -> int:
        """Extend the lease deadline of live (key, token) pairs."""
        if not keys_tokens:
            return 0
        deadline = self.clock() + lease_ttl
        extended = 0
        with self._txn() as cur:
            for key, token in keys_tokens:
                cur.execute(
                    "UPDATE jobs SET lease_deadline=? "
                    "WHERE key=? AND lease_token=? AND state IN "
                    "('leased', 'running')",
                    (deadline, key, token),
                )
                extended += cur.rowcount
        return extended

    def expired_leases(self) -> List[JobRow]:
        """Leases whose deadline passed without a heartbeat (read-only)."""
        now = self.clock()
        rows = self._conn.execute(
            "SELECT * FROM jobs WHERE state IN ('leased', 'running') "
            "AND lease_deadline < ? ORDER BY seq",
            (now,),
        ).fetchall()
        return [JobRow._from_sql(r) for r in rows]

    # -- transitions out of a lease -----------------------------------------
    def _fenced_update(
        self,
        cur: sqlite3.Cursor,
        key: str,
        token: str,
        sets: str,
        values: tuple,
    ) -> bool:
        """Token-fenced transition out of leased/running."""
        cur.execute(
            f"UPDATE jobs SET {sets}, lease_token='', lease_worker=-1, "
            "lease_deadline=0 "
            "WHERE key=? AND lease_token=? AND state IN ('leased', 'running')",
            values + (key, token),
        )
        return cur.rowcount == 1

    def complete(self, key: str, token: str, digest: str, artifact: str) -> bool:
        """Commit a successful result; False when the lease went stale.

        A stale commit (expired lease, job already requeued or finished
        by another grant) is *not* an error — the computation was
        deterministic, the artifact bytes are identical, the ledger
        simply keeps the earlier owner's word.
        """
        with self._txn() as cur:
            return self._fenced_update(
                cur,
                key,
                token,
                "state='done', source='computed', digest=?, artifact=?, "
                "attempts=attempts+1, error='', error_type='', classification=''",
                (digest, artifact),
            )

    def requeue_failure(
        self,
        key: str,
        token: str,
        classification: str,
        error: str,
        error_type: str,
        delay_s: float,
        add_kill: bool = False,
    ) -> bool:
        """One failed attempt, retried: back to queued with backoff."""
        with self._txn() as cur:
            row = cur.execute(
                "SELECT backoff_s FROM jobs WHERE key=? AND lease_token=?",
                (key, token),
            ).fetchone()
            if row is None:
                return False
            backoff = json.loads(row["backoff_s"]) + [delay_s]
            return self._fenced_update(
                cur,
                key,
                token,
                "state='queued', attempts=attempts+1, "
                f"kills=kills+{1 if add_kill else 0}, not_before=?, "
                "classification=?, error=?, error_type=?, backoff_s=?",
                (
                    self.clock() + delay_s,
                    classification,
                    error,
                    error_type,
                    json.dumps(backoff),
                ),
            )

    def finalize_failure(
        self,
        key: str,
        token: str,
        status: str,
        classification: str,
        error: str,
        error_type: str,
        add_kill: bool = False,
    ) -> bool:
        """One failed attempt, final: ``failed`` or ``quarantined``."""
        if status not in ("failed", "quarantined"):
            raise StoreError(f"finalize_failure: bad status {status!r}")
        with self._txn() as cur:
            return self._fenced_update(
                cur,
                key,
                token,
                "state=?, attempts=attempts+1, "
                f"kills=kills+{1 if add_kill else 0}, "
                "classification=?, error=?, error_type=?",
                (status, classification, error, error_type),
            )

    def release_innocent(self, key: str, token: str) -> bool:
        """Requeue a lease whose *host* failed (server restart, pool
        death not attributable to the job): no attempt consumed, no
        backoff — the job did nothing wrong."""
        with self._txn() as cur:
            return self._fenced_update(cur, key, token, "state='queued'", ())

    # -- restart recovery ---------------------------------------------------
    def recover(self) -> int:
        """Requeue every lease held when the previous process died.

        Called once at open: any ``leased``/``running`` row belongs to a
        dispatcher that no longer exists (the store is single-server by
        design), so the jobs go back to the queue with no attempt
        consumed — a server crash is never the job's fault.  Returns how
        many accepted jobs were recovered; none are ever lost.
        """
        with self._txn() as cur:
            cur.execute(
                "UPDATE jobs SET state='queued', lease_token='', "
                "lease_worker=-1, lease_deadline=0, not_before=0 "
                "WHERE state IN ('leased', 'running')"
            )
            return cur.rowcount

    # -- chaos persistence --------------------------------------------------
    def note_chaos_fired(self, key: str) -> None:
        """Durably record one fired injection (before it takes effect —
        a ``server_kill`` must not re-fire after the restart)."""
        with self._txn() as cur:
            cur.execute("INSERT OR IGNORE INTO chaos_fired (key) VALUES (?)", (key,))

    def chaos_fired_keys(self) -> List[str]:
        rows = self._conn.execute("SELECT key FROM chaos_fired ORDER BY key")
        return [r["key"] for r in rows.fetchall()]

    # -- meta ---------------------------------------------------------------
    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        ).fetchone()
        return None if row is None else row["value"]

    def set_meta(self, key: str, value: str) -> None:
        with self._txn() as cur:
            cur.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, value),
            )

    # -- queries ------------------------------------------------------------
    def job(self, key: str) -> Optional[JobRow]:
        row = self._conn.execute("SELECT * FROM jobs WHERE key=?", (key,)).fetchone()
        return None if row is None else JobRow._from_sql(row)

    def jobs(self, campaign_id: Optional[str] = None) -> List[JobRow]:
        """All jobs in submission order, or one campaign's in plan order."""
        if campaign_id is None:
            rows = self._conn.execute("SELECT * FROM jobs ORDER BY seq").fetchall()
        else:
            rows = self._conn.execute(
                "SELECT jobs.* FROM jobs JOIN campaign_jobs "
                "ON jobs.key = campaign_jobs.key "
                "WHERE campaign_jobs.campaign_id=? ORDER BY campaign_jobs.position",
                (campaign_id,),
            ).fetchall()
        return [JobRow._from_sql(r) for r in rows]

    def record_rows(self) -> List[tuple]:
        """Every job's manifest columns, undecoded, in submission order:
        ``(key, job_id, experiment, params, state, source, digest,
        artifact, attempts, error, error_type, classification,
        backoff_s)`` with ``params``/``backoff_s`` still JSON text.  Lease
        columns are left out, so a heartbeat does not change a row."""
        cur = self._conn.cursor()
        cur.row_factory = None
        return cur.execute(
            "SELECT key, job_id, experiment, params, state, source, digest, "
            "artifact, attempts, error, error_type, classification, backoff_s "
            "FROM jobs ORDER BY seq"
        ).fetchall()

    def campaign(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE id=?", (campaign_id,)
        ).fetchone()
        if row is None:
            return None
        return {
            "id": row["id"],
            "name": row["name"],
            "spec": json.loads(row["spec"]),
        }

    def campaign_ids(self) -> List[str]:
        rows = self._conn.execute("SELECT id FROM campaigns ORDER BY id").fetchall()
        return [r["id"] for r in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (every state present, zero or not)."""
        out = {state: 0 for state in JOB_STATES}
        for row in self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ).fetchall():
            out[row["state"]] = row["n"]
        return out

    def backlog(self) -> int:
        """Jobs not yet terminal — the shedding bound reads this."""
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state NOT IN (?, ?, ?)",
            TERMINAL_STATES,
        ).fetchone()
        return row["n"]
