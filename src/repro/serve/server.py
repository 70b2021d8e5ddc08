"""The campaign server: durable simulation-as-a-service over asyncio.

One process, three cooperating loops:

* the **accept loop** (``asyncio.start_server``) parses one request per
  connection via :mod:`repro.serve.protocol` and answers from the
  durable store — submissions, status, artifacts, drain;
* the **dispatch loop** (a single asyncio task) wakes on every event
  that can create or free work — a submission, a finished flight, a
  drain — then reaps the worker pool, settles each outcome through the
  shared :class:`~repro.campaign.policy.FailurePolicy`, and leases
  eligible jobs into the pool.  At most once per ``tick_s`` a pass also
  *sweeps*: it expires dead leases, heartbeats live ones, and rewrites
  ``manifest.json`` if the ledger changed (re-encoding only the rows
  that moved).  Without an event the loop sleeps until the next sweep
  is due, so backoff requeues still become claimable within ``tick_s``;
* the **worker pool** is a :class:`~repro.campaign.pool.PoolSupervisor`,
  the one ``repro campaign run --jobs N`` uses: the same
  :func:`~repro.campaign.worker.execute_job`, kill and hang
  attribution, deadline watchdog and pool rebuild — so a served
  artifact is byte-identical to a batch one, and a worker death or a
  hang is charged to a job by the same rules.

Crash-safety contract (the chaos drill proves it): the server may be
SIGKILLed at any instant.  Every accepted job lives in a single-
transaction SQLite row (:class:`~repro.serve.store.JobStore`) before
the 201 is sent.  Artifacts, cache entries, journal records and the
manifest go through the :class:`~repro.campaign.ledger.Ledger` that
``repro campaign run`` writes with: whole files land temp +
``os.replace``, terminal outcomes append to the fsync'd, torn-tolerant
journal, and injected write faults are absorbed the same way.  On
restart the store requeues every lease the dead process held, the
chaos fired-set reloads from SQLite (a ``server_kill`` never fires
twice), and completed work is never recomputed — resubmits dedupe onto
done rows and cache hits.

Side-effect idempotency: results commit under a **fencing token**.  A
worker whose lease expired can finish and try to report — the store
rejects the stale token, the server skips the artifact/cache/journal
writes, and the reclaimed lease's owner (or the result cache) produces
the identical bytes instead.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import signal
import sys
import threading
import traceback
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..campaign.cache import (
    ResultCache,
    artifact_text,
    atomic_write,
    cache_key,
    code_fingerprint,
    text_digest,
)
from ..campaign.ledger import Ledger
from ..campaign.manifest import JobRecord, manifest_text, record_text
from ..campaign.policy import FailurePolicy
from ..campaign.pool import Flight, PoolSupervisor
from ..campaign.spec import CampaignSpec, SpecError
from ..campaign.worker import JobOutcome
from ..chaos import ChaosEvent, ChaosInjector, ChaosPlan, ChaosSpec
from ..perf.hostclock import HostClock, host_sleep
from .leases import LeaseManager, Settled
from .protocol import (
    API_VERSION,
    ProtocolError,
    Request,
    read_request,
    render_response,
)
from .store import JobRow, JobStore

__all__ = [
    "SERVE_PID",
    "DB_FILE",
    "SERVER_FILE",
    "ServerConfig",
    "ServerHandle",
    "CampaignServer",
]

#: Synthetic Chrome-trace pid for the service track (campaign=1000002).
SERVE_PID = 1000004

#: The durable queue inside the serve directory.
DB_FILE = "serve.db"
#: Discovery file: where a running server says it listens (host, port,
#: pid).  Written atomically on bind; CLI clients read it to connect.
SERVER_FILE = "server.json"


def _row_record(row: tuple) -> JobRecord:
    """One :meth:`JobStore.record_rows` row as its manifest record."""
    (_, job_id, experiment, params, state, source, digest, artifact,
     attempts, error, error_type, classification, backoff_s) = row
    return JobRecord(
        job_id=job_id,
        experiment=experiment,
        params=json.loads(params),
        status=state,
        source=source,
        digest=digest,
        artifact=artifact,
        attempts=attempts,
        error=error,
        error_type=error_type,
        classification=classification,
        backoff_s=json.loads(backoff_s),
    )


def campaign_id(spec: CampaignSpec) -> str:
    """Deterministic campaign address: same spec ⇒ same id ⇒ resubmits
    collapse onto the existing campaign instead of duplicating it."""
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class ServerConfig:
    """Everything a :class:`CampaignServer` needs to run.

    ``lease_ttl`` is the heartbeat contract: a lease not refreshed
    within it is presumed dead and requeued (classification
    ``timeout``, shared policy).  ``max_backlog`` bounds accepted but
    unfinished jobs — submissions past it shed with 429 + Retry-After
    instead of growing the queue without bound.
    """

    directory: Union[str, pathlib.Path] = "serve-out"
    host: str = "127.0.0.1"
    port: int = 0
    name: str = "serve"
    jobs: int = 2
    retries: int = 1
    backoff_base: float = 0.05
    quarantine_after: int = 2
    lease_ttl: float = 5.0
    deadline_s: Optional[float] = None
    deadline_grace: float = 2.0
    max_backlog: int = 64
    shed_retry_after: float = 1.0
    #: sweep period (lease expiry, heartbeats, watchdog, manifest write)
    #: and the longest the dispatch loop sleeps without an event;
    #: dispatch itself runs as soon as a submission or completion lands
    tick_s: float = 0.05
    cache_dir: Optional[Union[str, pathlib.Path]] = None
    chaos: Optional[Union[ChaosSpec, ChaosPlan]] = None
    tracer: Optional[Any] = None
    #: test seam: what a ``server_kill`` injection does (default: a real
    #: ``SIGKILL`` of this process — the drill runs the server as a
    #: subprocess and watches it die mid-lease)
    on_server_kill: Optional[Callable[[], None]] = None


class ServerHandle:
    """A background (thread-hosted) server, for tests and drills."""

    def __init__(self, server: "CampaignServer", thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout=timeout)


class CampaignServer:
    """See the module docstring; one instance serves one directory."""

    def __init__(self, config: ServerConfig) -> None:
        if config.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.config = config
        self.directory = pathlib.Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = FailurePolicy(
            retries=config.retries,
            backoff_base=config.backoff_base,
            quarantine_after=config.quarantine_after,
        )
        self.policy.validate()
        self.store = JobStore(self.directory / DB_FILE)
        self.leases = LeaseManager(self.store, self.policy, config.lease_ttl)
        self.cache = ResultCache(config.cache_dir or self.directory / ".cache")
        self.tracer = config.tracer
        self.port = 0
        self.draining = False
        self.counters: Dict[str, int] = {}
        self._fingerprint = code_fingerprint()
        self._clock = HostClock()
        self.ledger = Ledger(self.directory, self.cache, self._count, self._note_chaos_fired)
        self._pool = PoolSupervisor(
            config.jobs,
            config.deadline_s,
            config.deadline_grace,
            now=self._now,
            count=self._count,
            note=self._note_chaos_fired,
        )
        #: lease tokens a heartbeat_loss injection silenced: left to expire
        self._silent: Set[str] = set()
        self._stop: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._manifest_dirty = True
        #: job key -> (its last ``record_rows`` row, that row's manifest piece)
        self._manifest_pieces: Dict[str, Tuple[tuple, str]] = {}
        #: exception types whose traceback a failed pass already printed
        self._reported_errors: Set[type] = set()
        self._injector: Optional[ChaosInjector] = None
        recovered = self.store.recover()
        if recovered:
            self._count("recovered_leases", recovered)
        self._load_chaos()
        if self.tracer is not None:
            self.tracer.set_process_name(SERVE_PID, f"serve {config.name}")
            for slot in range(config.jobs):
                self.tracer.set_thread_name(SERVE_PID, slot, f"worker {slot}")

    # -- small helpers ------------------------------------------------------
    def _now(self) -> float:
        return self._clock.elapsed()

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        if self.tracer is not None:
            self.tracer.metrics.counter(f"serve.{name}").inc(n)

    def _span(self, name: str, start: float, args: Dict[str, Any]) -> None:
        if self.tracer is not None:
            self.tracer.complete(
                SERVE_PID, name, start, self._now(), cat="serve.http", args=args
            )

    # -- chaos wiring -------------------------------------------------------
    def _load_chaos(self) -> None:
        """Rebuild the injector: config plan, else the persisted one.

        A compiled plan is persisted to the store the first time one
        exists, and the durable fired-set reloads into the injector —
        one-shot semantics survive the SIGKILLs the plan itself causes.
        """
        if isinstance(self.config.chaos, ChaosPlan):
            # A pre-compiled plan persists immediately so a restarted
            # server (no --chaos argument) keeps running the same drill.
            self._install_plan(self.config.chaos, persist=True)
            return
        stored = self.store.get_meta("chaos_plan")
        if stored is not None:
            doc = json.loads(stored)
            plan = ChaosPlan(
                seed=doc["seed"],
                events=tuple(ChaosEvent(**e) for e in doc["events"]),
            )
            self._install_plan(plan, persist=False)

    def _install_plan(self, plan: ChaosPlan, persist: bool) -> None:
        injector = ChaosInjector(plan)
        injector.note_fired(self.store.chaos_fired_keys())
        self._injector = self.ledger.injector = self._pool.injector = injector
        if persist:
            doc = {"seed": plan.seed, "events": [asdict(e) for e in plan.events]}
            self.store.set_meta("chaos_plan", json.dumps(doc, sort_keys=True))

    def _compile_chaos(self, job_ids: List[str]) -> None:
        """First submission compiles a ChaosSpec against real job ids."""
        if self._injector is not None or not isinstance(self.config.chaos, ChaosSpec):
            return
        self._install_plan(self.config.chaos.compile(job_ids), persist=True)

    def _note_chaos_fired(self, event: ChaosEvent) -> None:
        """Persist + count one firing (injector already marked it)."""
        self.store.note_chaos_fired(event.key())
        self._count(f"chaos_{event.kind}")
        if self.tracer is not None:
            self.tracer.instant(
                SERVE_PID,
                f"chaos-{event.kind}",
                self._now(),
                cat="chaos",
                args={"event": event.key()},
            )

    def _note_chaos_keys(self, keys: List[str]) -> None:
        if self._injector is None or not keys:
            return
        for event in self._injector.note_fired(keys):
            self._note_chaos_fired(event)

    # -- durable side effects ----------------------------------------------
    def _ensure_artifact(self, job_id: str, text: str) -> Tuple[str, str]:
        """Write ``<job_id>.txt`` unless it already holds these bytes;
        returns ``(digest, artifact_name)``."""
        name = f"{job_id}.txt"
        digest, wrote = self.ledger.artifact(name, text)
        if wrote:
            self._count("artifacts_written")
        return digest, name

    def _write_manifest(self) -> None:
        """Snapshot the whole ledger as a manifest.json — including the
        in-flight ``queued``/``leased``/``running`` states, so ``repro
        campaign status`` works live against a serve directory.

        Only rows that changed since the last write are decoded and
        re-encoded; every other row reuses its memoized piece.  Rows are
        never deleted, so the memo holds exactly the manifest's jobs.
        """
        pieces: List[str] = []
        for row in self.store.record_rows():
            memo = self._manifest_pieces.get(row[0])
            if memo is None or memo[0] != row:
                memo = (row, record_text(_row_record(row)))
                self._manifest_pieces[row[0]] = memo
            pieces.append(memo[1])
        text = manifest_text(
            pieces, name=self.config.name, code_fingerprint=self._fingerprint
        )
        if self.ledger.write_manifest(lambda path: atomic_write(path, text)):
            self._count("manifest_writes")
        self._manifest_dirty = False

    # -- settlement plumbing ------------------------------------------------
    def _settle_success(self, job: JobRow, text: str, source: str) -> None:
        payload = artifact_text(text)
        digest = text_digest(payload)
        settled = self.leases.settle_success(
            job, job.lease_token, digest, f"{job.job_id}.txt"
        )
        if not settled.applied:
            # A stale token lost the race: the ledger already moved on,
            # so this result causes zero side effects — no artifact, no
            # cache write, no journal line.  Idempotency by fencing.
            self._count("stale_discards")
            return
        self._ensure_artifact(job.job_id, text)
        if source == "computed":
            self.ledger.put_cache(job, job.key, text)
        self._count("completed")
        record = JobRecord(
            job_id=job.job_id,
            experiment=job.experiment,
            params=job.params,
            status="done",
            source=source,
            digest=digest,
            artifact=f"{job.job_id}.txt",
            attempts=settled.attempts,
            backoff_s=job.backoff_s,
        )
        self.ledger.append(record)
        self._manifest_dirty = True

    def _journal_failure(self, job: JobRow, settled: Settled, error_type: str) -> None:
        """Count and journal one terminal failure (failed or quarantined)."""
        self._count(settled.status)
        self.ledger.append(
            JobRecord(
                job_id=job.job_id,
                experiment=job.experiment,
                params=job.params,
                status=settled.status,
                source="computed",
                attempts=settled.attempts,
                error=settled.error,
                error_type=error_type,
                classification=settled.classification,
                backoff_s=job.backoff_s,
            )
        )

    # -- the dispatch loop --------------------------------------------------
    def _wake_dispatcher(self) -> None:
        """Run a dispatch pass now."""
        if self._wake is not None:
            self._wake.set()

    def _flight_done(self, _future: Any) -> None:
        """A pool future's done callback, run on the executor's thread:
        wake the dispatcher on the loop's (a no-op once the loop closed)."""
        if self._loop is not None:
            with suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._wake_dispatcher)

    async def _dispatch_loop(self, wake: asyncio.Event, stop: asyncio.Event) -> None:
        next_sweep = self._now()
        while True:
            wake.clear()
            now = self._now()
            sweep = now >= next_sweep
            if sweep:
                next_sweep = now + self.config.tick_s
            try:
                self._pass(sweep)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self._pass_failed(exc)
            if sweep and self._manifest_dirty:
                self._write_manifest()
            if self.draining and not self._pool.flights and self.store.backlog() == 0:
                stop.set()
                return
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(wake.wait(), max(0.0, next_sweep - self._now()))

    def _pass(self, sweep: bool) -> None:
        if sweep:
            self._expire_leases()
            self._heartbeat()
        self._reap()
        self._claim()

    def _pass_failed(self, exc: Exception) -> None:
        """Count a failed pass; the first failure of each exception type
        also prints its traceback, so a persistent fault is never silent."""
        self._count("tick_errors")
        if type(exc) in self._reported_errors:
            return
        self._reported_errors.add(type(exc))
        print(
            f"serve: a dispatch pass raised {type(exc).__name__}; the loop "
            "keeps running, and later ones of this type only count in "
            "tick_errors",
            file=sys.stderr,
        )
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)

    def _expire_leases(self) -> None:
        for settled in self.leases.expire():
            self._count("lease_expiries")
            self._manifest_dirty = True
            if settled.action == "retry":
                self._count("retries")
                continue
            row = self.store.job(settled.key)
            if row is not None:
                self._journal_failure(row, settled, row.error_type)

    def _heartbeat(self) -> None:
        pairs = [
            (flight.ticket.key, flight.ticket.lease_token)
            for flight in self._pool.flights.values()
            if flight.ticket.lease_token not in self._silent and not flight.future.done()
        ]
        self.leases.heartbeat(pairs)

    def _reap(self) -> None:
        """Settle what the pool finished, and every casualty of a worker
        death or the watchdog: victims through the policy, innocents
        back to the queue free of charge."""
        for flight, outcome in self._pool.reap():
            if outcome is not None:
                self._handle_outcome(flight, outcome)
                continue
            settled = self.leases.settle_innocent(flight.ticket, flight.ticket.lease_token)
            if settled.applied:
                self._count("innocent_requeues")
                self._manifest_dirty = True

    def _handle_outcome(self, flight: Flight, outcome: JobOutcome) -> None:
        job: JobRow = flight.ticket
        self._note_chaos_keys(outcome.chaos)
        if self.tracer is not None:
            self.tracer.complete(
                SERVE_PID,
                job.job_id,
                flight.start,
                self._now(),
                cat="serve.job",
                args={
                    "experiment": job.experiment,
                    "ok": outcome.ok,
                    "attempt": flight.attempt,
                },
            )
        if outcome.ok:
            self._settle_success(job, outcome.text, "computed")
            return
        classification = outcome.classification or "transient"
        settled = self.leases.settle_failure(
            job,
            job.lease_token,
            classification,
            outcome.error,
            outcome.error_type,
            add_kill=classification == "crash",
        )
        if not settled.applied:
            self._count("stale_discards")
            return
        self._manifest_dirty = True
        if settled.action == "retry":
            self._count("retries")
        else:
            self._journal_failure(job, settled, outcome.error_type)

    def _fire(self, event: Optional[ChaosEvent]) -> bool:
        """Fire and note one service-side injection; False without one."""
        if event is None or self._injector is None:
            return False
        self._injector.fire(event)
        self._note_chaos_fired(event)
        return True

    def _claim(self) -> None:
        pool, injector = self._pool, self._injector
        if pool.executor is None:
            return
        while len(pool.flights) < self.config.jobs:
            slot = pool.free_slot()
            job = self.leases.acquire(slot)
            if job is None:
                return
            self._manifest_dirty = True
            attempt = job.attempts + 1
            if injector is not None and self._fire(
                injector.server_kill_event(job.job_id, attempt)
            ):
                # The drill moment: the lease is durable, the fired
                # key is durable, and *then* the server dies.  The
                # restarted server must requeue this exact job and
                # never re-fire this event.
                self._server_kill()
                return
            text = self.cache.get(job.key)
            if text is not None:
                self._count("cache_hits")
                self._settle_success(job, text, "cache")
                continue
            if injector is not None and self._fire(
                injector.heartbeat_loss_event(job.job_id, attempt)
            ):
                self._silent.add(job.lease_token)
            self.store.mark_running(job.key, job.lease_token)
            flight = pool.submit(job.job_id, job.experiment, job.params, attempt, slot, job)
            flight.future.add_done_callback(self._flight_done)
            self._count("dispatched")

    def _server_kill(self) -> None:
        self._count("server_kills")
        if self.config.on_server_kill is not None:
            self.config.on_server_kill()
            return
        os.kill(os.getpid(), signal.SIGKILL)

    # -- HTTP surface -------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = self._now()
        status, payload, headers = 500, {"error": "internal error"}, {}
        request: Optional[Request] = None
        try:
            request = await read_request(reader)
            if request is None:
                writer.close()
                return
            status, payload, headers = self._route(request)
        except ProtocolError as exc:
            status, payload, headers = exc.status, {"error": exc.message}, {}
        except SpecError as exc:
            status, payload, headers = 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - never kill the accept loop
            status, payload, headers = 500, {"error": str(exc)}, {}
            self._count("request_errors")
        self._count("requests")
        if request is not None:
            self._span(
                f"{request.method} {request.path}", start, {"status": status}
            )
        try:
            writer.write(render_response(status, payload, headers))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            with suppress(Exception):
                writer.close()

    def _route(self, req: Request) -> Tuple[int, Any, Dict[str, str]]:
        parts = [p for p in req.path.split("/") if p]
        if len(parts) < 2 or parts[0] != "v1":
            raise ProtocolError(404, f"no route for {req.method} {req.path}")
        rest = parts[1:]
        if rest == ["health"] and req.method == "GET":
            return 200, self._health_doc(), {}
        if rest == ["stats"] and req.method == "GET":
            return 200, self._stats_doc(), {}
        if rest == ["drain"] and req.method == "POST":
            self.draining = True
            self._count("drain_requests")
            self._wake_dispatcher()
            return 200, {"draining": True, "backlog": self.store.backlog()}, {}
        if rest == ["campaigns"]:
            if req.method == "POST":
                return self._submit(req)
            if req.method == "GET":
                return 200, {"campaigns": self.store.campaign_ids()}, {}
            raise ProtocolError(405, f"{req.method} not allowed on {req.path}")
        if len(rest) == 2 and rest[0] == "campaigns" and req.method == "GET":
            return self._campaign_doc(rest[1])
        if len(rest) == 2 and rest[0] == "jobs" and req.method == "GET":
            row = self.store.job(rest[1])
            if row is None:
                raise ProtocolError(404, f"no job {rest[1]!r}")
            return 200, self._job_doc(row), {}
        if (
            len(rest) == 3
            and rest[0] == "jobs"
            and rest[2] == "artifact"
            and req.method == "GET"
        ):
            return self._artifact(rest[1])
        raise ProtocolError(404, f"no route for {req.method} {req.path}")

    def _health_doc(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "name": self.config.name,
            "pid": os.getpid(),
            "jobs": self.config.jobs,
            "backlog": self.store.backlog(),
            "counts": self.store.counts(),
            "draining": self.draining,
        }

    def _stats_doc(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "counts": self.store.counts(),
            "backlog": self.store.backlog(),
            "draining": self.draining,
            "chaos_fired": (
                self._injector.fired_keys() if self._injector is not None else []
            ),
        }

    def _job_doc(self, row: JobRow) -> Dict[str, Any]:
        return {
            "key": row.key,
            "job_id": row.job_id,
            "experiment": row.experiment,
            "params": row.params,
            "state": row.state,
            "attempts": row.attempts,
            "kills": row.kills,
            "source": row.source,
            "digest": row.digest,
            "artifact": row.artifact,
            "error": row.error,
            "error_type": row.error_type,
            "classification": row.classification,
            "backoff_s": row.backoff_s,
        }

    def _campaign_doc(self, cid: str) -> Tuple[int, Any, Dict[str, str]]:
        meta = self.store.campaign(cid)
        if meta is None:
            raise ProtocolError(404, f"no campaign {cid!r}")
        rows = self.store.jobs(cid)
        counts: Dict[str, int] = {}
        for row in rows:
            counts[row.state] = counts.get(row.state, 0) + 1
        doc = {
            "id": cid,
            "name": meta["name"],
            "counts": counts,
            "total": len(rows),
            "done": all(row.state in ("done", "failed", "quarantined") for row in rows),
            "jobs": [self._job_doc(row) for row in rows],
        }
        return 200, doc, {}

    def _artifact(self, key: str) -> Tuple[int, Any, Dict[str, str]]:
        row = self.store.job(key)
        if row is None or row.state != "done" or not row.artifact:
            raise ProtocolError(404, f"no artifact for job {key!r}")
        try:
            payload = (self.directory / row.artifact).read_bytes()
        except OSError:
            raise ProtocolError(404, f"artifact missing for job {key!r}") from None
        return 200, payload, {"Content-Type": "text/plain; charset=utf-8"}

    def _submit(self, req: Request) -> Tuple[int, Any, Dict[str, str]]:
        if self.draining:
            return (
                503,
                {"error": "server is draining; not accepting submissions"},
                {"Retry-After": f"{self.config.shed_retry_after:g}"},
            )
        spec = CampaignSpec.from_dict(req.json())
        jobs = spec.expand()
        keys = {
            job.job_id: cache_key(job.experiment, job.params, self._fingerprint)
            for job in jobs
        }
        new = sum(1 for job in jobs if self.store.job(keys[job.job_id]) is None)
        if new and self.store.backlog() + new > self.config.max_backlog:
            # Bounded queue: accepted-but-unfinished work may never grow
            # past max_backlog.  Shedding is the *durability* choice: a
            # 429'd spec was never admitted, so nothing can be lost.
            self._count("shed")
            return (
                429,
                {
                    "error": (
                        f"backlog full ({self.store.backlog()} + {new} new "
                        f"> {self.config.max_backlog}); retry later"
                    )
                },
                {"Retry-After": f"{self.config.shed_retry_after:g}"},
            )
        self._compile_chaos([job.job_id for job in jobs])
        rows: List[Dict[str, Any]] = []
        for job in jobs:
            key = keys[job.job_id]
            text = self.cache.get(key)
            if text is not None:
                digest, artifact = self._ensure_artifact(job.job_id, text)
                rows.append(
                    {
                        "key": key,
                        "job_id": job.job_id,
                        "experiment": job.experiment,
                        "params": job.params,
                        "state": "done",
                        "source": "cache",
                        "digest": digest,
                        "artifact": artifact,
                    }
                )
            else:
                rows.append(
                    {
                        "key": key,
                        "job_id": job.job_id,
                        "experiment": job.experiment,
                        "params": job.params,
                    }
                )
        cid = campaign_id(spec)
        dispositions = self.store.submit(cid, spec.name, spec.to_dict(), rows)
        self._wake_dispatcher()
        accepted = dispositions.count("accepted")
        cached = dispositions.count("cache")
        dedup = dispositions.count("dedup")
        self._count("submitted", len(jobs))
        self._count("accepted", accepted)
        self._count("dedup", dedup)
        self._count("cache_hits", cached)
        self._manifest_dirty = True
        return (
            201,
            {
                "campaign": cid,
                "name": spec.name,
                "total": len(jobs),
                "accepted": accepted,
                "cache": cached,
                "dedup": dedup,
            },
            {},
        )

    # -- lifecycle ----------------------------------------------------------
    async def serve(self) -> None:
        """Run until :meth:`request_stop` (or a drain empties the queue)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._pool.start()
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        atomic_write(
            self.directory / SERVER_FILE,
            json.dumps(
                {
                    "api": API_VERSION,
                    "host": self.config.host,
                    "port": self.port,
                    "pid": os.getpid(),
                    "name": self.config.name,
                },
                sort_keys=True,
            )
            + "\n",
        )
        self._write_manifest()
        dispatcher = asyncio.create_task(self._dispatch_loop(self._wake, self._stop))
        try:
            async with server:
                await self._stop.wait()
        finally:
            dispatcher.cancel()
            with suppress(asyncio.CancelledError):
                await dispatcher
            self._pool.close()
            self._write_manifest()
            self.store.close()

    def run(self) -> None:
        """Blocking entry point (the CLI's ``repro serve start``)."""
        asyncio.run(self.serve())

    def request_stop(self) -> None:
        """Thread-safe shutdown request (a no-op once the loop is gone)."""
        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # the loop already exited — e.g. after a completed drain

    def start_background(self, timeout: float = 10.0) -> ServerHandle:
        """Start in a daemon thread; returns once the port is bound."""
        thread = threading.Thread(target=self.run, daemon=True)
        thread.start()
        deadline = HostClock()
        while self.port == 0 and thread.is_alive():
            if deadline.elapsed() > timeout:
                raise RuntimeError("campaign server failed to bind in time")
            host_sleep(0.01)
        return ServerHandle(self, thread)
