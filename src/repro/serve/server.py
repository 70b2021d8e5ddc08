"""The campaign server: durable simulation-as-a-service over asyncio.

One process, three cooperating loops:

* the **accept loop** (``asyncio.start_server``) parses one request per
  connection via :mod:`repro.serve.protocol` and answers from the
  durable store — submissions, status, artifacts, drain;
* the **dispatch loop** (a single asyncio task, ticking every
  ``tick_s``) sweeps expired leases, heartbeats live ones, leases
  eligible jobs into a worker pool, and settles completions through the
  shared :class:`~repro.campaign.policy.FailurePolicy`;
* the **worker pool** (:class:`~concurrent.futures.ProcessPoolExecutor`)
  runs the exact :func:`~repro.campaign.worker.execute_job` the batch
  runner uses — same seeding, same chaos hooks, same classification —
  so a served artifact is byte-identical to a batch one.

Crash-safety contract (the chaos drill proves it): the server may be
SIGKILLed at any instant.  Every accepted job lives in a single-
transaction SQLite row (:class:`~repro.serve.store.JobStore`) before
the 201 is sent; artifacts are written temp + ``os.replace``; terminal
outcomes append to the same fsync'd, torn-tolerant journal the batch
runner keeps.  On restart the store requeues every lease the dead
process held, the chaos fired-set reloads from SQLite (a ``server_kill``
never fires twice), and completed work is never recomputed — resubmits
dedupe onto done rows and cache hits.

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
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..campaign.cache import ResultCache, artifact_text, cache_key, code_fingerprint, text_digest
from ..campaign.manifest import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    JobRecord,
    append_journal,
    write_manifest,
)
from ..campaign.policy import FailurePolicy
from ..campaign.pool import fresh_pool, is_broken_pool, teardown_pool
from ..campaign.spec import CampaignSpec, SpecError
from ..campaign.worker import JobOutcome, classify_failure, execute_job
from ..chaos import ChaosEvent, ChaosInjector, ChaosPlan, ChaosSpec
from ..chaos.inject import torn_cache_put, torn_journal_append
from ..perf.hostclock import HostClock, host_sleep
from .leases import LeaseManager
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


def _atomic_write(path: pathlib.Path, payload: str) -> None:
    tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, path)


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
    backoff_cap: float = 2.0
    quarantine_after: int = 2
    retry_seed: int = 0
    lease_ttl: float = 5.0
    deadline_s: Optional[float] = None
    deadline_grace: float = 2.0
    max_backlog: int = 64
    shed_retry_after: float = 1.0
    tick_s: float = 0.05
    #: >1 runs each job inside an ambient ``pdes.sharding`` context
    #: (eligible DES runs shard; everything else falls back unsharded)
    shards: Optional[int] = None
    cache_dir: Optional[Union[str, pathlib.Path]] = None
    chaos: Optional[Union[ChaosSpec, ChaosPlan]] = None
    tracer: Optional[Any] = None
    #: test seam: what a ``server_kill`` injection does (default: a real
    #: ``SIGKILL`` of this process — the drill runs the server as a
    #: subprocess and watches it die mid-lease)
    on_server_kill: Optional[Callable[[], None]] = None


@dataclass
class _Flight:
    """One dispatched lease: a pool future owned by a fencing token."""

    job: JobRow
    token: str
    future: Any
    start: float
    attempt: int
    #: cleared by a heartbeat_loss injection: the lease is left to die
    heartbeat: bool = True


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
            backoff_cap=config.backoff_cap,
            quarantine_after=config.quarantine_after,
            seed=config.retry_seed,
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
        self._flights: Dict[str, _Flight] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._manifest_dirty = True
        self._injector: Optional[ChaosInjector] = None
        self._plan: Optional[ChaosPlan] = None
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
        self._plan = plan
        self._injector = ChaosInjector(plan)
        self._injector.note_fired(self.store.chaos_fired_keys())
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
        payload = artifact_text(text)
        digest = text_digest(payload)
        name = f"{job_id}.txt"
        path = self.directory / name
        try:
            if path.read_text(encoding="utf-8") == payload:
                return digest, name
        except (OSError, UnicodeDecodeError):
            pass
        _atomic_write(path, payload)
        self._count("artifacts_written")
        return digest, name

    def _cache_put(self, job: JobRow, text: str) -> None:
        meta = {"experiment": job.experiment, "params": job.params}
        event = (
            self._injector.write_fault("cache", job.job_id)
            if self._injector is not None
            else None
        )
        try:
            if event is not None:
                self._note_chaos_fired(event)
                if event.kind == "torn":
                    torn_cache_put(self.cache, job.key, text, meta=meta)
                    return
                raise OSError(5, "chaos: injected cache I/O error")
            self.cache.put(job.key, text, meta=meta)
        except OSError:
            self._count("write_errors")

    def _journal(self, record: JobRecord) -> None:
        path = self.directory / JOURNAL_FILE
        event = (
            self._injector.write_fault("journal", record.job_id)
            if self._injector is not None
            else None
        )
        try:
            if event is not None:
                self._note_chaos_fired(event)
                if event.kind == "torn":
                    torn_journal_append(path, record)
                    return
                raise OSError(5, "chaos: injected journal I/O error")
            append_journal(path, record)
        except OSError:
            self._count("write_errors")

    def _manifest_records(self) -> List[JobRecord]:
        out: List[JobRecord] = []
        for row in self.store.jobs():
            out.append(
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
            )
        return out

    def _write_manifest(self) -> None:
        """Snapshot the whole ledger as a manifest.json — including the
        in-flight ``queued``/``leased``/``running`` states, so ``repro
        campaign status`` works live against a serve directory."""
        try:
            write_manifest(
                self.directory / MANIFEST_FILE,
                self._manifest_records(),
                name=self.config.name,
                code_fingerprint=self._fingerprint,
            )
        except OSError:
            self._count("write_errors")
        self._manifest_dirty = False

    # -- settlement plumbing ------------------------------------------------
    def _settle_success(self, job: JobRow, token: str, text: str, source: str) -> None:
        payload = artifact_text(text)
        digest = text_digest(payload)
        settled = self.leases.settle_success(job, token, digest, f"{job.job_id}.txt")
        if not settled.applied:
            # A stale token lost the race: the ledger already moved on,
            # so this result causes zero side effects — no artifact, no
            # cache write, no journal line.  Idempotency by fencing.
            self._count("stale_discards")
            return
        self._ensure_artifact(job.job_id, text)
        if source == "computed":
            self._cache_put(job, text)
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
        self._journal(record)
        self._manifest_dirty = True

    def _settle_failure(
        self,
        job: JobRow,
        token: str,
        classification: str,
        error: str,
        error_type: str,
        add_kill: bool = False,
    ) -> None:
        settled = self.leases.settle_failure(
            job, token, classification, error, error_type, add_kill=add_kill
        )
        if not settled.applied:
            self._count("stale_discards")
            return
        self._manifest_dirty = True
        if settled.action == "retry":
            self._count("retries")
            return
        self._count(settled.status)
        self._journal(
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
    async def _dispatch_loop(self) -> None:
        while True:
            try:
                self._tick()
            except Exception:  # noqa: BLE001 - the loop must survive
                self._count("tick_errors")
            if self._manifest_dirty:
                self._write_manifest()
            if (
                self.draining
                and not self._flights
                and self.store.backlog() == 0
                and self._stop is not None
            ):
                self._stop.set()
                return
            await asyncio.sleep(self.config.tick_s)

    def _tick(self) -> None:
        self._expire_leases()
        self._heartbeat()
        self._reap_completions()
        self._watchdog()
        self._claim()

    def _expire_leases(self) -> None:
        for settled in self.leases.expire():
            self._count("lease_expiries")
            self._manifest_dirty = True
            if settled.action == "retry":
                self._count("retries")
            else:
                self._count(settled.status)
                row = self.store.job(settled.key)
                if row is not None:
                    self._journal(
                        JobRecord(
                            job_id=row.job_id,
                            experiment=row.experiment,
                            params=row.params,
                            status=settled.status,
                            source="computed",
                            attempts=row.attempts,
                            error=settled.error,
                            error_type=row.error_type,
                            classification=settled.classification,
                            backoff_s=row.backoff_s,
                        )
                    )

    def _heartbeat(self) -> None:
        pairs = [
            (flight.job.key, flight.token)
            for flight in self._flights.values()
            if flight.heartbeat and not flight.future.done()
        ]
        self.leases.heartbeat(pairs)

    def _reap_completions(self) -> None:
        finished = [
            (token, flight)
            for token, flight in self._flights.items()
            if flight.future.done()
        ]
        broken: List[_Flight] = []
        for token, flight in finished:
            del self._flights[token]
            try:
                outcome: JobOutcome = flight.future.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001
                if is_broken_pool(exc):
                    broken.append(flight)
                    continue
                outcome = JobOutcome(
                    job_id=flight.job.job_id,
                    ok=False,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    classification=classify_failure(exc),
                )
            self._handle_outcome(flight, outcome)
        if broken:
            # A worker death poisons every in-flight future: drain them
            # all now, attribute the kill, and rebuild the pool.
            broken.extend(self._flights.values())
            self._flights.clear()
            self._rebuild_pool(broken, reason="broken")

    def _handle_outcome(self, flight: _Flight, outcome: JobOutcome) -> None:
        self._note_chaos_keys(outcome.chaos)
        if self.tracer is not None:
            self.tracer.complete(
                SERVE_PID,
                flight.job.job_id,
                flight.start,
                self._now(),
                cat="serve.job",
                args={
                    "experiment": flight.job.experiment,
                    "ok": outcome.ok,
                    "attempt": flight.attempt,
                },
            )
        if outcome.ok:
            self._settle_success(flight.job, flight.token, outcome.text, "computed")
        else:
            self._settle_failure(
                flight.job,
                flight.token,
                outcome.classification or "transient",
                outcome.error,
                outcome.error_type,
            )

    def _rebuild_pool(self, casualties: List[_Flight], reason: str) -> None:
        """Casualty triage + fresh pool — mirrors the batch runner:
        chaos-attributed victims consume an attempt (and a kill),
        innocents requeue free of charge."""
        self._count("pool_rebuilds")
        victims: List[_Flight] = []
        innocents: List[_Flight] = []
        if reason == "broken" and self._injector is not None:
            for flight in casualties:
                event = self._injector.kill_event(flight.job.job_id, flight.attempt)
                if event is not None:
                    self._injector.fire(event)
                    self._note_chaos_fired(event)
                    victims.append(flight)
                else:
                    innocents.append(flight)
        if not victims:
            victims, innocents = casualties, []
        for flight in victims:
            if reason == "stuck":
                deadline = self.config.deadline_s or 0.0
                error = (
                    f"job exceeded its {deadline:g}s deadline "
                    f"(+{self.config.deadline_grace:g}s grace); worker killed"
                )
                self._settle_failure(
                    flight.job, flight.token, "timeout", error, "JobTimeoutError"
                )
            else:
                self._settle_failure(
                    flight.job,
                    flight.token,
                    "crash",
                    "worker process died mid-job (pool broken)",
                    "WorkerKilledError",
                    add_kill=True,
                )
        for flight in innocents:
            settled = self.leases.settle_innocent(flight.job, flight.token)
            if settled.applied:
                self._count("innocent_requeues")
                self._manifest_dirty = True
        if self._pool is not None:
            self._pool = fresh_pool(self._pool, self.config.jobs)

    def _watchdog(self) -> None:
        if self.config.deadline_s is None or not self._flights:
            return
        limit = self.config.deadline_s + self.config.deadline_grace
        now = self._now()
        stuck = [
            token
            for token, flight in self._flights.items()
            if now - flight.start > limit
        ]
        if not stuck:
            return
        casualties = [self._flights.pop(token) for token in stuck]
        for flight in casualties:
            if self._injector is not None:
                event = self._injector.hang_event(flight.job.job_id, flight.attempt)
                if event is not None:
                    self._injector.fire(event)
                    self._note_chaos_fired(event)
        # The only way to kill a stuck worker is to tear the pool down,
        # which takes the innocents' processes with it.
        survivors = list(self._flights.values())
        self._flights.clear()
        self._rebuild_pool(casualties, reason="stuck")
        for flight in survivors:
            settled = self.leases.settle_innocent(flight.job, flight.token)
            if settled.applied:
                self._count("innocent_requeues")
                self._manifest_dirty = True

    def _claim(self) -> None:
        if self._pool is None or self._loop is None:
            return
        while len(self._flights) < self.config.jobs:
            slot = min(
                set(range(self.config.jobs))
                - {f.job.lease_worker for f in self._flights.values()},
                default=0,
            )
            job = self.leases.acquire(slot)
            if job is None:
                return
            self._manifest_dirty = True
            attempt = job.attempts + 1
            if self._injector is not None:
                event = self._injector.server_kill_event(job.job_id, attempt)
                if event is not None:
                    # The drill moment: the lease is durable, the fired
                    # key is durable, and *then* the server dies.  The
                    # restarted server must requeue this exact job and
                    # never re-fire this event.
                    self._injector.fire(event)
                    self._note_chaos_fired(event)
                    self._server_kill()
                    return
            text = self.cache.get(job.key)
            if text is not None:
                self._count("cache_hits")
                self._settle_success(job, job.lease_token, text, "cache")
                continue
            heartbeat = True
            if self._injector is not None:
                event = self._injector.heartbeat_loss_event(job.job_id, attempt)
                if event is not None:
                    self._injector.fire(event)
                    self._note_chaos_fired(event)
                    heartbeat = False
            self.store.mark_running(job.key, job.lease_token)
            future = self._loop.run_in_executor(
                self._pool,
                execute_job,
                job.job_id,
                job.experiment,
                job.params,
                self._plan,
                attempt,
                self.config.deadline_s,
                True,
                self.config.shards,
            )
            self._flights[job.lease_token] = _Flight(
                job=job,
                token=job.lease_token,
                future=future,
                start=self._now(),
                attempt=attempt,
                heartbeat=heartbeat,
            )
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
        self._pool = ProcessPoolExecutor(max_workers=self.config.jobs)
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        _atomic_write(
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
        dispatcher = asyncio.create_task(self._dispatch_loop())
        try:
            async with server:
                await self._stop.wait()
        finally:
            dispatcher.cancel()
            with suppress(asyncio.CancelledError):
                await dispatcher
            pool, self._pool = self._pool, None
            if pool is not None:
                teardown_pool(pool)
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
