"""The campaign orchestrator: cache pass, worker pool, journal, manifest.

A campaign pass has two phases:

1. **Cache pass** (parent process, cheap): every job's content address
   is looked up; hits restore the artifact from the cached bytes —
   *without touching the file if it already matches* — so an immediate
   rerun is 100% cache hits and leaves every artifact untouched.
2. **Compute pass**: the misses are farmed out — inline for
   ``jobs == 1`` (keeps monkeypatched registries and ambient tracers
   visible, which the tests rely on), or to a
   :class:`~concurrent.futures.ProcessPoolExecutor` for ``jobs > 1``.
   Each finished job's artifact + cache entry is written *as it
   completes*, and its record is journaled then too — unless the job's
   last record in the journal is already that exact record (an all-hit
   rerun after the first one appends nothing).  An interrupt therefore
   loses at most the jobs in flight; the next pass cache-hits
   everything already done and computes only the remainder.

The compute pass is hardened against the host failing under it:

* **Watchdog deadlines** — a job that outlives ``deadline_s`` (plus a
  grace period in pool mode) is cancelled, classified ``"timeout"``,
  and requeued with backoff; the stuck worker is killed and the pool
  rebuilt.
* **Seeded backoff** — retries wait ``backoff_delay(job, attempt,
  seed)`` host seconds: exponential with deterministic jitter, so the
  delay sequence is byte-identical across ``--jobs 1`` and ``--jobs N``
  and lands in the manifest (``backoff_s``).
* **Pool rebuild** — a worker death breaks every in-flight future
  (:class:`BrokenProcessPool`); the runner attributes the kill, tears
  the broken pool down, builds a fresh one, requeues the victim with
  backoff, and resubmits the innocent bystanders without consuming
  their attempts.
* **Quarantine** — a job that kills ``quarantine_after`` workers is
  poison: recorded ``"quarantined"`` in the manifest and skipped on
  resume (a later cache hit, e.g. after a fix, wins over quarantine).
* **Graceful degradation** — a job whose spec carries ``fallback``
  params runs them after its budget/timeout failures exhaust retries,
  and is recorded ``"degraded"`` rather than failed.

Failure classification (:func:`~repro.campaign.worker.classify_failure`)
decides retry policy: ``transient``/``timeout``/``crash`` retry with
backoff, deterministic ``budget``/``fault``/``config`` never do (the
simulator replays them identically), and ``interrupt`` never does (an
operator stop is a command, not a flaky environment).

Chaos: pass a :class:`~repro.chaos.ChaosSpec` (or compiled plan) and
the runner injects the scheduled host faults into itself — worker
kills, hangs, torn/ioerr writes — while counting every firing
(``chaos.*`` metrics, :meth:`CampaignRunner.chaos_report`).
"""

from __future__ import annotations

import heapq
import os
import pathlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..chaos import (
    ChaosInjector,
    ChaosPlan,
    ChaosSpec,
    torn_cache_put,
    torn_journal_append,
    torn_text_write,
)
from ..perf.hostclock import HostClock, host_sleep
from .cache import ResultCache, artifact_text, cache_key, code_fingerprint, text_digest
from .policy import FailurePolicy
from .pool import fresh_pool, is_broken_pool, teardown_pool
from .manifest import (
    CAMPAIGN_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    JobRecord,
    append_journal,
    manifest_text,
    read_journal,
    record_text,
    write_campaign_file,
    write_manifest,
)
from .spec import CampaignSpec, Job
from .worker import JobOutcome, classify_failure, execute_job

__all__ = ["CampaignResult", "CampaignRunner", "CAMPAIGN_PID", "pool_map"]

#: Synthetic Chrome-trace pid hosting the campaign track (one tid per
#: worker slot), alongside repro.obs's engine/network pids.
CAMPAIGN_PID = 1000002

#: Pool-mode poll interval (host seconds): the wait() timeout when a
#: deadline or a delayed retry means the parent must wake up on its own.
_POLL_S = 0.05


@dataclass
class CampaignResult:
    """Outcome of one campaign pass."""

    records: List[JobRecord] = field(default_factory=list)
    #: job ids actually *computed* this pass (cache misses that ran)
    executed: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    #: artifacts (re)written this pass — a pure-cache-hit rerun writes none
    artifacts_written: int = 0
    interrupted: bool = False
    #: watchdog deadline expiries observed this pass
    timeouts: int = 0
    #: worker-death crashes observed this pass
    crashes: int = 0
    #: times the worker pool was torn down and rebuilt
    pool_rebuilds: int = 0
    #: sorted chaos event keys that fired (empty when chaos is off)
    chaos_fired: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def done(self) -> int:
        return sum(1 for r in self.records if r.status == "done")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def pending(self) -> int:
        return sum(1 for r in self.records if r.status == "pending")

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.records if r.status == "degraded")

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.records if r.status == "quarantined")

    def summary_line(self) -> str:
        looked_up = self.cache_hits + self.cache_misses
        pct = 100.0 * self.cache_hits / looked_up if looked_up else 0.0
        parts = [
            f"{self.total} job(s): {self.done} done, {self.failed} failed",
            f"cache hits: {self.cache_hits}/{looked_up} ({pct:.0f}%)",
            f"computed: {len(self.executed)}",
            f"artifacts written: {self.artifacts_written}",
        ]
        if self.degraded:
            parts.append(f"degraded: {self.degraded}")
        if self.quarantined:
            parts.append(f"quarantined: {self.quarantined}")
        if self.retries:
            parts.append(f"retries: {self.retries}")
        if self.timeouts:
            parts.append(f"timeouts: {self.timeouts}")
        if self.crashes:
            parts.append(f"crashes: {self.crashes}")
        if self.pool_rebuilds:
            parts.append(f"pool rebuilds: {self.pool_rebuilds}")
        if self.chaos_fired:
            parts.append(f"chaos fired: {len(self.chaos_fired)}")
        if self.interrupted:
            parts.append(f"interrupted ({self.pending} pending)")
        return "; ".join(parts)


@dataclass
class _JobState:
    """Mutable per-job retry bookkeeping for one compute pass."""

    attempts: int = 0  # completed executions (the next one is attempts+1)
    kills: int = 0  # workers this job has taken down
    backoff: List[float] = field(default_factory=list)


@dataclass
class _Flight:
    """One in-flight pool submission."""

    job: Job
    state: _JobState
    slot: int
    start: float


class CampaignRunner:
    """Run a :class:`CampaignSpec` against a campaign directory.

    Parameters
    ----------
    spec:
        What to run; expanded deterministically at :meth:`run` time.
    directory:
        Campaign home: artifacts (``<job>.txt``), ``campaign.json``,
        ``journal.jsonl``, ``manifest.json``, and (by default) the
        result cache under ``.cache/``.
    jobs:
        Worker processes; ``1`` runs inline in this process.
    retries:
        Extra attempts for *retryable* job failures (transient errors,
        watchdog timeouts, worker crashes).  Deterministic
        budget/fault/config failures and operator interrupts are never
        retried.
    cache_dir:
        Override the cache location (share one cache across campaigns).
    tracer:
        Optional :class:`repro.obs.Tracer`: job spans on the campaign
        track, cache hit/miss instants, a running-jobs counter, and
        ``campaign.*`` / ``chaos.*`` metrics.
    deadline_s:
        Per-job watchdog deadline (host seconds).  ``None`` disables
        the watchdog.  In pool mode a job may run ``deadline_grace``
        seconds past it before the stuck worker is killed.
    deadline_grace:
        Pool-mode slack on top of ``deadline_s`` before the watchdog
        tears the worker down (cooperative timeouts report themselves
        at the deadline; the grace only matters for truly stuck jobs).
    backoff_base / backoff_cap:
        Seeded exponential backoff parameters (host seconds); see
        :func:`~repro.campaign.retry.backoff_delay`.
    quarantine_after:
        Workers a single job may kill before it is quarantined as
        poison instead of retried.
    chaos:
        Optional :class:`~repro.chaos.ChaosSpec` (compiled against the
        job list at run time) or pre-compiled
        :class:`~repro.chaos.ChaosPlan` of host faults to inject.
    retry_seed:
        Seed for the backoff jitter (deterministic; recorded delays are
        a pure function of job id, attempt, and this seed).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: Union[str, pathlib.Path],
        jobs: int = 1,
        retries: int = 1,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        tracer: Optional[Any] = None,
        deadline_s: Optional[float] = None,
        deadline_grace: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        quarantine_after: int = 2,
        chaos: Optional[Union[ChaosSpec, ChaosPlan]] = None,
        retry_seed: int = 0,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None to disable)")
        if deadline_grace < 0:
            raise ValueError("deadline_grace must be >= 0")
        self.policy = FailurePolicy(
            retries=retries,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            quarantine_after=quarantine_after,
            seed=retry_seed,
        )
        self.policy.validate()
        self.spec = spec
        self.directory = pathlib.Path(directory)
        self.jobs = jobs
        self.retries = retries
        self.cache = ResultCache(cache_dir or self.directory / ".cache")
        self.tracer = tracer
        self.deadline_s = deadline_s
        self.deadline_grace = deadline_grace
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.quarantine_after = quarantine_after
        self.chaos = chaos
        self.retry_seed = retry_seed
        self._clock: Optional[HostClock] = None
        self._running = 0
        self._plan: Optional[ChaosPlan] = None
        self._injector: Optional[ChaosInjector] = None
        self._fingerprint = ""
        #: last durable journal record per job: read at the start of a
        #: pass, then updated by every append that lands
        self._journaled: Dict[str, JobRecord] = {}

    # -- obs hooks (all no-ops when untraced) -------------------------------
    def _now(self) -> float:
        return self._clock.elapsed() if self._clock is not None else 0.0

    def _trace_setup(self) -> None:
        # Host-side clock anchor, never simulated state: the scheduler
        # (deadlines, delayed retries) and the traces both read host
        # time through the sanctioned repro.perf.hostclock source.
        self._clock = HostClock()
        if self.tracer is None:
            return
        self.tracer.set_process_name(CAMPAIGN_PID, f"campaign {self.spec.name}")
        for slot in range(self.jobs):
            self.tracer.set_thread_name(CAMPAIGN_PID, slot, f"worker {slot}")

    def _count(self, name: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.metrics.counter(f"campaign.{name}").inc(n)

    def _mark_running(self, delta: int) -> None:
        if self.tracer is None:
            return
        self._running += delta
        self.tracer.counter(
            CAMPAIGN_PID, "running_jobs", self._now(), {"jobs": self._running}
        )

    def _trace_cache(self, job: Job, hit: bool) -> None:
        if self.tracer is None:
            return
        self.tracer.instant(
            CAMPAIGN_PID,
            "cache-hit" if hit else "cache-miss",
            self._now(),
            cat="campaign.cache",
            args={"job": job.job_id},
        )

    def _trace_job(
        self, job: Job, slot: int, start: float, outcome: JobOutcome, attempts: int
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.complete(
            CAMPAIGN_PID,
            job.job_id,
            start,
            self._now(),
            cat="campaign.job",
            args={
                "experiment": job.experiment,
                "params": job.params,
                "ok": outcome.ok,
                "attempts": attempts,
                **(
                    {"classification": outcome.classification}
                    if not outcome.ok
                    else {}
                ),
            },
            tid=slot,
        )

    # -- chaos hooks --------------------------------------------------------
    def _note_chaos_event(self, event: Any) -> None:
        """Count and trace one fired injection (firing is already done)."""
        if self.tracer is None:
            return
        self.tracer.metrics.counter(f"chaos.{event.kind}").inc(1)
        self.tracer.instant(
            CAMPAIGN_PID,
            f"chaos-{event.kind}",
            self._now(),
            cat="chaos",
            args={"event": event.key()},
        )

    def _note_chaos_keys(self, keys: List[str]) -> None:
        """Absorb worker-reported firings into the parent's fired set."""
        if self._injector is None or not keys:
            return
        for event in self._injector.note_fired(keys):
            self._note_chaos_event(event)

    def chaos_report(self) -> str:
        """Deterministic summary of the injections that fired last run."""
        if self._injector is None:
            return "chaos: disabled"
        return self._injector.report()

    # -- artifacts ----------------------------------------------------------
    def _artifact_path(self, job: Job) -> pathlib.Path:
        return self.directory / job.artifact_name

    def _ensure_artifact(self, job: Job, text: str) -> Tuple[str, bool]:
        """Write the artifact unless it already holds these exact bytes.

        Returns ``(digest, wrote)``; the no-touch path is what makes an
        all-hits rerun leave every file (content *and* mtime) alone.
        """
        payload = artifact_text(text)
        digest = text_digest(payload)
        path = self._artifact_path(job)
        try:
            if path.read_text(encoding="utf-8") == payload:
                return digest, False
        except (OSError, UnicodeDecodeError):
            pass
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        return digest, True

    # -- guarded durable writes ---------------------------------------------
    # All three absorb OSError: a campaign must survive its own disk
    # hiccoughs.  Journal/cache losses are recoverable by design (the
    # manifest still records the job; a lost cache entry recomputes),
    # and the chaos injector exercises exactly these paths.
    def _cache_put(self, job: Job, key: str, text: str) -> None:
        meta = {"experiment": job.experiment, "params": job.params}
        event = (
            self._injector.write_fault("cache", job.job_id)
            if self._injector is not None
            else None
        )
        try:
            if event is not None:
                self._note_chaos_event(event)
                if event.kind == "torn":
                    torn_cache_put(self.cache, key, text, meta=meta)
                    return
                raise OSError(5, "chaos: injected cache I/O error")
            self.cache.put(key, text, meta=meta)
        except OSError:
            self._count("write_errors")

    def _journal_append(self, record: JobRecord) -> None:
        """Append ``record`` unless it equals the job's last durable
        record — the last record per job wins, so repeating it would
        change nothing.  A skip touches no file, so no chaos write
        fault can fire on it; it is counted as ``journal_unchanged``."""
        if self._journaled.get(record.job_id) == record:
            self._count("journal_unchanged")
            return
        path = self.directory / JOURNAL_FILE
        event = (
            self._injector.write_fault("journal", record.job_id)
            if self._injector is not None
            else None
        )
        try:
            if event is not None:
                self._note_chaos_event(event)
                if event.kind == "torn":
                    torn_journal_append(path, record)
                    return
                raise OSError(5, "chaos: injected journal I/O error")
            append_journal(path, record)
        except OSError:
            self._count("write_errors")
            return
        self._journaled[record.job_id] = record

    def _write_manifest(self, ordered: List[JobRecord]) -> None:
        path = self.directory / MANIFEST_FILE
        event = (
            self._injector.write_fault("manifest", "")
            if self._injector is not None
            else None
        )
        if event is not None:
            self._note_chaos_event(event)
            if event.kind == "torn":
                text = manifest_text(
                    [record_text(r) for r in ordered],
                    name=self.spec.name,
                    code_fingerprint=self._fingerprint,
                )
                torn_text_write(path, text)
                return
            self._count("write_errors")
            return
        try:
            write_manifest(
                path, ordered, name=self.spec.name, code_fingerprint=self._fingerprint
            )
        except OSError:
            self._count("write_errors")

    # -- bookkeeping --------------------------------------------------------
    def _record(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        job: Job,
        outcome: JobOutcome,
        source: str,
        attempts: int,
        status: Optional[str] = None,
        backoff: Optional[List[float]] = None,
        degraded_params: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        """Journal one finished job and (on success) persist its artifact."""
        if status is None:
            status = "done" if outcome.ok else "failed"
        backoff = list(backoff or [])
        if status in ("done", "degraded"):
            digest, wrote = self._ensure_artifact(job, outcome.text)
            if wrote:
                result.artifacts_written += 1
            record = JobRecord(
                job_id=job.job_id,
                experiment=job.experiment,
                params=job.params,
                status=status,
                source=source,
                digest=digest,
                artifact=job.artifact_name,
                attempts=attempts,
                backoff_s=backoff,
                degraded_params=dict(degraded_params or {}),
            )
        else:
            record = JobRecord(
                job_id=job.job_id,
                experiment=job.experiment,
                params=job.params,
                status=status,
                source=source,
                attempts=attempts,
                error=outcome.error,
                error_type=outcome.error_type,
                classification=(
                    "poison" if status == "quarantined" else outcome.classification
                ),
                backoff_s=backoff,
            )
            if status == "failed":
                self._count("failures")
        records[job.job_id] = record
        self._journal_append(record)
        return record

    # -- the pass -----------------------------------------------------------
    def run(
        self, max_jobs: Optional[int] = None, fresh: bool = False
    ) -> CampaignResult:
        """One campaign pass: cache pass, then compute the misses.

        ``max_jobs`` caps how many jobs are *computed* this pass (the
        CLI's ``--max-jobs``, also how the tests interrupt a campaign
        deterministically); the remainder stays ``pending`` in the
        manifest and ``interrupted`` is set.  ``fresh`` truncates the
        journal first (artifacts and cache are left to ``clean``) and
        thereby also lifts quarantines.
        """
        jobs = self.spec.expand()
        self.directory.mkdir(parents=True, exist_ok=True)
        if fresh:
            (self.directory / JOURNAL_FILE).unlink(missing_ok=True)
        prior = self._journaled = read_journal(self.directory / JOURNAL_FILE)
        write_campaign_file(self.directory / CAMPAIGN_FILE, self.spec, jobs)
        self._trace_setup()

        if self.chaos is None:
            self._plan, self._injector = None, None
        else:
            plan = self.chaos
            if not isinstance(plan, ChaosPlan):
                plan = plan.compile([j.job_id for j in jobs])
            self._plan = plan
            self._injector = ChaosInjector(plan)

        fingerprint = self._fingerprint = code_fingerprint()
        result = CampaignResult()
        records: Dict[str, JobRecord] = {}
        keys: Dict[str, str] = {}
        pending: List[Job] = []

        # Phase 1: cache pass, in deterministic job order.  A cache hit
        # beats everything, including an old quarantine (the entry can
        # only exist if the job completed somewhere — it is not poison).
        for job in jobs:
            key = keys[job.job_id] = cache_key(job.experiment, job.params, fingerprint)
            text = self.cache.get(key)
            self._trace_cache(job, hit=text is not None)
            if text is not None:
                result.cache_hits += 1
                self._count("cache_hits")
                self._record(result, records, job, JobOutcome(job.job_id, True, text),
                             source="cache", attempts=0)
                continue
            result.cache_misses += 1
            self._count("cache_misses")
            previous = prior.get(job.job_id)
            if previous is not None and previous.status == "quarantined":
                # Poison carried forward from an earlier pass: skip it
                # rather than feed it more workers.
                records[job.job_id] = replace(previous, source="journal")
                self._count("quarantined_skips")
                continue
            pending.append(job)
        self._count("jobs_total", len(jobs))

        # Phase 2: compute the misses.
        to_run = pending if max_jobs is None else pending[: max(0, max_jobs)]
        skipped = pending[len(to_run):]
        try:
            if self.jobs == 1:
                self._compute_inline(result, records, keys, to_run)
            else:
                self._compute_pool(result, records, keys, to_run)
        except KeyboardInterrupt:
            result.interrupted = True
        if skipped:
            result.interrupted = True

        # Manifest: every planned job, finished or not, in plan order.
        ordered: List[JobRecord] = []
        for job in jobs:
            record = records.get(job.job_id)
            if record is None:
                record = JobRecord(
                    job_id=job.job_id,
                    experiment=job.experiment,
                    params=job.params,
                    status="pending",
                    source="",
                    attempts=0,
                )
            ordered.append(record)
        result.records = ordered
        self._write_manifest(ordered)
        if self._injector is not None:
            result.chaos_fired = self._injector.fired_keys()
        return result

    # -- failure policy -----------------------------------------------------
    def _resolve_failure(self, job: Job, state: _JobState, outcome: JobOutcome) -> str:
        """What to do with a failed execution: retry / quarantine /
        degrade / final.  Pure decision (shared with the campaign
        service via :class:`FailurePolicy`) — the backends enact it."""
        return self.policy.decide(
            outcome.classification,
            state.attempts,
            kills=state.kills,
            has_fallback=job.fallback is not None,
        )

    def _settle(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        keys: Dict[str, str],
        job: Job,
        state: _JobState,
        outcome: JobOutcome,
        retry_cb: Callable[[Job, _JobState, float], None],
    ) -> None:
        """Consume one finished execution attempt and act on it."""
        state.attempts += 1
        if outcome.ok:
            self._finish_computed(result, records, keys, job, outcome, state)
            return
        cls = outcome.classification or "transient"
        if cls == "timeout":
            result.timeouts += 1
            self._count("timeouts")
        elif cls == "crash":
            result.crashes += 1
            self._count("crashes")
            state.kills += 1
        action = self._resolve_failure(job, state, outcome)
        if action == "retry":
            delay_s = self.policy.delay(job.job_id, state.attempts)
            state.backoff.append(delay_s)
            result.retries += 1
            self._count("retries")
            retry_cb(job, state, delay_s)
            return
        result.executed.append(job.job_id)
        self._count("executed")
        if action == "quarantine":
            self._count("quarantined")
            self._record(
                result, records, job, outcome, source="computed",
                attempts=state.attempts, status="quarantined",
                backoff=state.backoff,
            )
            return
        if action == "degrade":
            self._degrade(result, records, job, state, outcome)
            return
        self._record(
            result, records, job, outcome, source="computed",
            attempts=state.attempts, backoff=state.backoff,
        )

    def _degrade(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        job: Job,
        state: _JobState,
        failure: JobOutcome,
    ) -> None:
        """Run the job's analytic fallback params instead of failing.

        The degraded artifact is cached under the fallback's *own*
        content address, so a later pass degrades from cache without
        re-running anything — and never masquerades as the real result.
        """
        fallback = job.fallback_params or {}
        key = cache_key(job.experiment, fallback, self._fingerprint)
        text = self.cache.get(key)
        if text is None:
            outcome = execute_job(
                job.job_id, job.experiment, fallback, in_worker=False,
            )
            if not outcome.ok:
                # Fallback failed too: record the original failure.
                self._record(
                    result, records, job, failure, source="computed",
                    attempts=state.attempts, backoff=state.backoff,
                )
                return
            text = outcome.text
            self._cache_put(job, key, text)
        self._count("degraded")
        self._record(
            result, records, job, JobOutcome(job.job_id, True, text),
            source="computed", attempts=state.attempts, status="degraded",
            backoff=state.backoff, degraded_params=fallback,
        )

    def _finish_computed(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        keys: Dict[str, str],
        job: Job,
        outcome: JobOutcome,
        state: _JobState,
    ) -> None:
        self._cache_put(job, keys[job.job_id], outcome.text)
        result.executed.append(job.job_id)
        self._count("executed")
        self._record(
            result, records, job, outcome, source="computed",
            attempts=state.attempts, backoff=state.backoff,
        )

    # -- compute backends ---------------------------------------------------
    def _compute_inline(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        keys: Dict[str, str],
        to_run: List[Job],
    ) -> None:
        for job in to_run:
            state = _JobState()
            while True:
                start = self._now()
                self._mark_running(+1)
                outcome = execute_job(
                    job.job_id,
                    job.experiment,
                    job.params,
                    chaos=self._plan,
                    attempt=state.attempts + 1,
                    deadline_s=self.deadline_s,
                    in_worker=False,
                )
                self._note_chaos_keys(outcome.chaos)
                self._trace_job(job, 0, start, outcome, state.attempts + 1)
                self._mark_running(-1)
                queued: List[float] = []
                self._settle(
                    result, records, keys, job, state, outcome,
                    lambda _j, _s, delay_s: queued.append(delay_s),
                )
                if not queued:
                    break
                host_sleep(queued[0])

    def _fresh_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Hard teardown + rebuild (see :mod:`repro.campaign.pool`)."""
        return fresh_pool(pool, self.jobs)

    def _compute_pool(
        self,
        result: CampaignResult,
        records: Dict[str, JobRecord],
        keys: Dict[str, str],
        to_run: List[Job],
    ) -> None:
        if not to_run:
            return
        ready: "deque[Tuple[Job, _JobState]]" = deque(
            (job, _JobState()) for job in to_run
        )
        delayed: List[Tuple[float, int, Job, _JobState]] = []  # (due, seq, ...)
        seq = 0
        slots = list(range(self.jobs))
        in_flight: Dict[Any, _Flight] = {}
        pool = ProcessPoolExecutor(max_workers=self.jobs)

        def schedule_retry(job: Job, state: _JobState, delay_s: float) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(delayed, (self._now() + delay_s, seq, job, state))

        def rebuild(casualties: List[_Flight], reason: str) -> None:
            """Casualty triage + fresh pool.  ``casualties`` no longer
            appear in ``in_flight``; victims consume their attempt and
            go through the normal failure policy, innocents requeue
            untouched."""
            nonlocal pool, slots
            result.pool_rebuilds += 1
            self._count("pool_rebuilds")
            victims: List[_Flight] = []
            innocents: List[_Flight] = []
            if reason == "broken" and self._injector is not None:
                # Attribute the death: an unfired kill injection aimed
                # at an in-flight (job, attempt) is the killer.
                for flight in casualties:
                    event = self._injector.kill_event(
                        flight.job.job_id, flight.state.attempts + 1
                    )
                    if event is not None:
                        self._injector.fire(event)
                        self._note_chaos_event(event)
                        victims.append(flight)
                    else:
                        innocents.append(flight)
            if not victims:
                # No chaos to blame (or chaos off): every in-flight job
                # is a suspect — each wears the crash on its record.
                victims, innocents = casualties, []
            for flight in victims:
                if reason == "stuck":
                    deadline = self.deadline_s or 0.0
                    outcome = JobOutcome(
                        job_id=flight.job.job_id,
                        ok=False,
                        error=(
                            f"job exceeded its {deadline:g}s deadline "
                            f"(+{self.deadline_grace:g}s grace); worker killed"
                        ),
                        error_type="JobTimeoutError",
                        classification="timeout",
                    )
                else:
                    outcome = JobOutcome(
                        job_id=flight.job.job_id,
                        ok=False,
                        error="worker process died mid-job (pool broken)",
                        error_type="WorkerKilledError",
                        classification="crash",
                    )
                self._trace_job(
                    flight.job, flight.slot, flight.start, outcome,
                    flight.state.attempts + 1,
                )
                self._settle(
                    result, records, keys, flight.job, flight.state, outcome,
                    schedule_retry,
                )
            for flight in innocents:
                # The pool death wasn't theirs: resubmit without
                # consuming an attempt or charging a kill.
                ready.append((flight.job, flight.state))
            pool = self._fresh_pool(pool)
            slots = list(range(self.jobs))

        try:
            while ready or delayed or in_flight:
                now = self._now()
                while delayed and delayed[0][0] <= now:
                    _, _, job, state = heapq.heappop(delayed)
                    ready.append((job, state))
                while ready and len(in_flight) < self.jobs:
                    job, state = ready.popleft()
                    slot = slots.pop(0) if slots else 0
                    start = self._now()
                    self._mark_running(+1)
                    try:
                        fut = pool.submit(
                            execute_job,
                            job.job_id,
                            job.experiment,
                            job.params,
                            self._plan,
                            state.attempts + 1,
                            self.deadline_s,
                            True,
                        )
                    except Exception:  # pool died between batches
                        self._mark_running(-1)
                        ready.appendleft((job, state))
                        casualties = [in_flight.pop(f) for f in list(in_flight)]
                        for flight in casualties:
                            self._mark_running(-1)
                        rebuild(casualties, reason="broken")
                        break
                    in_flight[fut] = _Flight(job, state, slot, start)
                if not in_flight:
                    if delayed:
                        host_sleep(
                            min(_POLL_S, max(0.0, delayed[0][0] - self._now()))
                        )
                        continue
                    if ready:
                        continue
                    break
                # Block until something finishes — but wake on a poll
                # interval whenever a deadline could expire or a delayed
                # retry could come due.
                block = self.deadline_s is None and not delayed
                finished, _ = wait(
                    list(in_flight),
                    timeout=None if block else _POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                broken: List[_Flight] = []
                for fut in finished:
                    flight = in_flight.pop(fut)
                    self._mark_running(-1)
                    slots.insert(0, flight.slot)
                    try:
                        outcome = fut.result()
                    except KeyboardInterrupt:
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
                    self._note_chaos_keys(outcome.chaos)
                    self._trace_job(
                        flight.job, flight.slot, flight.start, outcome,
                        flight.state.attempts + 1,
                    )
                    self._settle(
                        result, records, keys, flight.job, flight.state, outcome,
                        schedule_retry,
                    )
                if broken:
                    # A broken executor poisons every remaining future.
                    for fut in list(in_flight):
                        broken.append(in_flight.pop(fut))
                        self._mark_running(-1)
                    rebuild(broken, reason="broken")
                    continue
                # Watchdog: kill workers stuck past deadline + grace.
                if self.deadline_s is not None and in_flight:
                    limit = self.deadline_s + self.deadline_grace
                    now = self._now()
                    stuck = [
                        fut
                        for fut, flight in in_flight.items()
                        if now - flight.start > limit
                    ]
                    if stuck:
                        casualties = [in_flight.pop(fut) for fut in stuck]
                        for flight in casualties:
                            self._mark_running(-1)
                            if self._injector is not None:
                                event = self._injector.hang_event(
                                    flight.job.job_id, flight.state.attempts + 1
                                )
                                if event is not None:
                                    self._injector.fire(event)
                                    self._note_chaos_event(event)
                        survivors = [in_flight.pop(fut) for fut in list(in_flight)]
                        for flight in survivors:
                            self._mark_running(-1)
                            ready.append((flight.job, flight.state))
                        rebuild(casualties, reason="stuck")
        finally:
            teardown_pool(pool)


@contextmanager
def pool_map(
    jobs: int,
) -> Iterator[Callable[[Callable[[Any], Any], Iterable[Any]], Iterable[Any]]]:
    """A ``map``-shaped executor over the campaign worker pool.

    The hook :meth:`repro.core.Sweep.run` takes::

        from repro.campaign import pool_map
        with pool_map(jobs=4) as ex:
            points = Sweep(axes).run(model_fn, executor=ex)

    ``jobs <= 1`` degrades to plain ``map`` (no processes, monkeypatch-
    friendly); results always come back in input order.
    """
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map
