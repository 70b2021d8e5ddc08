"""The campaign orchestrator: cache pass, worker pool, journal, manifest.

A campaign pass has two phases:

1. **Cache pass** (parent process, cheap): every job's content address
   is looked up; hits restore the artifact from the cached bytes —
   *without touching the file if it already matches* — so an immediate
   rerun is 100% cache hits and leaves every artifact untouched.
2. **Compute pass**: the misses are farmed out — inline for
   ``jobs == 1`` (keeps monkeypatched registries and ambient tracers
   visible, which the tests rely on), or to the worker pool for
   ``jobs > 1``.
   Each finished job's artifact + cache entry is written *as it
   completes*, and its record is journaled then too — unless the job's
   last record in the journal is already that exact record (an all-hit
   rerun after the first one appends nothing).  An interrupt therefore
   loses at most the jobs in flight; the next pass cache-hits
   everything already done and computes only the remainder.

Every durable write — artifact, cache entry, journal record, manifest —
goes through the :class:`~repro.campaign.ledger.Ledger`, and pool mode
runs on the :class:`~repro.campaign.pool.PoolSupervisor`; the campaign
service shares both.  The compute pass is hardened against the host
failing under it:

* **Watchdog and pool rebuild** — a job that outlives ``deadline_s``
  times out and is requeued with backoff; in pool mode a worker stuck
  past the deadline plus a grace period, or one that dies, is charged
  to its job, and the bystanders of the pool rebuild resubmit without
  consuming an attempt.
* **Seeded backoff** — retries wait ``backoff_delay(job, attempt,
  seed)`` host seconds: exponential with deterministic jitter, so the
  delay sequence is byte-identical across ``--jobs 1`` and ``--jobs N``
  and lands in the manifest (``backoff_s``).
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
import pathlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..chaos import ChaosInjector, ChaosPlan, ChaosSpec
from ..perf.hostclock import HostClock, host_sleep
from .cache import ResultCache, cache_key, code_fingerprint
from .ledger import Ledger
from .manifest import (
    CAMPAIGN_FILE,
    JOURNAL_FILE,
    JobRecord,
    read_journal,
    write_campaign_file,
    write_manifest,
)
from .policy import FailurePolicy
from .pool import PoolSupervisor
from .spec import CampaignSpec, Job
from .worker import JobOutcome, execute_job

__all__ = ["CampaignResult", "CampaignRunner", "CAMPAIGN_PID"]

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
    backoff_base:
        Base of the seeded exponential backoff (host seconds); see
        :func:`~repro.campaign.retry.backoff_delay`.
    quarantine_after:
        Workers a single job may kill before it is quarantined as
        poison instead of retried.
    chaos:
        Optional :class:`~repro.chaos.ChaosSpec` (compiled against the
        job list at run time) or pre-compiled
        :class:`~repro.chaos.ChaosPlan` of host faults to inject.
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
        quarantine_after: int = 2,
        chaos: Optional[Union[ChaosSpec, ChaosPlan]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None to disable)")
        if deadline_grace < 0:
            raise ValueError("deadline_grace must be >= 0")
        self.policy = FailurePolicy(
            retries=retries, backoff_base=backoff_base, quarantine_after=quarantine_after
        )
        self.policy.validate()
        self.spec = spec
        self.directory = pathlib.Path(directory)
        self.jobs = jobs
        self.cache = ResultCache(cache_dir or self.directory / ".cache")
        self.tracer = tracer
        self.deadline_s = deadline_s
        self.deadline_grace = deadline_grace
        self.chaos = chaos
        self._clock: Optional[HostClock] = None
        self._running = 0
        self._injector: Optional[ChaosInjector] = None
        self._fingerprint = ""
        self.ledger = Ledger(self.directory, self.cache, self._count, self._note_chaos_event)

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
            digest, wrote = self.ledger.artifact(job.artifact_name, outcome.text)
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
        self.ledger.append(record)
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
        prior = self.ledger.journaled = read_journal(self.directory / JOURNAL_FILE)
        write_campaign_file(self.directory / CAMPAIGN_FILE, self.spec, jobs)
        self._trace_setup()

        self._injector = None
        if self.chaos is not None:
            plan = self.chaos
            if not isinstance(plan, ChaosPlan):
                plan = plan.compile([j.job_id for j in jobs])
            self._injector = ChaosInjector(plan)
        self.ledger.injector = self._injector

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
        self.ledger.write_manifest(
            lambda path: write_manifest(
                path, ordered, name=self.spec.name, code_fingerprint=fingerprint
            )
        )
        if self._injector is not None:
            result.chaos_fired = self._injector.fired_keys()
        return result

    # -- failure policy -----------------------------------------------------
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
        # The shared FailurePolicy decides (the service asks it too);
        # this runner enacts.
        action = self.policy.decide(
            cls, state.attempts, kills=state.kills, has_fallback=job.fallback is not None
        )
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
            self.ledger.put_cache(job, key, text)
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
        self.ledger.put_cache(job, keys[job.job_id], outcome.text)
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
                    chaos=self._injector.plan if self._injector is not None else None,
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
        pool = PoolSupervisor(
            self.jobs, self.deadline_s, self.deadline_grace,
            now=self._now, count=self._count, note=self._note_chaos_event,
        )
        pool.injector = self._injector

        def schedule_retry(job: Job, state: _JobState, delay_s: float) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(delayed, (self._now() + delay_s, seq, job, state))

        pool.start()
        try:
            while ready or delayed or pool.flights:
                now = self._now()
                while delayed and delayed[0][0] <= now:
                    _, _, job, state = heapq.heappop(delayed)
                    ready.append((job, state))
                while ready and len(pool.flights) < self.jobs:
                    job, state = ready.popleft()
                    self._mark_running(+1)
                    pool.submit(
                        job.job_id, job.experiment, job.params, state.attempts + 1,
                        pool.free_slot(), (job, state),
                    )
                if not pool.flights:  # only delayed retries remain
                    host_sleep(min(_POLL_S, max(0.0, delayed[0][0] - self._now())))
                    continue
                # Block until something finishes — but wake on a poll
                # interval whenever a deadline could expire or a delayed
                # retry could come due.
                block = self.deadline_s is None and not delayed
                for flight, outcome in pool.reap(None if block else _POLL_S):
                    self._mark_running(-1)
                    job, state = flight.ticket
                    if outcome is None:
                        # The pool death wasn't theirs: resubmit without
                        # consuming an attempt or charging a kill.
                        ready.append((job, state))
                        continue
                    self._note_chaos_keys(outcome.chaos)
                    self._trace_job(job, flight.slot, flight.start, outcome, flight.attempt)
                    self._settle(result, records, keys, job, state, outcome, schedule_retry)
        finally:
            pool.close()
            result.pool_rebuilds += pool.rebuilds
