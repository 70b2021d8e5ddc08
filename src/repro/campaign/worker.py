"""What runs inside a pool worker, and how its failures are classified.

Everything here is module-level and picklable: a
:class:`~concurrent.futures.ProcessPoolExecutor` ships ``execute_job``
plus plain data to the worker, and gets a plain :class:`JobOutcome`
dict-of-builtins back — no live simulator objects ever cross the
process boundary.  A compiled :class:`~repro.chaos.ChaosPlan` may ride
along: the worker consults it before running the experiment and either
dies (kill injection), sleeps (hang injection), or cooperatively
reports a deadline timeout — every decision a pure function of
``(job id, attempt)``, never of schedule.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "JobOutcome",
    "JobTimeoutError",
    "WorkerKilledError",
    "classify_failure",
    "execute_job",
    "job_seed",
    "RETRYABLE",
    "DETERMINISTIC",
    "NEVER_RETRY",
]

#: Classifications whose failures are *deterministic*: the simulation
#: itself decided to stop (budget), to kill a message (fault), or the
#: request was malformed (config).  Retrying replays the exact same
#: decision, so the retry policy never retries these.
DETERMINISTIC = ("budget", "fault", "config")
#: Host-side failures that plausibly pass on a second try: presumed
#: transient errors (worker OOM, filesystem hiccough), watchdog
#: timeouts, and worker crashes (up to the poison-quarantine limit).
RETRYABLE = ("transient", "timeout", "crash")
#: Never retried, never treated as transient: deterministic failures
#: plus operator interrupts (Ctrl-C / sys.exit inside a worker must
#: stop the job, not respawn it) and quarantined poison jobs.
NEVER_RETRY = DETERMINISTIC + ("interrupt", "poison")


class JobTimeoutError(RuntimeError):
    """A job exceeded its watchdog deadline and was cancelled."""


class WorkerKilledError(RuntimeError):
    """A worker process died (was killed) while executing a job."""


def classify_failure(exc: BaseException) -> str:
    """Map an exception to a retry class by *type*, not message.

    Uses class names rather than imports so the classification also
    works on errors that crossed a process boundary via ``__reduce__``
    (the resilience-layer errors all pickle round-trip) and never
    drags the whole simulator into the parent just to label a failure.

    ``KeyboardInterrupt`` / ``SystemExit`` (and any other
    non-``Exception`` ``BaseException``) classify as ``"interrupt"`` —
    an operator stopping a worker is a command, not a flaky
    environment, and must never be retried.
    """
    names = {t.__name__ for t in type(exc).__mro__}
    if not isinstance(exc, Exception) or names & {"KeyboardInterrupt", "SystemExit"}:
        return "interrupt"
    if "BudgetExceeded" in names:
        return "budget"
    if names & {"FaultError", "RankFailedError", "RestartsExhaustedError"}:
        return "fault"
    if "JobTimeoutError" in names:
        return "timeout"
    if names & {"WorkerKilledError", "BrokenProcessPool", "BrokenExecutor"}:
        return "crash"
    if names & {"KeyError", "ValueError", "TypeError", "SpecError"}:
        return "config"
    return "transient"


def job_seed(job_id: str) -> int:
    """Deterministic per-job seed derived from the job id alone."""
    return int.from_bytes(hashlib.sha256(job_id.encode()).digest()[:8], "big")


@dataclass
class JobOutcome:
    """Result of one in-worker job execution (always returned, never
    raised — exceptions are folded in so the parent can journal them)."""

    job_id: str
    ok: bool
    text: str = ""
    error: str = ""
    error_type: str = ""
    classification: str = ""
    #: chaos event keys this execution fired (worker -> parent report)
    chaos: List[str] = field(default_factory=list)


def _apply_chaos(
    job_id: str,
    attempt: int,
    chaos: Any,
    deadline_s: Optional[float],
    in_worker: bool,
    fired: List[str],
) -> Optional[JobOutcome]:
    """Consult the chaos plan before running; an outcome ends the job."""
    from ..perf.hostclock import host_sleep

    event = chaos.kill_event(job_id, attempt)
    if event is not None:
        fired.append(event.key())
        if in_worker:
            # A real mid-job worker death: the parent sees the pool
            # break (BrokenProcessPool) and must rebuild + requeue.
            os.kill(os.getpid(), signal.SIGKILL)
        # Inline (jobs=1) there is no worker process to kill without
        # killing the campaign itself, so the crash is simulated as the
        # outcome the parent would reconstruct from a broken pool.
        return JobOutcome(
            job_id=job_id,
            ok=False,
            error="chaos: worker killed mid-job (inline simulation)",
            error_type="WorkerKilledError",
            classification="crash",
            chaos=fired,
        )
    event = chaos.hang_event(job_id, attempt)
    if event is not None:
        fired.append(event.key())
        if deadline_s is not None and not event.hard and event.seconds > deadline_s:
            # Cooperative hang: the job blocks until its deadline, then
            # reports the timeout itself — deterministic across pool
            # sizes, and the parent requeues it like any timeout.
            host_sleep(min(event.seconds, deadline_s))
            return JobOutcome(
                job_id=job_id,
                ok=False,
                error=(
                    f"chaos: job hung {event.seconds:g}s, past its "
                    f"{deadline_s:g}s deadline"
                ),
                error_type="JobTimeoutError",
                classification="timeout",
                chaos=fired,
            )
        # A hard hang never cooperates (the parent watchdog must kill
        # the worker); a hang below the deadline is just a slow job.
        host_sleep(event.seconds)
    return None


def execute_job(
    job_id: str,
    experiment: str,
    params: Dict[str, Any],
    chaos: Any = None,
    attempt: int = 1,
    deadline_s: Optional[float] = None,
    in_worker: bool = True,
) -> JobOutcome:
    """Run one experiment to rendered text, isolated and seeded.

    The global :mod:`random` state is seeded from the job id before the
    experiment runs, so any backend that *does* reach for ambient
    randomness gets the same stream regardless of which worker slot or
    how many sibling jobs ran first — job results can never depend on
    schedule.  (The models themselves already use explicit
    ``make_rng(seed)`` streams; this is the belt to that braces.)

    ``chaos`` is an optional compiled :class:`~repro.chaos.ChaosPlan`;
    ``in_worker`` tells a kill injection whether a real process death
    is possible (pool worker) or must be simulated (inline runner).
    """
    from ..core.evaluation import run_experiment

    fired: List[str] = []
    if chaos is not None:
        outcome = _apply_chaos(job_id, attempt, chaos, deadline_s, in_worker, fired)
        if outcome is not None:
            return outcome

    random.seed(job_seed(job_id))  # simlint: ignore[determinism-hazard]
    try:
        text = run_experiment(experiment, **params)
    except KeyboardInterrupt:
        # A real Ctrl-C must keep interrupting: inline it unwinds the
        # campaign pass; in a pool worker the executor ships it back
        # and the parent classifies it "interrupt" (never retried).
        raise
    except BaseException as exc:  # noqa: BLE001 - job isolation
        return JobOutcome(
            job_id=job_id,
            ok=False,
            error=str(exc),
            error_type=type(exc).__name__,
            classification=classify_failure(exc),
            chaos=fired,
        )
    return JobOutcome(job_id=job_id, ok=True, text=text, chaos=fired)
