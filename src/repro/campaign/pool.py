"""The worker-pool supervisor behind both campaign front doors.

The batch :class:`~repro.campaign.runner.CampaignRunner` (``jobs > 1``)
and the :class:`repro.serve.server.CampaignServer` service run their
jobs on one :class:`PoolSupervisor`.  It owns everything between "run
this attempt now" and "this is how the attempt ended":

* submitting :func:`~repro.campaign.worker.execute_job` to a
  :class:`~concurrent.futures.ProcessPoolExecutor`, and turning each
  finished future into a :class:`~repro.campaign.worker.JobOutcome`;
* **worker deaths** — one death breaks every in-flight future
  (``BrokenProcessPool``).  An unfired chaos ``kill`` aimed at an
  in-flight (job, attempt) is blamed for it; with nothing to blame,
  every in-flight job is a suspect and wears the crash;
* **the deadline watchdog** — a job past ``deadline_s +
  deadline_grace`` has a stuck worker (a chaos ``hard`` hang, when
  there is one to blame) and is charged a ``timeout``;
* **the pool rebuild** — a pool that lost a worker, or holds a stuck
  one, cannot be shut down politely: ``shutdown(wait=False)`` leaves
  the survivors running forever.  It is torn down hard and replaced,
  which takes every other in-flight job with it; those innocents go
  back to their front door to requeue without spending an attempt.

What the front doors keep is what really differs between them: how they
schedule (the batch ready and delayed queues; the service's leases,
fencing tokens and event-driven wake) and where they settle an outcome
(in memory and the journal, or in ``serve.db``).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..chaos import ChaosEvent, ChaosInjector
from .worker import JobOutcome, classify_failure, execute_job

__all__ = ["Flight", "PoolSupervisor", "is_broken_pool", "pool_map", "teardown_pool"]

#: Exception class names that mean the *executor* died, not the job.
#: Matched by name so errors that crossed a process boundary (or come
#: from a future stdlib rename) still classify.
_BROKEN_POOL_NAMES = frozenset({"BrokenProcessPool", "BrokenExecutor"})


def is_broken_pool(exc: BaseException) -> bool:
    """True when ``exc`` signals executor death rather than job failure."""
    return bool({t.__name__ for t in type(exc).__mro__} & _BROKEN_POOL_NAMES)


def teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly broken, possibly stuck) pool down, hard.

    Every process the executor tracks is terminated explicitly.  The
    handles are taken before ``shutdown``, which drops them.
    (``_processes`` is private API; the getattr keeps this a no-op if a
    future stdlib drops it — shutdown still does the base cleanup.)
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass


@dataclass(eq=False)
class Flight:
    """One attempt in the pool."""

    future: Future
    job_id: str
    attempt: int
    #: worker slot (the trace tid; the service's lease worker)
    slot: int
    start: float
    #: the front door's own handle on the job, which it settles against
    ticket: Any


#: What :meth:`PoolSupervisor.reap` hands back for each flight that left
#: the pool: its outcome, or ``None`` for an innocent to requeue free.
Reaped = Tuple[Flight, Optional[JobOutcome]]


class PoolSupervisor:
    """Submit attempts to a worker pool and account for every one.

    ``now()`` is the front door's host clock; ``count(name)`` hears of
    ``pool_rebuilds``, and ``note(event)`` of every chaos kill or hang
    the supervisor blames.  ``injector`` may be installed later, like
    the ledger's.
    """

    def __init__(
        self,
        jobs: int,
        deadline_s: Optional[float],
        deadline_grace: float,
        now: Callable[[], float],
        count: Callable[[str], None],
        note: Callable[[ChaosEvent], None],
    ) -> None:
        self.jobs = jobs
        self.deadline_s = deadline_s
        self.deadline_grace = deadline_grace
        self.injector: Optional[ChaosInjector] = None
        self.executor: Optional[ProcessPoolExecutor] = None
        #: in-flight attempts by future, in submission order
        self.flights: Dict[Future, Flight] = {}
        self.rebuilds = 0
        self._now = now
        self._count = count
        self._note = note
        #: casualties of a failed submit, handed back by the next reap
        self._pending: List[Reaped] = []

    def start(self) -> None:
        self.executor = ProcessPoolExecutor(max_workers=self.jobs)

    def close(self) -> None:
        executor, self.executor = self.executor, None
        if executor is not None:
            teardown_pool(executor)

    def free_slot(self) -> int:
        """The lowest worker slot no attempt in flight holds."""
        held = {flight.slot for flight in self.flights.values()}
        return min(set(range(self.jobs)) - held, default=0)

    def submit(
        self,
        job_id: str,
        experiment: str,
        params: Dict[str, Any],
        attempt: int,
        slot: int,
        ticket: Any,
    ) -> Flight:
        assert self.executor is not None, "start() the supervisor first"
        plan = self.injector.plan if self.injector is not None else None
        args = (job_id, experiment, params, plan, attempt, self.deadline_s, True)
        try:
            future = self.executor.submit(execute_job, *args)
        except RuntimeError:  # BrokenProcessPool: it died since the last reap
            self._pending += self._rebuild("broken", [])
            future = self.executor.submit(execute_job, *args)
        flight = Flight(future, job_id, attempt, slot, self._now(), ticket)
        self.flights[future] = flight
        return flight

    def reap(self, timeout: Optional[float] = 0.0) -> List[Reaped]:
        """Collect what the pool finished within ``timeout`` seconds
        (``None`` blocks until something does), then run the watchdog.

        Every flight that left the pool comes back exactly once: first
        the finished ones in submission order, then the casualties of a
        rebuild — a victim with its ``crash``/``timeout`` outcome, an
        innocent with ``None``.
        """
        out, self._pending = self._pending, []
        if not self.flights:
            return out
        done, _ = wait(
            list(self.flights),
            timeout=0.0 if out else timeout,
            return_when=FIRST_COMPLETED,
        )
        broken: List[Flight] = []
        for future in [f for f in self.flights if f in done]:
            flight = self.flights.pop(future)
            try:
                outcome = future.result()
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # noqa: BLE001
                if is_broken_pool(exc):
                    broken.append(flight)
                    continue
                outcome = JobOutcome(
                    job_id=flight.job_id,
                    ok=False,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    classification=classify_failure(exc),
                )
            out.append((flight, outcome))
        if broken:
            return out + self._rebuild("broken", broken)
        if self.deadline_s is not None:
            limit = self.deadline_s + self.deadline_grace
            now = self._now()
            stuck = [f for f in self.flights.values() if now - f.start > limit]
            if stuck:
                for flight in stuck:
                    del self.flights[flight.future]
                return out + self._rebuild("stuck", stuck)
        return out

    def _rebuild(self, reason: str, dead: List[Flight]) -> List[Reaped]:
        """Triage the casualties of tearing the pool down, then replace it.

        ``dead`` already left :attr:`flights`: the futures a worker death
        broke (``reason="broken"``) or the stuck attempts
        (``reason="stuck"``).  Everything still in flight dies with them.
        """
        everyone = dead + list(self.flights.values())
        self.flights.clear()
        # Any in-flight attempt may have died with the worker; only a
        # stuck attempt can have hung.
        suspects = everyone if reason == "broken" else dead
        blamed = [flight for flight in suspects if self._blame(reason, flight)]
        victims = blamed if reason == "broken" and blamed else suspects
        out: List[Reaped] = [(f, self._casualty(reason, f)) for f in victims]
        out += [(f, None) for f in everyone if f not in victims]
        self.rebuilds += 1
        self._count("pool_rebuilds")
        self.close()
        self.start()
        return out

    def _blame(self, reason: str, flight: Flight) -> bool:
        """Fire the unfired chaos kill (or hang) aimed at ``flight``."""
        injector = self.injector
        if injector is None:
            return False
        event = (
            injector.kill_event(flight.job_id, flight.attempt)
            if reason == "broken"
            else injector.hang_event(flight.job_id, flight.attempt)
        )
        if event is None:
            return False
        injector.fire(event)
        self._note(event)
        return True

    def _casualty(self, reason: str, flight: Flight) -> JobOutcome:
        if reason == "stuck":
            return JobOutcome(
                job_id=flight.job_id,
                ok=False,
                error=(
                    f"job exceeded its {self.deadline_s:g}s deadline "
                    f"(+{self.deadline_grace:g}s grace); worker killed"
                ),
                error_type="JobTimeoutError",
                classification="timeout",
            )
        return JobOutcome(
            job_id=flight.job_id,
            ok=False,
            error="worker process died mid-job (pool broken)",
            error_type="WorkerKilledError",
            classification="crash",
        )


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
