"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the pending-event queue.
Time is a ``float`` in **seconds** throughout the simulator; helper
constants for microseconds etc. live in :data:`US` and friends.

Determinism: events scheduled for the same timestamp are processed in
scheduling order (a monotonically increasing sequence number breaks
ties), so repeated runs of the same workload produce identical traces.

Host cost: :meth:`Engine.run` pops and fires events inline, and holds
Python's cyclic garbage collector off while it does.  The loop makes no
reference cycles (a processed event drops its callbacks, and a resumed
process replaces its awaited target), so reference counting frees
everything it allocates and a collection would only re-scan the live
pending events.  ``tests/simengine/test_fast_loop.py`` pins both
properties, and checks the loop against :meth:`Engine.step`, the
one-event reference.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .budget import Budget, _BudgetWatch
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Engine", "EmptySchedule", "US", "MS", "NS"]

#: One microsecond, in simulation seconds.
US = 1e-6
#: One millisecond, in simulation seconds.
MS = 1e-3
#: One nanosecond, in simulation seconds.
NS = 1e-9

_INF = float("inf")


class EmptySchedule(Exception):
    """Raised when the event queue runs dry while more work was expected.

    Carries a diagnostic message with the simulation time at starvation
    and the number of events processed so far, so "the schedule drained
    early" is debuggable without re-running under a tracer.
    """


class Engine:
    """Discrete-event simulation core.

    Typical use::

        env = Engine()

        def worker(env):
            yield env.timeout(2.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 2.5
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Count of events processed; useful for cost accounting in tests.
        self.events_processed = 0
        #: Diagnostic hook consulted when :meth:`run` starves while an
        #: awaited event is still pending (a deadlock).  May return an
        #: exception to raise in place of the generic ``RuntimeError``
        #: (the simulation sanitizer plugs in here), or ``None`` to keep
        #: the default behaviour.
        self.on_empty_schedule: Optional[Callable[[], Optional[BaseException]]] = None
        #: Observability hook (a :class:`repro.obs.Tracer` or anything
        #: with ``engine_step``/``process_spawned``).  ``None`` (the
        #: default) keeps the event loop allocation-free.  Observers
        #: that want to stack (e.g. :class:`repro.perf.HostProfiler`
        #: over a tracer) must save the current value and forward both
        #: callbacks to it — the engine itself only ever calls one.
        self.obs: Optional[Any] = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """Event triggering when every event in ``events`` has triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event triggering when any event in ``events`` has triggered."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> Process:
        """Start a new simulation process from a generator coroutine."""
        proc = Process(self, generator)
        if self.obs is not None:
            self.obs.process_spawned(self, proc)
        return proc

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    @property
    def pending(self) -> int:
        """Number of events currently scheduled (the heap depth)."""
        return len(self._queue)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        The one-event API for drivers that interleave the engine with
        other work (the sharded PDES).  :meth:`run` inlines the same
        steps; this method is the reference it is tested against.
        """
        try:
            when, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule(
                f"no events to process at t={self._now:.6g}s "
                f"({self.events_processed} event(s) processed so far)"
            ) from None
        self._now = when
        self.events_processed += 1
        if self.obs is not None:
            self.obs.engine_step(when, len(self._queue))
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks or ():
            cb(event)
        if not event._ok and not event._defused:
            # An unhandled failure: propagate to the driver of run().
            exc = event._value
            raise exc

    # -- driving -----------------------------------------------------------
    def run(
        self, until: Optional[Any] = None, budget: Optional[Budget] = None
    ) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run up to
        that simulation time), or an :class:`Event` (run until it
        triggers, returning its value).

        ``budget`` bounds the run (events, sim time, wall clock, and a
        no-sim-time-advance livelock watchdog); exceeding any bound
        raises :class:`~repro.simengine.budget.BudgetExceeded` with a
        partial-result summary instead of hanging.

        The cyclic garbage collector is off while the loop runs.  It is
        switched back on when ``run`` returns or raises, and only if it
        was on when ``run`` was entered.
        """
        watch: Optional[_BudgetWatch] = None
        if budget is not None:
            watch = _BudgetWatch(
                budget, start_events=self.events_processed, last_now=self._now
            )
        stop_event: Optional[Event] = None
        stop_time = _INF
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        queue = self._queue
        heappop = heapq.heappop
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event.ok:
                        raise stop_event.value
                    return stop_event.value
                when = queue[0][0] if queue else _INF
                if when == _INF:
                    if stop_event is not None:
                        if self.on_empty_schedule is not None:
                            exc = self.on_empty_schedule()
                            if exc is not None:
                                raise exc
                        raise RuntimeError(
                            "simulation ran out of events before the awaited "
                            "event triggered (deadlock?)"
                        )
                    if stop_time != _INF:
                        raise EmptySchedule(
                            f"schedule drained at t={self._now:.6g}s before "
                            f"reaching until={stop_time:.6g}s "
                            f"({self.events_processed} event(s) processed, "
                            f"0 pending)"
                        )
                    return None
                if when > stop_time:
                    self._now = stop_time
                    return None
                if watch is not None:
                    watch.check(self, when)
                # step(), inlined
                event = heappop(queue)[2]
                self._now = when
                self.events_processed += 1
                obs = self.obs
                if obs is not None:
                    obs.engine_step(when, len(queue))
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks or ():
                    cb(event)
                if not event._ok and not event._defused:
                    # An unhandled failure: propagate to the driver of run().
                    raise event._value
        finally:
            if collecting:
                gc.enable()

    def run_all(self) -> float:
        """Run to exhaustion and return the final simulation time."""
        self.run()
        return self._now
