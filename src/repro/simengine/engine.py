"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the pending-event queue.
Time is a ``float`` in **seconds** throughout the simulator; helper
constants for microseconds etc. live in :data:`US` and friends.

Determinism: events are processed in (time, scheduling order), so
repeated runs of the same workload produce identical traces.  The queue
realizes that order without a sequence number.  Events due at the
current time wait in one FIFO, ``_ready``; later events wait in a list
per distinct time, in scheduling order, and a heap holds those times.
When ``_ready`` runs dry the least time's list moves into it and the
clock advances.  An event due at ``t`` was scheduled either before the
clock reached ``t``, and so sits in ``t``'s list, or at ``t``, and so
is appended to ``_ready`` behind that list.
``tests/simengine/test_queue_order.py`` holds the queue to a plain
``(time, seq)`` heap.

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
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

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
        #: events due at ``_now``, in scheduling order
        self._ready: Deque[Event] = deque()
        #: heap of the distinct times after ``_now`` that have events
        self._times: List[float] = []
        #: each time in ``_times`` -> its events, in scheduling order
        self._later: Dict[float, List[Event]] = {}
        #: events ever scheduled; ``pending`` subtracts the processed ones
        self._scheduled = 0
        #: Count of events processed; useful for cost accounting in tests.
        self.events_processed = 0
        #: Diagnostic hook consulted when :meth:`run` starves while an
        #: awaited event is still pending (a deadlock).  May return an
        #: exception to raise in place of the generic ``RuntimeError``
        #: (the simulation sanitizer plugs in here), or ``None`` to keep
        #: the default behaviour.
        self.on_empty_schedule: Optional[Callable[[], Optional[BaseException]]] = None
        #: Observability hook: the attached :class:`repro.obs.Tracer`
        #: (anything with ``engine_step``/``process_spawned``), or
        #: ``None`` (the default), which keeps the event loop
        #: allocation-free.  The engine calls one observer.
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
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay: {delay!r}")
        self._scheduled += 1
        now = self._now
        when = now + delay
        if when == now:  # also a delay too small to move the clock
            self._ready.append(event)
            return
        events = self._later.get(when)
        if events is None:
            self._later[when] = [event]
            heappush(self._times, when)
        else:
            events.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._times[0] if self._times else _INF

    @property
    def pending(self) -> int:
        """Number of events currently scheduled (the queue depth)."""
        return self._scheduled - self.events_processed

    def abandon(self) -> None:
        """Drop every queued event, and what each would have called.

        For a run given up for good after an exception: a queued event
        refers back to this engine, and its callbacks to the events
        waiting on it, so an engine dropped with its queue frees only
        in a cyclic collection.
        """
        for event in self._ready:
            event.callbacks = None
        for events in self._later.values():
            for event in events:
                event.callbacks = None
        self._ready.clear()
        self._later.clear()
        self._times.clear()
        self._scheduled = self.events_processed

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        The one-event reference the loop is tested against: :meth:`run`
        inlines the same steps, and the tests hold it to this method
        event for event.
        """
        ready = self._ready
        if not ready:
            if not self._times:
                raise EmptySchedule(
                    f"no events to process at t={self._now:.6g}s "
                    f"({self.events_processed} event(s) processed so far)"
                )
            when = heappop(self._times)
            ready.extend(self._later.pop(when))
            self._now = when
        event = ready.popleft()
        self.events_processed += 1
        if self.obs is not None:
            self.obs.engine_step(self._now, self.pending)
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
        ready = self._ready
        popleft = ready.popleft
        times = self._times
        later = self._later
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event.ok:
                        raise stop_event.value
                    return stop_event.value
                if ready:
                    when = self._now
                else:
                    when = times[0] if times else _INF
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
                            f"{self.pending} pending)"
                        )
                    return None
                if when > stop_time:
                    self._now = stop_time
                    return None
                if watch is not None:
                    watch.check(self, when)
                # step(), inlined
                if not ready:
                    heappop(times)
                    ready.extend(later.pop(when))
                    self._now = when
                event = popleft()
                self.events_processed += 1
                obs = self.obs
                if obs is not None:
                    obs.engine_step(when, self._scheduled - self.events_processed)
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
