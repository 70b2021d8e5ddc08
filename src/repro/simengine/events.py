"""Event primitives for the discrete-event simulation engine.

The engine (:mod:`repro.simengine.engine`) schedules :class:`Event`
objects on a time-ordered queue.  Simulation processes (generator
coroutines, see :mod:`repro.simengine.process`) *yield* events to
suspend themselves until the event is triggered.

The design mirrors the small core of SimPy, reimplemented here because
the execution environment is offline and because the simulator needs a
few HPC-specific extensions (e.g. :class:`AllOf` barriers that carry
per-event values in submission order, deterministic tie-breaking).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "PENDING",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) schedules it for processing at the current simulation
    time; when the engine processes it, all registered callbacks run.
    Processes register themselves as callbacks by yielding the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Engine") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` / :meth:`fail`."""
        if self._value is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Engine.schedule(self), inlined: every matched message and
        # collective rendezvous triggers an event here.
        env = self.env
        env._scheduled += 1
        env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Engine", delay: float, value: Any = None) -> None:
        # Event.__init__ inlined: the DES creates more timeouts than any
        # other event.  Engine.schedule rejects a negative or NaN delay.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env.schedule(self, delay)


class _Condition(Event):
    """Base for events that fire when a set of child events resolves."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Engine", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all events must belong to the same engine")
        # Register on children after validating everything.
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self.events and self._value is PENDING:
            self.succeed(self._collect())

    def _collect(self) -> List[Any]:
        return [ev._value for ev in self.events if ev.triggered]

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* child events have triggered.

    The value is the list of child values in submission order, which is
    what collective-communication code wants (one slot per peer).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when *any* child event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed(event._value)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None
