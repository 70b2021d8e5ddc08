"""Simulation processes: generator coroutines driven by the engine.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.simengine.events.Event`; the process suspends until the
event triggers and receives the event's value as the result of the
``yield`` expression.  A ``return`` statement ends the process and sets
the process's own event value (a :class:`Process` *is* an event, so
processes can wait for each other or be combined with ``AllOf``).
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from .events import Event, Interrupt, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulation process (also usable as an event)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Engine", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Bootstrap: resume on the next engine step.
        init = Event(env)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        hit = Event(self.env)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._defused = True
        hit.callbacks.append(self._resume)
        self.env.schedule(hit)

    # -- engine callback ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            # Already finished — e.g. killed by the recovery runtime
            # while its bootstrap event was still queued.  Resuming a
            # closed generator would double-trigger this event.
            return
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                break

            if not isinstance(target, Event):
                exc = TypeError(
                    f"process yielded a non-event: {target!r} "
                    "(did you forget to call env.timeout(...)?)"
                )
                self._target = None
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(err)
                break

            if target.callbacks is not None:
                # Event still pending: register and suspend.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Event already processed: loop and feed its value immediately.
            event = target
