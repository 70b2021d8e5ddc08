"""The sanctioned host-time source.

The engine promises identical traces across runs, so ``repro lint``
flags every wall-clock read in the tree as a ``determinism-hazard``.
Host-side *observability* (the benchmark harness, the campaign trace
anchor) legitimately needs the wall clock — but scattering per-line
suppressions hides real mistakes, so all of it funnels through this
one module instead.

``repro.lint.hygiene_rules`` whitelists exactly this file
(:data:`~repro.lint.hygiene_rules.HOST_TIME_MODULES`): the clock reads
below lint clean, and any *other* module that wants host time must
either import from here or argue for a suppression in review.

The values produced here are **host** seconds.  They must never feed
back into simulated state (``env.timeout``, ``comm.compute``, MPI
arguments) — the ``flow-determinism-taint`` analysis still polices
that for every consumer of this module.
"""

from __future__ import annotations

import time

__all__ = ["HostClock", "host_counter", "host_counter_ns", "host_sleep"]


def host_counter() -> float:
    """Monotonic host seconds (the one sanctioned ``perf_counter`` read)."""
    return time.perf_counter()


def host_counter_ns() -> int:
    """Monotonic host nanoseconds, for overhead-sensitive call sites."""
    return time.perf_counter_ns()


def host_sleep(seconds: float) -> None:
    """Block the host thread — never simulated time, which only the
    engine may advance.  Host-side waits (campaign retry backoff, chaos
    hang injections) funnel through here for the same greppability
    reason the clock reads do."""
    time.sleep(max(0.0, seconds))


class HostClock:
    """A host-side stopwatch anchored at construction.

    ``elapsed()`` is the host time since the anchor — the shape every
    host-side track in the Chrome-trace export uses (spans start at 0,
    not at an absolute wall-clock epoch, so exported artifacts carry
    durations only).
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = host_counter()

    def reset(self) -> None:
        """Re-anchor the stopwatch at the current instant."""
        self._t0 = host_counter()

    def elapsed(self) -> float:
        """Host seconds since the anchor (monotonic, never negative)."""
        return host_counter() - self._t0
