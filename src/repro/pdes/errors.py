"""Errors raised by the parallel-DES subsystem.

Kept dependency-free (stdlib only) so ``import repro.pdes`` loads no
simulator code.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["PdesError", "ShardUnsupportedError", "ShardDeadlockError", "LinkConflictError"]


class PdesError(Exception):
    """Base class for parallel-DES failures."""


class ShardUnsupportedError(PdesError):
    """The workload used a feature the sharded engine cannot split.

    Raised mid-run when a program touches machinery that synchronizes
    across the whole partition in one engine (hardware tree/barrier
    collectives, fault injection, ULFM recovery); ``repro pdes run``
    reports it.
    """


class ShardDeadlockError(PdesError):
    """No shard can advance and the run is not complete.

    The conservative synchronizer proves progress for well-formed
    programs, so this means ranks are genuinely blocked on
    communication that will never arrive (the sharded analogue of the
    sanitizer's deadlock report).
    """

    def __init__(self, blocked: Sequence[str]) -> None:
        self.blocked = list(blocked)
        super().__init__(
            "sharded run deadlocked: every engine is idle but ranks are "
            "still waiting — " + "; ".join(self.blocked)
        )


class LinkConflictError(PdesError):
    """Cross-shard link bookings interleaved in time on one directed link.

    Each shard books torus routes on its own replica of the torus; the
    merge replays every booking against one global link timeline and
    raises this when two shards' transfers would have contended for the
    same link serialization window — the one case where the sharded
    timing model can drift from the single-engine run.
    """

    def __init__(self, conflicts: Sequence[str]) -> None:
        self.conflicts = list(conflicts)
        super().__init__(
            f"{len(self.conflicts)} cross-shard link conflict(s) detected; "
            "sharded timing is not exact for this workload — "
            + "; ".join(self.conflicts[:3])
        )
