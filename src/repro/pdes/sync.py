"""Conservative lookahead synchronization (LBTS rounds).

The coordinator runs the classic null-message-free LBTS scheme: each
round it collects every shard's *effective floor* — the earliest thing
that can still happen there, i.e. ``min(next local event, earliest
undelivered boundary event)`` — and grants each shard a window up to
``min(other shards' floors) + lookahead``.  Events strictly below the
grant are safe to process: any message a peer could still send will
take effect at least one lookahead past the peer's floor.

Progress is guaranteed for well-formed programs: the shard holding the
globally earliest floor always receives a grant strictly above it, so
every round advances at least one event somewhere.  If no shard can
move and ranks are still running, the workload itself is deadlocked
(:class:`~repro.pdes.errors.ShardDeadlockError` — the sharded analogue
of the runtime sanitizer's report).

Accounting: ``pdes.null_messages`` counts floor announcements (one per
shard per round — the null-message traffic a distributed deployment
would pay), ``pdes.stalls`` counts shard-rounds spent blocked on the
lookahead horizon with work pending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .boundary import BoundaryEvent
from .errors import ShardDeadlockError
from .plan import ShardPlan

__all__ = ["PdesStats", "drive"]

_INF = float("inf")


@dataclass
class PdesStats:
    """Synchronization-layer counters for one sharded run."""

    shards: int = 1
    lookahead: float = 0.0
    rounds: int = 0
    null_messages: int = 0
    stalls: int = 0
    boundary_events: int = 0
    engine_steps: int = 0
    link_conflicts: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "pdes.shards": self.shards,
            "pdes.lookahead_us": self.lookahead * 1e6,
            "pdes.rounds": self.rounds,
            "pdes.null_messages": self.null_messages,
            "pdes.stalls": self.stalls,
            "pdes.boundary_events": self.boundary_events,
            "pdes.engine_steps": self.engine_steps,
            "pdes.link_conflicts": self.link_conflicts,
        }

    def summary_lines(self) -> List[str]:
        out = ["== pdes synchronization =="]
        for name, value in self.as_dict().items():
            shown = f"{value:.2f}" if isinstance(value, float) else str(value)
            out.append(f"  {name:<24} {shown}")
        return out


@dataclass
class _ShardState:
    floor: float = 0.0
    alive: int = -1  # unknown until the first advance
    done_at: Optional[float] = None
    inbox: List[BoundaryEvent] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.alive == 0

    def effective_floor(self) -> float:
        eff = self.floor
        for bev in self.inbox:
            if bev.ts < eff:
                eff = bev.ts
        return eff


def drive(backend, plan: ShardPlan, stats: Optional[PdesStats] = None) -> PdesStats:
    """Run ``backend``'s shards to completion under conservative sync."""
    n = plan.shards
    lookahead = plan.lookahead
    if stats is None:
        stats = PdesStats()
    stats.shards = n
    stats.lookahead = lookahead
    states = [_ShardState() for _ in range(n)]

    while True:
        if all(s.done for s in states) and not any(s.inbox for s in states):
            break
        effs = [s.effective_floor() for s in states]
        grants = [
            min((effs[j] for j in range(n) if j != i), default=_INF) + lookahead
            for i in range(n)
        ]
        batch = []
        for i, s in enumerate(states):
            if s.inbox or s.floor < grants[i]:
                batch.append((i, grants[i], s.inbox))
                s.inbox = []
            elif s.floor < _INF and not s.done:
                stats.stalls += 1
        if not batch:
            blocked = [
                f"shard {i}: {s.alive} rank(s) waiting (next event "
                + ("none" if s.floor == _INF else f"at {s.floor:.6g}s")
                + ")"
                for i, s in enumerate(states)
                if not s.done
            ]
            raise ShardDeadlockError(blocked)
        results = backend.advance(batch)
        for res in results:
            s = states[res.shard_id]
            s.floor = res.floor
            s.alive = res.alive
            s.done_at = res.done_at
            stats.engine_steps += res.steps
            stats.boundary_events += len(res.outbox)
            for bev in res.outbox:
                states[bev.dst_shard].inbox.append(bev)
        stats.rounds += 1
        stats.null_messages += n
    return stats
