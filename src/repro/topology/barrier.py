"""The BG global interrupt (barrier) network.

Section I.A lists a dedicated "global barrier network" among the five
BG/P networks.  It performs a full-machine barrier in a handful of
microseconds independent of partition size — far faster than the
software (message-based) barriers the XTs must use.

The model: a barrier completes after a fixed AND-tree propagation time
(up + down the dedicated wire tree).  On machines without the network,
callers fall back to a log2(p) software barrier over MPI.
"""

from __future__ import annotations

import math
from typing import Optional

from ..simengine import Engine, Event

__all__ = ["BarrierNetwork", "software_barrier_time"]

#: One-way propagation of the BG/P global-interrupt tree, seconds.
#: IBM documents ~1.3 us for a full 72-rack barrier; scaled by depth.
_PER_LEVEL = 0.065e-6


class BarrierNetwork:
    """Hardware barrier over ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int, env: Optional[Engine] = None) -> None:
        if num_nodes < 1:
            raise ValueError("barrier needs at least one node")
        self.num_nodes = num_nodes
        self.env = env
        self.operations = 0

    @property
    def depth(self) -> int:
        return max(1, math.ceil(math.log2(self.num_nodes))) if self.num_nodes > 1 else 1

    def barrier_time(self) -> float:
        """Seconds for one global barrier (up + down the AND tree)."""
        return 2 * self.depth * _PER_LEVEL

    def wait(self) -> Event:
        """DES event firing when the barrier completes."""
        if self.env is None:
            raise RuntimeError("barrier was built without an engine")
        self.operations += 1
        return self.env.timeout(self.barrier_time())


def software_barrier_time(num_ranks: int, mpi_latency: float) -> float:
    """Dissemination-barrier cost on machines without barrier hardware.

    ceil(log2(p)) rounds, each costing one MPI latency.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if num_ranks == 1:
        return 0.0
    rounds = math.ceil(math.log2(num_ranks))
    return rounds * mpi_latency
