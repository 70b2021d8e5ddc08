"""The BG global collective (tree) network.

Section I.A: "The global collective network has its own distinct
hardware, which is separate from the torus network.  Its topology is a
tree; this is a one-to-all, high-bandwidth network for global
collective operations, such as broadcast and reductions ...  Each
Compute and I/O node has three links to the global collective network
at 850 MB/s per direction."

The tree is modeled as a balanced binary tree over the nodes of a
partition with an ALU at every interior node.  A broadcast streams down
the tree (pipelined: latency = depth x hop + payload / link_bw); a
reduction streams up with the combine done in the tree hardware — but
*only* for dtypes the ALU supports (integers and doubles).  Single-
precision reductions fall back to a software path over the torus,
reproducing the Allreduce precision effect of paper Fig. 3(a,b).

Concurrent collectives serialize on the shared tree, represented by a
single pipelined resource.
"""

from __future__ import annotations

import math
from typing import Optional

from ..machines.specs import TreeSpec
from ..simengine import Engine, Event

__all__ = ["TreeNetwork"]


class TreeNetwork:
    """The collective tree over a partition of ``num_nodes`` nodes."""

    def __init__(
        self,
        num_nodes: int,
        spec: TreeSpec,
        env: Optional[Engine] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("tree needs at least one node")
        self.num_nodes = num_nodes
        self.spec = spec
        self.env = env
        self._free_at = 0.0  # serialization point for concurrent collectives
        #: operations carried (stats)
        self.operations = 0

    @property
    def depth(self) -> int:
        """Levels between root and leaves of the balanced binary tree."""
        return max(1, math.ceil(math.log2(self.num_nodes))) if self.num_nodes > 1 else 1

    # -- analytic costs -----------------------------------------------------
    def broadcast_time(self, nbytes: int) -> float:
        """Seconds for a hardware broadcast of ``nbytes`` to all nodes.

        Pipelined: the head of the payload reaches the farthest leaf
        after depth hops; the tail follows at link bandwidth.
        """
        if nbytes < 0:
            raise ValueError("negative payload")
        return self.depth * self.spec.hop_latency + nbytes / self.spec.link_bandwidth

    def reduce_time(self, nbytes: int, dtype: str = "float64") -> float:
        """Seconds for a hardware reduction to the root.

        Raises ``ValueError`` for dtypes the tree ALU cannot combine —
        callers must use the software (torus) path for those.
        """
        if not self.spec.supports_reduce(dtype):
            raise ValueError(
                f"tree ALU does not support dtype {dtype!r}; "
                "use the software reduction path"
            )
        return self.depth * self.spec.hop_latency + nbytes / self.spec.link_bandwidth

    def allreduce_time(self, nbytes: int, dtype: str = "float64") -> float:
        """Reduce to root then broadcast back down (both pipelined)."""
        return self.reduce_time(nbytes, dtype) + self.broadcast_time(nbytes)

    # -- DES occupancy --------------------------------------------------------
    def occupy(self, duration: float) -> Event:
        """Reserve the (serialized) tree for ``duration`` seconds.

        Returns an event that fires when this operation completes.
        """
        if self.env is None:
            raise RuntimeError("tree was built without an engine (analytic mode)")
        now = self.env.now
        start = max(now, self._free_at)
        finish = start + duration
        self._free_at = finish
        self.operations += 1
        return self.env.timeout(finish - now)
