"""Job partitions and the allocation-fragmentation model.

The paper attributes the XT's PTRANS variability (Fig. 1c) to resource
allocation: "the resource allocation approach on the XT is more
susceptible to fragmentation (and hence contention for the network with
other applications running at the same time)".  BlueGene partitions, by
contrast, are electrically isolated sub-tori.

The model:

* **BlueGene** (``contiguous_allocation=True``): the job receives an
  exact sub-torus.  Route dilation 1.0, no background contention,
  and identical repeated runs.
* **XT** (``contiguous_allocation=False``): the job receives a
  scattered subset of the machine.  Sampled per allocation:
  a *route dilation* factor (routes detour through non-job nodes) and a
  *background contention* factor (links shared with other jobs deliver
  a fraction of their bandwidth).  Both are drawn from a seeded RNG, so
  repeated allocations reproduce the run-to-run spread the paper saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machines.specs import MachineSpec
from ..simengine import Engine, make_rng
from .torus import Torus3D

__all__ = [
    "Partition",
    "allocate",
    "slab_axis",
    "slab_extents",
    "shard_of_node",
    "shard_nodes",
]


@dataclass(frozen=True)
class Partition:
    """A set of nodes granted to one job, with contention characteristics."""

    machine: MachineSpec
    nodes: int
    torus_shape: Tuple[int, int, int]
    #: >= 1: multiplier on hop counts due to fragmented placement
    route_dilation: float
    #: >= 1: multiplier on transfer times due to sharing links with
    #: other jobs (1.0 = dedicated links)
    contention_multiplier: float

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("partition must contain at least one node")
        x, y, z = self.torus_shape
        if x * y * z < self.nodes:
            raise ValueError(
                f"torus shape {self.torus_shape} too small for {self.nodes} nodes"
            )
        if self.route_dilation < 1.0 or self.contention_multiplier < 1.0:
            raise ValueError("dilation and contention multipliers must be >= 1")

    @property
    def is_isolated(self) -> bool:
        return self.route_dilation == 1.0 and self.contention_multiplier == 1.0

    def build_torus(self, env: Optional[Engine] = None) -> Torus3D:
        """Instantiate the partition's torus (optionally with DES links).

        For fragmented partitions the links carry degraded effective
        bandwidth (peak / contention) so the DES sees the contention.
        """
        spec = self.machine.torus
        if self.contention_multiplier > 1.0:
            from dataclasses import replace

            spec = replace(
                spec,
                link_bandwidth=spec.link_bandwidth / self.contention_multiplier,
            )
        return Torus3D(self.torus_shape, spec, env)

    def effective_hops(self, hops: float) -> float:
        """Hop count adjusted for fragmented placement."""
        return hops * self.route_dilation


def allocate(
    machine: MachineSpec,
    nodes: int,
    rng: Optional[np.random.Generator] = None,
    utilization: float = 0.7,
) -> Partition:
    """Allocate ``nodes`` nodes on ``machine``.

    ``utilization`` is the background load of the rest of the machine
    (only relevant for fragmenting allocators); 0 gives a quiet machine,
    values near 1 a heavily shared one.  A quiet machine fragments
    nothing, so without an explicit ``rng`` it builds no generator: the
    draws would be multiplied by zero.  With an explicit ``rng`` the two
    draws are always taken, so the caller's stream advances the same way
    whatever the utilization.
    """
    if nodes < 1:
        raise ValueError("must request at least one node")
    if nodes > machine.total_nodes:
        raise ValueError(
            f"{machine.name} has {machine.total_nodes} nodes; requested {nodes}"
        )
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must lie in [0, 1]")

    shape = machine.torus_shape(nodes)

    if machine.contiguous_allocation or (rng is None and utilization == 0.0):
        return Partition(
            machine=machine,
            nodes=nodes,
            torus_shape=shape,
            route_dilation=1.0,
            contention_multiplier=1.0,
        )

    rng = rng if rng is not None else make_rng()
    # Fragmentation grows with how full the machine is and how large the
    # job is relative to the machine.
    fill = nodes / machine.total_nodes
    frag_scale = utilization * (1.0 - 0.5 * fill)
    # Route dilation: scattered nodes lengthen routes by up to ~60%.
    dilation = 1.0 + frag_scale * float(rng.uniform(0.05, 0.6))
    # Background contention: lognormal around a modest mean, heavy tail
    # (occasionally a run lands next to a communication-heavy neighbour).
    contention = 1.0 + frag_scale * float(rng.lognormal(mean=-1.6, sigma=0.7))
    return Partition(
        machine=machine,
        nodes=nodes,
        torus_shape=shape,
        route_dilation=dilation,
        contention_multiplier=contention,
    )


# -- Slab sharding ----------------------------------------------------------
#
# `repro.pdes` splits a partition's torus into contiguous slabs along one
# axis, one slab per simulation shard.  Slabs keep cross-shard surface
# area minimal (only the two slab faces carry boundary traffic) and make
# node ownership a pure function of one coordinate, which is what the
# conservative-lookahead synchronizer needs to route boundary events.


def slab_axis(torus_shape: Tuple[int, int, int]) -> int:
    """The axis a slab decomposition splits: the longest torus dimension.

    Ties break toward the highest axis index (Z-most), matching the
    XYZT mapping's slowest-varying coordinate so slabs line up with
    contiguous rank ranges under the default mapping.
    """
    best = 0
    for axis in range(3):
        if torus_shape[axis] >= torus_shape[best]:
            best = axis
    return best


def slab_extents(extent: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``extent`` coordinates into ``shards`` contiguous ranges.

    Returns ``((start, stop), ...)`` half-open ranges whose sizes differ
    by at most one (larger slabs first).  ``shards`` must not exceed
    ``extent`` — an empty slab would have no nodes and nothing to do.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > extent:
        raise ValueError(
            f"cannot cut {extent} coordinates into {shards} non-empty slabs"
        )
    base, extra = divmod(extent, shards)
    ranges = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


def shard_of_node(
    node: Tuple[int, int, int],
    torus_shape: Tuple[int, int, int],
    shards: int,
) -> int:
    """The shard owning torus node ``node`` under a slab decomposition."""
    axis = slab_axis(torus_shape)
    coord = node[axis]
    if not 0 <= coord < torus_shape[axis]:
        raise ValueError(f"node {node} outside torus {torus_shape}")
    for shard, (start, stop) in enumerate(slab_extents(torus_shape[axis], shards)):
        if start <= coord < stop:
            return shard
    raise AssertionError("slab_extents covers every coordinate")  # pragma: no cover


def shard_nodes(
    torus_shape: Tuple[int, int, int],
    shards: int,
) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """All torus nodes grouped by owning shard, in lexicographic order."""
    axis = slab_axis(torus_shape)
    extents = slab_extents(torus_shape[axis], shards)
    groups: Tuple[list, ...] = tuple([] for _ in range(shards))
    for x in range(torus_shape[0]):
        for y in range(torus_shape[1]):
            for z in range(torus_shape[2]):
                node = (x, y, z)
                for shard, (start, stop) in enumerate(extents):
                    if start <= node[axis] < stop:
                        groups[shard].append(node)
                        break
    return tuple(tuple(g) for g in groups)
