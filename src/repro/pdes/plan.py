"""Shard planning: who owns which node, rank, and link.

A :class:`ShardPlan` cuts one job partition into contiguous torus
slabs (see :func:`repro.topology.partition.slab_extents`), assigns
every rank to the shard owning its node, and derives the conservative
lookahead window — the minimum latency any cross-shard message pays
before it can take effect on the peer engine.  With dimension-order
routing and per-message injection latency, that bound is simply the
machine's MPI latency: every boundary event's effect time is at least
``emit_time + mpi.latency`` (eager and RTS deliveries pay the full
injection latency; the rendezvous completion notification additionally
pays the rendezvous handshake).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..machines.modes import ModeConfig, resolve_mode
from ..machines.specs import MachineSpec
from ..topology.mapping import Mapping
from ..topology.partition import allocate, Partition, slab_axis, slab_extents, shard_of_node

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic sharding of one cluster configuration."""

    machine: MachineSpec
    ranks: int
    mode: ModeConfig
    mapping: Mapping
    partition: Partition
    shards: int
    #: shard owning each rank, indexed by global rank
    rank_shards: Tuple[int, ...]
    #: conservative lookahead window (seconds)
    lookahead: float

    @classmethod
    def build(
        cls,
        machine: MachineSpec,
        ranks: int,
        shards: int,
        mode: str = "SMP",
        mapping: str = "XYZT",
    ) -> "ShardPlan":
        """Plan a sharded run of ``ranks`` ranks split ``shards`` ways.

        Mirrors :class:`~repro.simmpi.comm.Cluster` defaults exactly
        (``utilization=0.0`` allocation) so the plan's partition is the
        one the equivalent single-engine run would use.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        mode_cfg = resolve_mode(machine, mode)
        nodes = mode_cfg.nodes_for_ranks(ranks)
        partition = allocate(machine, nodes, utilization=0.0)
        shape = partition.torus_shape
        axis = slab_axis(shape)
        if shards > shape[axis]:
            raise ValueError(
                f"cannot split torus {shape} into {shards} slabs along "
                f"axis {axis} (extent {shape[axis]})"
            )
        map_obj = Mapping(mapping, shape, mode_cfg.tasks_per_node)
        if map_obj.size < ranks:
            raise ValueError(
                f"mapping capacity {map_obj.size} < {ranks} ranks "
                f"(shape {shape}, {mode_cfg.tasks_per_node} tasks/node)"
            )
        lookahead = machine.mpi.latency
        if lookahead <= 0.0:
            raise ValueError(
                f"{machine.name}: mpi.latency must be > 0 to serve as the "
                "conservative lookahead window"
            )
        rank_shards = tuple(
            shard_of_node(map_obj.node_of(r), shape, shards) for r in range(ranks)
        )
        return cls(
            machine=machine,
            ranks=ranks,
            mode=mode_cfg,
            mapping=map_obj,
            partition=partition,
            shards=shards,
            rank_shards=rank_shards,
            lookahead=lookahead,
        )

    def shard_of_rank(self, rank: int) -> int:
        return self.rank_shards[rank]

    def owned_ranks(self, shard: int) -> Tuple[int, ...]:
        """Global ranks owned by ``shard``, in ascending rank order."""
        return tuple(
            r for r in range(self.ranks) if self.rank_shards[r] == shard
        )

    def describe(self) -> str:
        shape = self.partition.torus_shape
        axis = slab_axis(shape)
        cuts = slab_extents(shape[axis], self.shards)
        sizes = ", ".join(str(stop - start) for start, stop in cuts)
        return (
            f"{self.shards} slab(s) along axis {'XYZ'[axis]} of torus "
            f"{shape} ({sizes} plane(s)); lookahead "
            f"{self.lookahead * 1e6:.2f} us"
        )
