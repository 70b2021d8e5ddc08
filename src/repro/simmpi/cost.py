"""Analytic (LogGP-style) communication cost model.

Shares machine parameters with the discrete-event transport so that the
two levels of fidelity agree; tests cross-validate them at small scale
(see ``tests/simmpi/test_cross_validation.py``).  The analytic model is
what the figure-regeneration benches use at the paper's 8k–40k-rank
scales, where message-level simulation would be needlessly slow.

Collective formulas follow the standard algorithm menu (binomial
broadcast, recursive-doubling and Rabenseifner allreduce, ring
allgather, pairwise alltoall) with per-machine algorithm selection:
BlueGene machines offload broadcast/reduction to the collective tree
network for dtypes its ALU supports (paper Section I.A / Fig. 3).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..machines.modes import Mode, ModeConfig, resolve_mode
from ..machines.specs import MachineSpec
from ..topology.barrier import BarrierNetwork, software_barrier_time
from ..topology.partition import allocate, Partition
from ..topology.torus import Torus3D
from ..topology.tree import TreeNetwork

__all__ = ["CostModel"]


class CostModel:
    """Communication/computation time estimates for one job configuration.

    Parameters
    ----------
    machine:
        Hardware description.
    mode:
        Execution mode (SMP/DUAL/VN or SN/VN).
    ranks:
        Number of MPI ranks in the job.
    partition:
        Node allocation; if omitted, one is allocated (quiet machine).
    rng:
        Randomness source for fragmented allocations.
    """

    def __init__(
        self,
        machine: MachineSpec,
        mode: Mode | str,
        ranks: int,
        partition: Optional[Partition] = None,
        rng: Optional[np.random.Generator] = None,
        utilization: float = 0.0,
    ) -> None:
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        self.machine = machine
        self.mode: ModeConfig = resolve_mode(machine, mode)
        self.ranks = ranks
        nodes = self.mode.nodes_for_ranks(ranks)
        if partition is None:
            partition = allocate(machine, nodes, rng=rng, utilization=utilization)
        elif partition.nodes < nodes:
            raise ValueError(
                f"partition has {partition.nodes} nodes but {nodes} are needed"
            )
        self.partition = partition
        self.nodes = nodes
        # Analytic torus over the partition shape (no engine -> no links).
        self._torus = Torus3D(partition.torus_shape, machine.torus)
        self._tree = (
            TreeNetwork(nodes, machine.tree) if machine.tree is not None else None
        )
        self._barrier = BarrierNetwork(nodes)
        # The partition, mode and machine are frozen, so every message
        # round shares these two constants.
        #: Mean route length in the partition, fragmentation-dilated.
        self.avg_hops: float = partition.effective_hops(self._torus.average_distance())
        #: Best-case single-message bandwidth for one rank, bytes/s: the
        #: minimum of the single-route link bandwidth and this rank's
        #: share of node injection bandwidth, degraded by background
        #: contention on fragmented allocations.
        self.p2p_bandwidth: float = (
            min(machine.torus.single_stream_bandwidth, self.mode.injection_bw_per_task)
            / partition.contention_multiplier
        )

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def shm_bandwidth(self) -> float:
        """Intra-node (shared-memory) transfer bandwidth, bytes/s.

        A copy through shared memory reads and writes each byte, so it
        moves at roughly half the node's STREAM rate.
        """
        return self.machine.node.memory.node_stream / 2.0

    def p2p_time(
        self,
        nbytes: float,
        hops: Optional[float] = None,
        intranode: bool = False,
    ) -> float:
        """One point-to-point message, send-start to receive-complete."""
        if nbytes < 0:
            raise ValueError("negative message size")
        mpi = self.machine.mpi
        if intranode:
            # Section I.A: peer tasks on a node communicate via shared
            # memory; lower latency, memory-bandwidth-limited.
            return 0.5 * mpi.latency + nbytes / self.shm_bandwidth()
        h = self.avg_hops if hops is None else self.partition.effective_hops(hops)
        t = (
            mpi.send_overhead
            + mpi.latency
            + h * self.machine.torus.hop_latency
            + nbytes / self.p2p_bandwidth
            + mpi.recv_overhead
        )
        if nbytes > mpi.eager_threshold:
            t += mpi.rendezvous_overhead
        return t

    def pingpong_time(self, nbytes: float, hops: Optional[float] = None) -> float:
        """Round-trip time of a ping-pong with ``nbytes`` payloads."""
        return 2.0 * self.p2p_time(nbytes, hops=hops)

    # ------------------------------------------------------------------
    # HPCC-style network figures (Table 2)
    # ------------------------------------------------------------------
    def random_ring_latency(self) -> float:
        """Mean latency of 8-byte messages around a random ring."""
        return self.p2p_time(8.0)

    def random_ring_bandwidth(self) -> float:
        """Per-rank sustained bandwidth under random-ring traffic, bytes/s.

        Classic saturation bound for uniform random traffic on a torus:
        each node's router carries its own plus transit traffic, so the
        sustainable injection rate is the aggregate *link* bandwidth
        divided by the mean route length — separately capped by the
        node's injection limit (HyperTransport on the XTs).  Shared
        among the node's tasks.  This is what makes the XT a
        "high-bandwidth" network and the BG/P a "low-latency" one in
        the paper's Table 2 discussion.
        """
        spec = self.machine.torus
        link_aggregate = spec.link_bandwidth * spec.links_per_node * 2
        transit_limited = link_aggregate / max(1.0, self.avg_hops)
        per_node = min(transit_limited, spec.injection_bandwidth)
        return (
            per_node
            / self.mode.tasks_per_node
            / self.partition.contention_multiplier
        )

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier_time(self) -> float:
        """One barrier over all ranks."""
        if self.machine.tree is not None:
            # Dedicated barrier/interrupt network (BlueGene).
            local = 0.2e-6 * (self.mode.tasks_per_node - 1)
            return self._barrier.barrier_time() + local
        return software_barrier_time(self.ranks, self.machine.mpi.latency)

    def bcast_time(self, nbytes: float, dtype: str = "byte") -> float:
        """MPI_Bcast of ``nbytes`` from one root to all ranks."""
        if nbytes < 0:
            raise ValueError("negative payload")
        if self._tree is not None:
            # Hardware broadcast down the tree network; the tasks of a
            # node then fan the payload out through shared memory.
            local = (
                nbytes / self.shm_bandwidth()
                if self.mode.tasks_per_node > 1
                else 0.0
            )
            return (
                self._tree.broadcast_time(int(nbytes))
                + self.machine.mpi.send_overhead
                + self.machine.mpi.recv_overhead
                + local
            )
        # Software binomial tree over the torus.
        rounds = max(1, math.ceil(math.log2(self.ranks))) if self.ranks > 1 else 0
        return rounds * self.p2p_time(nbytes)

    def reduce_time(self, nbytes: float, dtype: str = "float64") -> float:
        """MPI_Reduce of ``nbytes`` to a root."""
        if self._tree is not None and self._tree.spec.supports_reduce(dtype):
            local = self._local_combine_time(nbytes)
            return (
                self._tree.reduce_time(int(nbytes), dtype)
                + self.machine.mpi.send_overhead
                + self.machine.mpi.recv_overhead
                + local
            )
        rounds = max(1, math.ceil(math.log2(self.ranks))) if self.ranks > 1 else 0
        per_round = self.p2p_time(nbytes) + self._combine_flops_time(nbytes)
        return rounds * per_round

    def allreduce_time(self, nbytes: float, dtype: str = "float64") -> float:
        """MPI_Allreduce over all ranks.

        BlueGene + tree-supported dtype: hardware reduce + broadcast
        (paper Fig. 3a/b: the double-precision path).  Otherwise the
        better of recursive doubling (latency-optimal) and Rabenseifner
        reduce-scatter/allgather (bandwidth-optimal).
        """
        if self.ranks == 1:
            return self._combine_flops_time(nbytes)
        if self._tree is not None and self._tree.spec.supports_reduce(dtype):
            local = self._local_combine_time(nbytes)
            return (
                self._tree.allreduce_time(int(nbytes), dtype)
                + self.machine.mpi.send_overhead
                + self.machine.mpi.recv_overhead
                + local
            )
        return self._software_allreduce_time(nbytes)

    def _software_allreduce_time(self, nbytes: float) -> float:
        """Torus-based allreduce, same algorithm switch as the DES layer."""
        from .collectives import ALLREDUCE_RD_THRESHOLD

        p = self.ranks
        rounds = math.ceil(math.log2(p))
        if nbytes <= ALLREDUCE_RD_THRESHOLD:
            # Recursive doubling: full payload every round.
            return rounds * (
                self.p2p_time(nbytes) + self._combine_flops_time(nbytes)
            )
        # Rabenseifner: reduce-scatter (halving payloads) + allgather
        # (doubling payloads); sum the per-round point-to-point costs so
        # the estimate matches the message-level algorithm.
        total = 0.0
        chunk = nbytes
        for _ in range(rounds):
            chunk /= 2
            total += self.p2p_time(chunk) + self._combine_flops_time(chunk)
        for _ in range(rounds):
            total += self.p2p_time(chunk)
            chunk *= 2
        return total

    def allgather_time(self, nbytes_per_rank: float) -> float:
        """MPI_Allgather, ring algorithm: p-1 shifts of the payload."""
        if self.ranks == 1:
            return 0.0
        return (self.ranks - 1) * self.p2p_time(nbytes_per_rank, hops=1.0)

    def alltoall_time(self, nbytes_per_pair: float) -> float:
        """MPI_Alltoall with ``nbytes_per_pair`` to every other rank.

        Bounded by the slower of per-rank injection and the partition's
        bisection bandwidth, plus per-message overheads for the p-1
        exchange rounds.
        """
        p = self.ranks
        if p == 1:
            return 0.0
        # Pairwise exchange (what the DES layer runs for mid/large
        # payloads): p-1 sequential sendrecv rounds.
        pairwise = (p - 1) * self.p2p_time(nbytes_per_pair)
        # Bruck algorithm for small payloads: ceil(log2 p) rounds, each
        # carrying half the aggregate payload — what production MPIs
        # switch to when latency would dominate.
        rounds = math.ceil(math.log2(p))
        bruck = rounds * self.p2p_time(nbytes_per_pair * p / 2.0)
        # Never faster than the bisection allows: half the traffic
        # crosses the worst-case cut in each direction.
        cross = (p * p / 4.0) * nbytes_per_pair
        bis_bw = (
            self._torus.bisection_bandwidth()
            / self.partition.contention_multiplier
        )
        return max(min(pairwise, bruck), cross / bis_bw)

    def gather_time(self, nbytes_per_rank: float) -> float:
        """MPI_Gather: binomial tree, payload doubling toward the root.

        Critical path: one latency per round plus the full (p-1)-rank
        payload through the root's link.
        """
        p = self.ranks
        if p == 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        return rounds * self.p2p_time(0.0) + (
            (p - 1) * nbytes_per_rank / self.p2p_bandwidth
        )

    def scatter_time(self, nbytes_per_rank: float) -> float:
        """MPI_Scatter: the gather path in reverse (same cost)."""
        return self.gather_time(nbytes_per_rank)

    def reduce_scatter_time(self, nbytes_total: float) -> float:
        """MPI_Reduce_scatter of a ``nbytes_total`` vector."""
        p = self.ranks
        if p == 1:
            return self._combine_flops_time(nbytes_total)
        rounds = math.ceil(math.log2(p))
        return (
            rounds * self.p2p_time(0.0)
            + ((p - 1) / p) * nbytes_total / self.p2p_bandwidth
            + self._combine_flops_time(nbytes_total)
        )

    # ------------------------------------------------------------------
    # computation helpers
    # ------------------------------------------------------------------
    def _combine_flops_time(self, nbytes: float) -> float:
        """Time for one rank to combine ``nbytes`` of reduction operands."""
        elems = nbytes / 8.0
        # Reduction combine is memory-streaming work, not peak flops.
        bw = self.mode.stream_bw_per_task
        return 3.0 * nbytes / bw if bw > 0 else elems / self.machine.node.core.peak_flops

    def _local_combine_time(self, nbytes: float) -> float:
        """Pre-combine of the node's task contributions before the tree.

        The node leader streams the peers' vectors at full node memory
        bandwidth (the other tasks are blocked in the collective, so no
        bandwidth sharing applies).
        """
        extra = self.mode.tasks_per_node - 1
        if extra <= 0:
            return 0.0
        return extra * 3.0 * nbytes / self.machine.node.memory.node_stream

    def compute_time(self, flops: float, bytes_moved: float = 0.0) -> float:
        """Roofline time for a per-rank compute region.

        The slower of the flop-limited and memory-limited times, using
        the task's share of node resources for the current mode.
        """
        if flops < 0 or bytes_moved < 0:
            raise ValueError("work quantities must be non-negative")
        peak = self.mode.peak_flops_per_task
        t_flops = flops / peak if peak > 0 else 0.0
        bw = self.mode.stream_bw_per_task
        t_mem = bytes_moved / bw if bw > 0 else 0.0
        return max(t_flops, t_mem)
