"""HALO benchmark harness: DES runs + static-congestion analytic model.

The paper's Figure 2 sweeps halo sizes from a few words to ~10^5 words
on up to 8192 cores and eight process-to-processor mappings.  Message-
level simulation of every point would be needlessly slow, so the
harness offers two evaluators sharing the machine model:

* :meth:`HaloBenchmark.run_des` — message-level simulation (used at
  small scale and by the validation tests);
* :meth:`HaloBenchmark.time_analytic` — static congestion analysis:
  load every directed torus link with the phase's traffic, find the
  most-loaded link, and combine the bandwidth term with the per-message
  overhead/latency terms.  The loads come from numpy arrays over all
  ranks: node coordinates from :meth:`Mapping.node_coords`, periodic
  peers, and one pass per torus dimension, in which every message's
  dimension-order route is a run of links on one ring, summed into
  per-ring difference arrays.  Link loads scale linearly with the halo
  width, so this analysis runs once per benchmark and serves its whole
  sweep.  Fig. 2 shares one benchmark per (grid, mode, mapping) across
  its panels, so there it runs once per configuration.

The mapping sensitivity of Fig. 2c/d emerges from the congestion
analysis: mappings that fold the virtual process grid badly onto the
torus concentrate halo traffic onto few links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..machines.modes import Mode, resolve_mode
from ..machines.specs import MachineSpec
from ..simmpi import Cluster
from ..simmpi.cost import CostModel
from ..topology.mapping import Mapping
from ..topology.partition import allocate
from .exchange import halo_program, HaloSpec, WORD_BYTES
from .protocols import get_protocol

__all__ = ["HaloBenchmark", "HaloPoint", "best_mapping"]


@dataclass(frozen=True)
class HaloPoint:
    """One point of a HALO curve."""

    machine: str
    grid: Tuple[int, int]
    mapping: str
    words: int
    protocol: str
    seconds: float


@dataclass(frozen=True)
class _PhaseShape:
    """Mapping-dependent structure of one exchange phase (unit halo)."""

    #: most-loaded directed link, in units of N words
    max_link_units: float
    #: longest route among the phase's messages, in hops
    max_hops: int
    #: number of network (inter-node) messages the busiest rank sends
    net_msgs: int
    #: number of shared-memory messages the busiest rank sends
    shm_msgs: int


class HaloBenchmark:
    """HALO on one machine/mode/grid/mapping configuration."""

    def __init__(
        self,
        machine: MachineSpec,
        grid: Tuple[int, int],
        mode: Mode | str = "VN",
        mapping: str = "TXYZ",
    ) -> None:
        self.machine = machine
        self.grid = grid
        self.mode = resolve_mode(machine, mode)
        self.mapping_name = mapping.upper()
        ranks = grid[0] * grid[1]
        nodes = self.mode.nodes_for_ranks(ranks)
        self.partition = allocate(machine, nodes)
        self.mapping = Mapping(
            self.mapping_name, self.partition.torus_shape, self.mode.tasks_per_node
        )
        if self.mapping.size < ranks:
            raise ValueError(
                f"grid {grid} needs {ranks} ranks; mapping offers {self.mapping.size}"
            )
        self.ranks = ranks
        self.cost = CostModel(machine, self.mode.mode, ranks, partition=self.partition)
        self._phases: Optional[List[_PhaseShape]] = None

    # ------------------------------------------------------------------
    # analytic path
    # ------------------------------------------------------------------
    def _analyze_phases(self) -> List[_PhaseShape]:
        """Link loads and message mix of both phases (unit halo width).

        Every rank sends a weight-1 message to its north (west) peer and
        a weight-2 one to its south (east) peer.  Each message follows
        its dimension-order route (X, Y, Z; shortest wrap, ties ``+``;
        extent-1 dimensions skipped), and each hop adds the message's
        weight to the directed link ``(node, dim, direction)`` out of
        the node the hop leaves.

        In one dimension a message crosses a run of ``h`` consecutive
        links of one ring.  The ring is fixed by the direction and by
        the other two coordinates: dimensions already routed are at the
        destination, later ones still at the source.  Going ``+`` the
        run starts at the message's coordinate ``c``; going ``-`` it
        ends there.  Each ring keeps a difference array over two laps
        of its links, so no run wraps: a run adds its weight at its
        first link and takes it off one past its last.  A running sum
        gives each link's load as the sum of its two laps.
        """
        if self._phases is not None:
            return self._phases
        px, py = self.grid
        n = self.ranks
        # Coordinates, hop counts and ring slots are small: int32 halves
        # the memory traffic of every pass.
        rank = np.arange(n, dtype=np.int32)
        i, j = rank % px, rank // px
        phase_peers = (
            ((j - 1) % py * px + i, (j + 1) % py * px + i),  # north, south
            (j * px + (i - 1) % px, j * px + (i + 1) % px),  # west, east
        )
        shape = self.partition.torus_shape
        # x, y and z of every rank's node; a peer's node is read by rank
        node = np.ascontiguousarray(self.mapping.node_coords(rank).T, dtype=np.int32)
        src = [np.concatenate([c, c]) for c in node]
        # each run's weight at its first link, and off again past its last
        signed = np.repeat([1.0, 2.0, -1.0, -2.0], n)
        phases = []
        for near, far in phase_peers:
            peer = np.concatenate([near, far])
            dst = [c[peer] for c in node]
            hops = np.zeros(2 * n, dtype=np.int32)
            max_load = 0.0
            for dim, ext in enumerate(shape):
                if ext == 1:
                    continue
                # where each message stands when it turns into this dim
                at = dst[:dim] + src[dim:]
                c = at[dim]
                delta = dst[dim] - c
                delta += ext * (delta < 0)
                forward = delta <= ext - delta
                h = np.where(forward, delta, ext - delta)
                hops += h
                # One row of two laps and an end slot per ring: the other
                # two coordinates, then the direction (0 is +, 1 is -).
                # A message that stays put takes off its weight in the
                # slot it adds it to.
                a, b = (k for k in range(3) if k != dim)
                width = 2 * ext + 1
                first = ((at[b] * shape[a] + at[a]) * 2 + ~forward) * width
                first += np.where(forward, c, c + ext + 1 - h)
                diff = np.bincount(
                    np.concatenate([first, first + h]),
                    signed,
                    minlength=2 * shape[a] * shape[b] * width,
                )
                # Every row sums to zero, so one running sum serves all.
                run = np.cumsum(diff).reshape(-1, width)
                max_load = max(max_load, (run[:, :ext] + run[:, ext:-1]).max())
            shm = (hops[:n] == 0).astype(int) + (hops[n:] == 0)
            phases.append(
                _PhaseShape(
                    max_link_units=float(max_load),
                    max_hops=int(hops.max()),
                    net_msgs=int((2 - shm).max()),
                    shm_msgs=int(shm.max()),
                )
            )
        self._phases = phases
        return phases

    def time_analytic(self, words: int, protocol: str = "ISEND_IRECV") -> float:
        """Predicted seconds for one full (two-phase) exchange."""
        if words < 1:
            raise ValueError("words must be >= 1")
        proto = get_protocol(protocol)
        mpi = self.machine.mpi
        link_bw = (
            self.machine.torus.link_bandwidth
            / self.partition.contention_multiplier
        )
        total = 0.0
        for shape in self._analyze_phases():
            n_bytes = words * WORD_BYTES  # north/west message
            s_bytes = 2 * words * WORD_BYTES  # south/east message
            biggest = s_bytes
            msgs = shape.net_msgs + shape.shm_msgs
            overhead = msgs * (mpi.send_overhead + mpi.recv_overhead)
            overhead += msgs * 2 * proto.setup_overhead
            if biggest > mpi.eager_threshold:
                overhead += shape.net_msgs * mpi.rendezvous_overhead
            latency = mpi.latency + shape.max_hops * self.machine.torus.hop_latency
            # Bandwidth terms: contended links, own injection, shm copies.
            t_link = shape.max_link_units * words * WORD_BYTES / link_bw
            own_bytes = (n_bytes + s_bytes) * (shape.net_msgs / 2.0)
            t_inject = own_bytes / self.cost.p2p_bandwidth
            t_shm = (
                shape.shm_msgs * (n_bytes + s_bytes) / 2.0
            ) / self.cost.shm_bandwidth()
            transfer = max(t_link, t_inject) + t_shm
            if proto.serializes:
                # Sendrecv pairs run back to back: two latency charges
                # and no overlap between the two directions.
                total += overhead + 2 * latency + transfer * 1.15
            else:
                total += overhead + latency + transfer
        return total

    # ------------------------------------------------------------------
    # message-level path
    # ------------------------------------------------------------------
    def run_des(
        self, words: int, protocol: str = "ISEND_IRECV", iterations: int = 1
    ) -> float:
        """Simulate the exchange at message level; mean seconds/iteration."""
        spec = HaloSpec(grid=self.grid, words=words)
        proto = get_protocol(protocol)
        cluster = Cluster(
            self.machine,
            ranks=self.ranks,
            mode=self.mode.mode,
            mapping=self.mapping_name,
            partition=self.partition,
        )
        res = cluster.run(halo_program, spec, proto, iterations)
        return max(res.returns) / iterations

    # ------------------------------------------------------------------
    def sweep(
        self,
        words_list: List[int],
        protocol: str = "ISEND_IRECV",
    ) -> List[HaloPoint]:
        """Analytic sweep over halo widths (one Fig. 2 curve)."""
        return [
            HaloPoint(
                machine=self.machine.name,
                grid=self.grid,
                mapping=self.mapping_name,
                words=w,
                protocol=protocol,
                seconds=self.time_analytic(w, protocol),
            )
            for w in words_list
        ]


def best_mapping(
    machine: MachineSpec,
    grid: Tuple[int, int],
    words: int,
    mappings: List[str],
    mode: Mode | str = "VN",
) -> Tuple[str, float]:
    """The cheapest mapping for a configuration (Fig. 2e/f uses this)."""
    best: Tuple[str, float] | None = None
    for name in mappings:
        t = HaloBenchmark(machine, grid, mode=mode, mapping=name).time_analytic(words)
        if best is None or t < best[1]:
            best = (name, t)
    assert best is not None
    return best
