"""Dataclass descriptions of the machines under evaluation.

These encode exactly the quantities the paper's Table 1 records (plus
the power figures of Table 3 and the latency/bandwidth characteristics
discussed in Section II), so that every derived result is a function of
documented hardware parameters rather than magic constants scattered
through benchmark code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

__all__ = [
    "CacheLevel",
    "MemorySpec",
    "CoreSpec",
    "NodeSpec",
    "TorusSpec",
    "TreeSpec",
    "MpiSpec",
    "PowerSpec",
    "FaultSpec",
    "MachineSpec",
    "CoherenceKind",
    "GB",
    "MB",
    "KB",
    "GFLOP",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
GFLOP = 1e9


class CoherenceKind(str, Enum):
    """How L1 coherence is maintained (Table 1, 'Cache Coherence')."""

    SOFTWARE = "software"  # BG/L
    HARDWARE = "hardware"  # BG/P, all XTs


@dataclass(frozen=True)
class CacheLevel:
    """One level of the on-node cache hierarchy."""

    size_bytes: int
    shared: bool  # shared by all cores on the node?
    line_bytes: int = 64
    #: effective bandwidth to the level below it, bytes/s (0 = unmodeled)
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("cache line size must be a positive power of two")


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory configuration of a node.

    Two sustained-bandwidth calibration points accompany the peak:
    what one core can stream alone, and what all cores streaming
    together achieve.  These reproduce the paper's Table 2 STREAM
    observation (BG/P: higher absolute bandwidth per process and a
    smaller single->embarrassingly-parallel decline than the XT).
    """

    capacity_bytes: int
    #: peak main-memory bandwidth, bytes/s (Table 1 'Main Memory Bandwidth')
    peak_bandwidth: float
    #: STREAM triad bandwidth one core achieves alone, bytes/s
    single_core_stream: float = 0.0
    #: STREAM triad bandwidth all cores achieve together, bytes/s
    node_stream: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.peak_bandwidth <= 0:
            raise ValueError("memory capacity and bandwidth must be positive")
        if self.single_core_stream == 0.0:
            object.__setattr__(self, "single_core_stream", 0.35 * self.peak_bandwidth)
        if self.node_stream == 0.0:
            object.__setattr__(self, "node_stream", 0.70 * self.peak_bandwidth)
        if self.node_stream > self.peak_bandwidth + 1e-9:
            raise ValueError("sustained node STREAM cannot exceed peak bandwidth")

    @property
    def stream_bandwidth(self) -> float:
        """Achievable whole-node STREAM bandwidth in bytes/s."""
        return self.node_stream

    def stream_per_process(self, processes_per_node: int) -> float:
        """Per-process STREAM bandwidth with ``processes_per_node`` streaming.

        One process gets :attr:`single_core_stream`; at full node
        occupancy each gets an equal share of :attr:`node_stream`;
        intermediate counts interpolate via the min of the two regimes.
        """
        if processes_per_node < 1:
            raise ValueError("processes_per_node must be >= 1")
        return min(self.single_core_stream, self.node_stream / processes_per_node)


@dataclass(frozen=True)
class CoreSpec:
    """A single processor core."""

    clock_hz: float
    flops_per_cycle: int  # double-precision results per cycle
    #: sustained fraction of peak for tuned dense kernels (DGEMM/HPL)
    dgemm_efficiency: float = 0.90

    @property
    def peak_flops(self) -> float:
        """Peak double-precision flop/s of one core."""
        return self.clock_hz * self.flops_per_cycle


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: cores, caches, memory."""

    cores: int
    core: CoreSpec
    l1: CacheLevel
    l2: Optional[CacheLevel]
    l3: Optional[CacheLevel]
    memory: MemorySpec
    coherence: CoherenceKind

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a node needs at least one core")

    @property
    def peak_flops(self) -> float:
        """Peak node flop/s (Table 1 'Peak Performance per node')."""
        return self.cores * self.core.peak_flops


@dataclass(frozen=True)
class TorusSpec:
    """The 3-D torus (BG) or 3-D mesh/torus (XT SeaStar) network."""

    #: per-link, per-direction bandwidth in bytes/s
    link_bandwidth: float
    #: links per node (6 for a 3-D torus)
    links_per_node: int
    #: per-hop router latency in seconds
    hop_latency: float
    #: can a single message stripe across multiple links? (XT SeaStar
    #: effectively yes via its single fat pipe; BG/P torus no — one
    #: deterministic route per message unless adaptive routing is used)
    single_stream_links: int = 1
    #: per-node injection cap in bytes/s bidirectional (0 = no cap beyond
    #: the aggregate link bandwidth).  On the XTs the HyperTransport link
    #: between Opteron and SeaStar caps injection at 6.4 GB/s even though
    #: the SeaStar's own links are faster (Table 1).
    injection_cap: float = 0.0

    @property
    def injection_bandwidth(self) -> float:
        """Aggregate per-node bidirectional injection bandwidth, bytes/s.

        Table 1 'Torus Injection Bandwidth': 5.1 GB/s for BG/P
        (6 links x 425 MB/s x 2 directions), 6.4 GB/s for the XTs
        (HyperTransport-capped).
        """
        aggregate = self.link_bandwidth * self.links_per_node * 2
        return min(aggregate, self.injection_cap) if self.injection_cap else aggregate

    @property
    def single_stream_bandwidth(self) -> float:
        """Best-case bandwidth for one point-to-point message, bytes/s."""
        return self.link_bandwidth * self.single_stream_links


@dataclass(frozen=True)
class TreeSpec:
    """The BG global collective (tree) network.  ``None`` on the XTs."""

    #: per-link, per-direction bandwidth in bytes/s (850 MB/s on BG/P)
    link_bandwidth: float
    #: links per node (3 on BG/P)
    links_per_node: int
    #: per-tree-level latency in seconds
    hop_latency: float
    #: the tree ALU reduces these dtypes at wire speed
    hardware_reduce_dtypes: Tuple[str, ...] = ("int32", "int64", "float64")

    def supports_reduce(self, dtype: str) -> bool:
        """Whether the tree can combine ``dtype`` in hardware.

        Section II.B.2 of the paper observed a *substantial* benefit for
        double- over single-precision Allreduce on BG/P: the tree ALU
        handles doubles natively while single precision takes a software
        path.  Encoded here.
        """
        return dtype in self.hardware_reduce_dtypes


@dataclass(frozen=True)
class MpiSpec:
    """MPI-software characteristics measured at the application level."""

    #: zero-byte one-way latency in seconds (ping-pong / 2)
    latency: float
    #: per-message CPU send overhead in seconds (LogGP 'o_s')
    send_overhead: float
    #: per-message CPU receive overhead in seconds (LogGP 'o_r')
    recv_overhead: float
    #: eager-to-rendezvous protocol switch point in bytes
    eager_threshold: int
    #: extra round-trip cost a rendezvous handshake incurs, seconds
    rendezvous_overhead: float

    def __post_init__(self) -> None:
        for name in ("latency", "send_overhead", "recv_overhead"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PowerSpec:
    """Wall-plug power characteristics (paper Table 3).

    Power is attributed per core and includes the pro-rated share of
    memory, interconnect, storage and peripherals, exactly as the
    paper's 'Measured Aggregate Power' does.
    """

    #: watts per core while running HPL (stress)
    hpl_watts_per_core: float
    #: watts per core under normal scientific workloads
    normal_watts_per_core: float
    #: watts per core while idle (not in the paper; estimated fraction)
    idle_fraction: float = 0.6

    @property
    def idle_watts_per_core(self) -> float:
        return self.normal_watts_per_core * self.idle_fraction

    def aggregate(self, cores: int, kind: str = "normal") -> float:
        """Total watts for ``cores`` cores under the given workload kind."""
        per = {
            "hpl": self.hpl_watts_per_core,
            "normal": self.normal_watts_per_core,
            "idle": self.idle_watts_per_core,
        }[kind]
        return per * cores


@dataclass(frozen=True)
class FaultSpec:
    """Reliability characteristics feeding the fault-injection layer.

    The paper's central trade (Section I): BlueGene exchanges clock
    speed for *density and reliability* — fewer, cooler, simpler parts
    per flop.  These MTBFs are per-component, so the system-level rate
    scales with partition size (``mtbf_system = mtbf_node / nodes``),
    which is exactly why checkpoint/restart economics differ across the
    Table 1 machines at 8k-40k cores.
    """

    #: mean time between failures of one compute node, hours
    node_mtbf_hours: float = 1.0e6
    #: mean time between failures of one torus link (cable+SerDes), hours
    link_mtbf_hours: float = 5.0e6
    #: time to restart a failed job from its last checkpoint, beyond
    #: re-reading the checkpoint itself (scheduler + boot), seconds
    restart_overhead_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.node_mtbf_hours <= 0 or self.link_mtbf_hours <= 0:
            raise ValueError("MTBFs must be positive")
        if self.restart_overhead_seconds < 0:
            raise ValueError("restart overhead must be non-negative")

    def system_mtbf_seconds(self, nodes: int) -> float:
        """MTBF of an ``nodes``-node partition (node failures only)."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        return self.node_mtbf_hours * 3600.0 / nodes


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine: node + networks + power + scale."""

    name: str
    node: NodeSpec
    torus: TorusSpec
    tree: Optional[TreeSpec]
    mpi: MpiSpec
    power: PowerSpec
    #: cores per rack (density comparison in Section I.A)
    cores_per_rack: int
    #: total nodes in the installation being modeled
    total_nodes: int
    #: fraction of peak flops HPL sustains (Table 3: Rmax / Rpeak)
    hpl_efficiency: float = 0.785
    #: does the allocator hand out contiguous partitions? (BG yes, XT no —
    #: source of the PTRANS variability in Fig. 1c)
    contiguous_allocation: bool = True
    #: reliability parameters for fault injection and checkpoint modeling
    faults: FaultSpec = FaultSpec()

    def __post_init__(self) -> None:
        if not (0 < self.hpl_efficiency <= 1):
            raise ValueError("hpl_efficiency must be in (0, 1]")

    # -- derived quantities used throughout the benches ------------------
    @property
    def total_cores(self) -> int:
        return self.total_nodes * self.node.cores

    @property
    def peak_flops_per_core(self) -> float:
        return self.node.core.peak_flops

    @property
    def peak_flops_total(self) -> float:
        return self.total_nodes * self.node.peak_flops

    @property
    def watts_per_gflop_peak(self) -> float:
        """Peak W/GFlop/s (Section I.A quotes 1.8 for the BG/P SoC+system)."""
        return (
            self.power.hpl_watts_per_core
            / (self.node.core.peak_flops / 1e9)
        )

    def with_nodes(self, total_nodes: int) -> "MachineSpec":
        """A copy of this machine scaled to a different installation size."""
        return replace(self, total_nodes=total_nodes)

    def torus_shape(self, nodes: int) -> Tuple[int, int, int]:
        """A plausible 3-D torus shape for a partition of ``nodes`` nodes.

        BG partitions come in torus shapes whose product is the node
        count; we factor into the most-cubic shape with power-of-two-ish
        dimensions, matching how BG/P midplanes compose (8x8x8 per
        midplane, doubled along axes).  The shape depends on ``nodes``
        alone, so every machine shares one memo (:func:`_torus_shape`).
        """
        return _torus_shape(nodes)


#: Distinct partition sizes :func:`_torus_shape` remembers.  A campaign
#: or a paper run asks for a few dozen; the bound only caps a sweep
#: over every size a machine allows.
TORUS_SHAPE_CACHE_SIZE = 1024


@lru_cache(maxsize=TORUS_SHAPE_CACHE_SIZE, typed=True)
def _torus_shape(nodes: int) -> Tuple[int, int, int]:
    """The most-cubic factorization of ``nodes`` (see
    :meth:`MachineSpec.torus_shape`).

    ``lru_cache`` does not cache exceptions, so ``nodes < 1`` raises on
    every call; ``typed`` keeps an ``np.int64`` size apart from an
    ``int`` one, so each caller gets back the element types it always got.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    best = (nodes, 1, 1)
    best_score = float("inf")
    x = 1
    while x * x * x <= nodes * 4:  # allow slightly non-cubic search
        if nodes % x == 0:
            rem = nodes // x
            y = 1
            while y * y <= rem * 2:
                if rem % y == 0:
                    z = rem // y
                    dims = tuple(sorted((x, y, z), reverse=True))
                    score = max(dims) / max(1, min(dims))
                    if score < best_score:
                        best_score = score
                        best = dims
                y += 1
        x += 1
    return best  # type: ignore[return-value]
