"""The contended network link of the simulation.

:class:`SerialLink` is a bandwidth-serialized pipe: each transfer
occupies the link for ``bytes / bandwidth`` seconds, and transfers are
FIFO.  It models a directed network link (a torus hop) and records
occupancy statistics for utilisation reports.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["SerialLink"]


class SerialLink:
    """A directed link with finite bandwidth and per-hop latency.

    Transfers are serialized: a transfer that arrives while the link is
    busy waits until all earlier transfers have drained.  This is the
    classic store-level contention model — accurate enough to reproduce
    mapping/contention effects (paper Fig. 2c,d) without flit-level cost.
    :meth:`book` reserves the link for one transit and schedules nothing.
    """

    __slots__ = (
        "env",
        "bandwidth",
        "latency",
        "name",
        "_free_at",
        "busy_time",
        "transfers",
        "bytes_carried",
        "observer",
    )

    def __init__(
        self,
        env: "Engine",
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.env = env
        #: bytes per second
        self.bandwidth = float(bandwidth)
        #: seconds added per transfer (router/wire latency)
        self.latency = float(latency)
        self.name = name
        self._free_at = 0.0
        #: cumulative seconds the link spent transferring
        self.busy_time = 0.0
        #: number of transfers carried
        self.transfers = 0
        #: total payload bytes carried
        self.bytes_carried = 0
        #: optional per-transfer telemetry hook
        #: ``observer(nbytes, start, wait, duration)`` — ``wait`` is the
        #: contention stall before the head could enter the link.  The
        #: observability layer plugs in here; ``None`` costs nothing.
        self.observer: Optional[Any] = None

    def book(self, nbytes: float, earliest: float) -> Tuple[float, float]:
        """Reserve the link for a cut-through transit without an event.

        ``earliest`` is when the message head can arrive at this link.
        Returns ``(head_start, tail_done)``: when the head actually
        starts crossing (after queued traffic drains) and when the tail
        has left.  Used by the MPI transport to book a whole route and
        schedule a single delivery event.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        start = max(earliest, self._free_at)
        duration = nbytes / self.bandwidth
        self._free_at = start + duration
        self.busy_time += duration
        self.transfers += 1
        self.bytes_carried += int(nbytes)
        if self.observer is not None:
            self.observer(float(nbytes), start, start - earliest, duration)
        return start + self.latency, start + self.latency + duration

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: sim time so far) spent busy."""
        t = self.env.now if elapsed is None else elapsed
        return 0.0 if t <= 0 else min(1.0, self.busy_time / t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SerialLink {self.name or id(self):} bw={self.bandwidth:.3g}B/s "
            f"lat={self.latency:.3g}s transfers={self.transfers}>"
        )
