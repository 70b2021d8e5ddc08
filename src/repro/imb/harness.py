"""Intel MPI Benchmark (IMB) style collective-latency harness.

Paper Section II.B.2 / Figure 3: IMB Allreduce and Bcast latency,
measured (a/c) across message sizes at 8192 processes and (b/d) across
process counts at 32 KB, comparing BG/P (VN mode) with the XT4/QC —
including the single- vs double-precision Allreduce experiment (the
custom IMB variant the authors wrote).

The harness produces latency curves from the analytic model (the scale
of Fig. 3 is 8192 processes) and can cross-check any point against the
message-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..machines.modes import Mode
from ..machines.specs import MachineSpec
from ..simmpi import Cluster, CostModel

__all__ = ["ImbPoint", "ImbBenchmark", "DEFAULT_SIZES", "DEFAULT_PROC_COUNTS"]

#: IMB's default size ladder (bytes), powers of four like Fig. 3a/c.
DEFAULT_SIZES: Sequence[int] = tuple(4**k for k in range(1, 11))

#: Process counts for the scaling panels (Fig. 3b/d).
DEFAULT_PROC_COUNTS: Sequence[int] = (16, 64, 256, 1024, 4096, 8192)


@dataclass(frozen=True)
class ImbPoint:
    """One point of an IMB latency curve."""

    machine: str
    operation: str
    dtype: str
    processes: int
    nbytes: int
    latency_us: float


class ImbBenchmark:
    """Allreduce/Bcast latency curves on one machine."""

    def __init__(self, machine: MachineSpec, mode: Mode | str = "VN") -> None:
        self.machine = machine
        self.mode = mode
        #: the analytic model of each process count swept so far; the
        #: points at one count share its partition
        self._costs: Dict[int, CostModel] = {}

    # -- analytic curves -------------------------------------------------
    def _one(self, op: str, processes: int, nbytes: int, dtype: str) -> ImbPoint:
        cost = self._costs.get(processes)
        if cost is None:
            cost = self._costs[processes] = CostModel(self.machine, self.mode, processes)
        if op == "allreduce":
            t = cost.allreduce_time(nbytes, dtype=dtype)
        elif op == "bcast":
            t = cost.bcast_time(nbytes, dtype=dtype)
        else:
            raise ValueError(f"unknown operation {op!r}")
        return ImbPoint(
            machine=self.machine.name,
            operation=op,
            dtype=dtype,
            processes=processes,
            nbytes=nbytes,
            latency_us=t * 1e6,
        )

    def size_sweep(
        self,
        op: str,
        processes: int = 8192,
        sizes: Sequence[int] = DEFAULT_SIZES,
        dtype: str = "float64",
    ) -> List[ImbPoint]:
        """Latency vs message size at fixed process count (Fig. 3a/c)."""
        return [self._one(op, processes, n, dtype) for n in sizes]

    def process_sweep(
        self,
        op: str,
        nbytes: int = 32 * 1024,
        proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
        dtype: str = "float64",
    ) -> List[ImbPoint]:
        """Latency vs process count at fixed 32 KB payload (Fig. 3b/d)."""
        return [self._one(op, p, nbytes, dtype) for p in proc_counts]

    # -- message-level cross-check ------------------------------------------
    def measure_des(
        self, op: str, processes: int, nbytes: int, dtype: str = "float64"
    ) -> ImbPoint:
        """Run the collective in the simulator and report its latency."""

        def program(comm):
            if op == "allreduce":
                yield from comm.allreduce(nbytes, dtype=dtype)
            elif op == "bcast":
                yield from comm.bcast(nbytes, root=0, dtype=dtype)
            else:
                raise ValueError(f"unknown operation {op!r}")

        cluster = Cluster(self.machine, ranks=processes, mode=self.mode)
        res = cluster.run(program)
        return ImbPoint(
            machine=self.machine.name,
            operation=op,
            dtype=dtype,
            processes=processes,
            nbytes=nbytes,
            latency_us=res.elapsed * 1e6,
        )
