"""Replay CAM's per-step schedule on the message-level simulator.

Spectral dycore: compute + two transform transposes (alltoall) + one
spectral-sum allreduce per step.  FV dycore: compute + six halo sweeps
+ one small allreduce.  Cross-validates the Fig. 5 model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...halo.exchange import neighbors2d
from ...machines.specs import MachineSpec
from .model import CAM_SUSTAINED_GFLOPS, CamBenchmark
from .physics import PhysicsLoadModel

if TYPE_CHECKING:  # pragma: no cover - loaded on first replay
    from ..replay import ReplayResult

__all__ = ["replay_steps"]


def replay_steps(
    machine: MachineSpec,
    benchmark: CamBenchmark,
    tasks: int,
    steps: int = 1,
    load_balanced: bool = True,
) -> ReplayResult:
    """Run ``steps`` CAM timesteps at message level (pure MPI, VN)."""
    if tasks < 1 or steps < 1:
        raise ValueError("tasks and steps must be >= 1")
    tasks = min(tasks, benchmark.mpi_rank_limit)
    sustained = CAM_SUSTAINED_GFLOPS[benchmark.dycore][machine.name] * 1e9
    pts = benchmark.points3d / tasks
    t_compute = (
        pts
        * benchmark.flops_per_point
        / sustained
        * PhysicsLoadModel().imbalance(load_balanced)
    )
    if benchmark.dycore == "spectral":
        state_bytes = benchmark.points3d * 8 * 4
        per_pair = max(1, int(state_bytes / tasks**2))
    else:
        halo_bytes = int(benchmark.nlon * benchmark.nlev * 8 * 2)

    def one_step(comm, grid, step: int):
        yield from comm.compute(seconds=t_compute)
        if benchmark.dycore == "spectral":
            yield from comm.alltoall(per_pair)
            yield from comm.alltoall(per_pair)
            yield from comm.allreduce(2048, dtype="float64")
        else:
            nb = neighbors2d(comm.rank, grid)
            for sweep in range(6):
                tag = 100 * step + 10 * sweep
                reqs = [
                    comm.irecv(src=nb["north"], tag=tag),
                    comm.irecv(src=nb["south"], tag=tag + 1),
                    comm.isend(nb["south"], halo_bytes, tag=tag),
                    comm.isend(nb["north"], halo_bytes, tag=tag + 1),
                ]
                yield from comm.waitall(reqs)
            yield from comm.allreduce(256, dtype="float64")

    from ..replay import replay

    # 1-D latitude decomposition for the FV halo ring.
    return replay(machine, tasks, steps, one_step, lambda n: (1, n), mode="VN")
