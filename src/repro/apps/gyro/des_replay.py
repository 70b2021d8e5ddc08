"""Replay GYRO's per-step schedule on the message-level simulator.

Per step: distribution-function compute, ``transposes_per_step``
MPI_ALLTOALLs (the FFT field-solve transposes of Section III.D), and
the small collision/diagnostic reductions.  Cross-validates the Fig. 7
model, in particular the mechanism tests care about: the alltoall and
allreduce costs that separate the machines at scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...machines.specs import MachineSpec
from .fieldsolve import fieldsolve_flops
from .grid5d import B1_STD, GyroProblem
from .model import GYRO_SUSTAINED_GFLOPS, UNOPTIMIZED_ALLTOALL_PENALTY

if TYPE_CHECKING:  # pragma: no cover - loaded on first replay
    from ..replay import ReplayResult

__all__ = ["replay_steps"]


def replay_steps(
    machine: MachineSpec,
    processes: int,
    problem: GyroProblem = B1_STD,
    steps: int = 1,
    mode: str = "VN",
) -> ReplayResult:
    """Run ``steps`` GYRO timesteps at message level."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not problem.valid_process_count(processes):
        raise ValueError(
            f"{problem.name} runs on multiples of {problem.n_toroidal}"
        )
    sustained = GYRO_SUSTAINED_GFLOPS[machine.name] * 1e9
    t_compute = (
        problem.points * problem.flops_per_point / processes
        + fieldsolve_flops(problem.n_radial, problem.n_toroidal) / processes
    ) / sustained
    per_pair = max(1, int(problem.points * 8.0 / processes**2))
    # The paper's BG/P runs lacked the optimized alltoall; replay the
    # penalty as extra payload so the DES carries it too.
    if machine.name == "BG/P":
        per_pair = int(per_pair * UNOPTIMIZED_ALLTOALL_PENALTY)

    def one_step(comm, _layout, _step: int):
        yield from comm.compute(seconds=t_compute)
        for _t in range(problem.transposes_per_step):
            yield from comm.alltoall(per_pair)
        for _r in range(problem.reductions_per_step):
            yield from comm.allreduce(problem.reduction_bytes, dtype="float64")

    from ..replay import replay

    return replay(machine, processes, steps, one_step, mode=mode)
