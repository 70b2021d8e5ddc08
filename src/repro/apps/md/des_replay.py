"""Replay an MD timestep schedule on the message-level simulator.

Per step: pair-force compute, 6-face ghost exchange, a PME alltoall
among the FFT ranks (approximated over all ranks at scaled payload),
thermo reductions, and — for PMEMD — the periodic coordinate gather.
Cross-validates the Fig. 8 models.
"""

from __future__ import annotations

from typing import Type, TYPE_CHECKING

import numpy as np

from ...machines.specs import MachineSpec
from .models import FLOPS_PER_ATOM, FLOPS_PER_PAIR, MD_SUSTAINED_GFLOPS, MdModel
from .pme import pme_fft_flops
from .system import MdSystem, RUBISCO

if TYPE_CHECKING:  # pragma: no cover - loaded on first replay
    from ..replay import ReplayResult

__all__ = ["replay_steps"]


def replay_steps(
    machine: MachineSpec,
    model_cls: Type[MdModel],
    processes: int,
    system: MdSystem = RUBISCO,
    steps: int = 1,
    mode: str = "VN",
) -> ReplayResult:
    """Run ``steps`` MD timesteps at message level."""
    if processes < 1 or steps < 1:
        raise ValueError("processes and steps must be >= 1")
    model = model_cls(machine, system, mode)
    sustained = MD_SUSTAINED_GFLOPS[machine.name] * 1e9
    atoms = system.n_atoms / processes
    t_pair = (
        atoms * system.pairs_per_atom * FLOPS_PER_PAIR + atoms * FLOPS_PER_ATOM
    ) / sustained
    p_fft = min(processes, model.fft_ranks(processes))
    t_fft = pme_fft_flops(system.pme_grid) / p_fft / sustained
    side = (system.volume / processes) ** (1.0 / 3.0)
    ghost_atoms = atoms * min(1.0, 6.0 * system.outer_cutoff / max(side, 1e-9))
    ghost_bytes = max(1, int(ghost_atoms * 24 / 6))
    grid_bytes = float(np.prod(system.pme_grid)) * 8.0
    pme_per_pair = max(1, int(grid_bytes / processes**2))
    gather_bytes = int(system.n_atoms * 24 / processes)

    def one_step(comm, _layout, step: int):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        yield from comm.compute(seconds=t_pair + t_fft)
        # Ghost exchange: 6 directional messages approximated as a
        # ring exchange repeated 3x (one per dimension).
        for d in range(3):
            tag = 100 * step + 10 * d
            reqs = [
                comm.irecv(src=left, tag=tag),
                comm.irecv(src=right, tag=tag + 1),
                comm.isend(right, ghost_bytes, tag=tag),
                comm.isend(left, ghost_bytes, tag=tag + 1),
            ]
            yield from comm.waitall(reqs)
        yield from comm.alltoall(pme_per_pair)  # PME transpose
        for _ in range(model.reductions_per_step):
            yield from comm.allreduce(64, dtype="float64")
        if model.output_interval and (step % model.output_interval == 0):
            yield from comm.gather(gather_bytes, root=0)

    from ..replay import replay

    return replay(machine, processes, steps, one_step, mode=mode)
