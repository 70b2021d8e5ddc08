"""Replay S3D's per-step schedule on the message-level simulator.

Per RK stage: a compute block, then the 6-face ghost exchange of all
conserved variables (non-blocking sends/receives among nearest
neighbours in the 3-D processor topology — Section III.C); per step:
one small monitoring allreduce.  Cross-validates the Fig. 6 weak-
scaling model against the simulated network.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, TYPE_CHECKING

from ...machines.specs import MachineSpec
from .chemistry import CHEM_FLOPS_PER_POINT
from .model import FLOPS_PER_POINT_PER_STAGE, N_VARS, S3D_SUSTAINED_GFLOPS
from .rk import RK_STAGES
from .stencil import DERIV_WIDTH

if TYPE_CHECKING:  # pragma: no cover - loaded on first replay
    from ..replay import ReplayResult

__all__ = ["replay_steps"]


def _proc_grid(processes: int) -> Tuple[int, int, int]:
    """The most-cubic 3-D processor decomposition."""
    best = (processes, 1, 1)
    score = float("inf")
    x = 1
    while x <= processes:
        if processes % x == 0:
            rem = processes // x
            y = 1
            while y <= rem:
                if rem % y == 0:
                    dims = (x, y, rem // y)
                    s = max(dims) / min(dims)
                    if s < score:
                        score = s
                        best = dims
                y += 1
        x += 1
    return best


def _neighbors3d(rank: int, dims: Tuple[int, int, int]) -> Dict[str, int]:
    px, py, pz = dims
    i = rank % px
    j = (rank // px) % py
    k = rank // (px * py)

    def at(ii, jj, kk):
        return (ii % px) + (jj % py) * px + (kk % pz) * px * py

    return {
        "xm": at(i - 1, j, k),
        "xp": at(i + 1, j, k),
        "ym": at(i, j - 1, k),
        "yp": at(i, j + 1, k),
        "zm": at(i, j, k - 1),
        "zp": at(i, j, k + 1),
    }


def replay_steps(
    machine: MachineSpec,
    processes: int,
    edge: int = 50,
    steps: int = 1,
    mode: str = "VN",
    faults: Any = None,
    reliability: Any = None,
    recovery: Any = None,
) -> ReplayResult:
    """Run ``steps`` S3D timesteps at message level.

    ``recovery`` (a :class:`~repro.recovery.RecoveryPolicy`) arms
    ULFM-style failure handling: shrink-mode survivors re-decompose the
    3-D processor grid over the live ranks and continue (the grid keeps
    ``edge**3`` points per rank — S3D weak-scales, so losing ranks
    shrinks the domain rather than growing the per-rank block);
    restart-mode jobs rewind to the last completed checkpoint.
    """
    if processes < 1 or steps < 1:
        raise ValueError("processes and steps must be >= 1")
    sustained = S3D_SUSTAINED_GFLOPS[machine.name] * 1e9
    points = edge**3
    t_stage = points * FLOPS_PER_POINT_PER_STAGE / sustained
    t_chem = points * CHEM_FLOPS_PER_POINT / sustained
    face_bytes = int(DERIV_WIDTH * edge * edge * 8 * N_VARS)
    pairs = (("xm", "xp"), ("ym", "yp"), ("zm", "zp"))

    def one_step(comm, dims: Tuple[int, int, int], step: int):
        nb = _neighbors3d(comm.rank, dims)
        for stage in range(RK_STAGES):
            yield from comm.compute(seconds=t_stage)
            tag = 100 * step + 10 * stage
            reqs = []
            for d, (lo, hi) in enumerate(pairs):
                reqs.append(comm.irecv(src=nb[lo], tag=tag + 2 * d))
                reqs.append(comm.irecv(src=nb[hi], tag=tag + 2 * d + 1))
            for d, (lo, hi) in enumerate(pairs):
                reqs.append(comm.isend(nb[hi], face_bytes, tag=tag + 2 * d))
                reqs.append(comm.isend(nb[lo], face_bytes, tag=tag + 2 * d + 1))
            yield from comm.waitall(reqs)
        yield from comm.compute(seconds=t_chem)
        yield from comm.allreduce(64, dtype="float64")  # monitoring

    from ..replay import replay

    return replay(
        machine, processes, steps, one_step, _proc_grid, mode=mode,
        faults=faults, reliability=reliability, recovery=recovery,
    )
