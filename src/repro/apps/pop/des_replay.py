"""Replay POP's per-step communication schedule on the message-level
simulator.

The analytic :class:`~repro.apps.pop.model.PopModel` charges closed-form
costs for the baroclinic halo exchanges and the barotropic solver's
reductions.  This module builds the *actual* schedule — compute blocks,
4-neighbour halo isend/irecv, an allreduce per solver iteration — and
runs it as a rank program on a :class:`~repro.simmpi.Cluster`, so the
whole stack (engine -> links -> transport -> collectives -> app) is
exercised together.  Tests assert the replay agrees with the analytic
model at small scale, anchoring the Fig. 4 curves.
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from ...halo.exchange import neighbors2d
from ...machines.specs import MachineSpec
from .baroclinic import BAROCLINIC_WORK
from .barotropic import TENTH_DEGREE_BAROTROPIC
from .grid import decompose, PopGrid
from .model import POP_SUSTAINED_GFLOPS
from .solvers import CHRONGEAR_SIGNATURE, SolverSignature

if TYPE_CHECKING:  # pragma: no cover - loaded on first replay
    from ..replay import ReplayResult

__all__ = ["replay_steps"]


def replay_steps(
    machine: MachineSpec,
    processes: int,
    grid: PopGrid,
    steps: int = 1,
    mode: str = "VN",
    solver: SolverSignature = CHRONGEAR_SIGNATURE,
    solver_iterations: int | None = None,
    faults: Any = None,
    reliability: Any = None,
    recovery: Any = None,
) -> ReplayResult:
    """Run ``steps`` POP timesteps at message level.

    The per-rank compute times come from the same sustained rate the
    analytic model uses; communication happens for real on the
    simulated torus/tree.

    ``recovery`` (a :class:`~repro.recovery.RecoveryPolicy`) arms
    ULFM-style failure handling for ``faults`` plans that kill nodes:
    under ``mode="shrink"`` the survivors rebuild the domain
    decomposition over the live ranks and continue in place; under
    ``mode="restart"`` the whole job is rewound to the last completed
    checkpoint of the policy's schedule and re-run.
    """
    if processes < 1 or steps < 1:
        raise ValueError("processes and steps must be >= 1")
    sustained = POP_SUSTAINED_GFLOPS[machine.name] * 1e9
    iters = (
        TENTH_DEGREE_BAROTROPIC.iterations_per_step
        if solver_iterations is None
        else solver_iterations
    )

    def geometry(nranks: int) -> Tuple[Tuple[int, int], int, int, float, float]:
        """Domain decomposition over ``nranks`` (recomputed on shrink)."""
        px, py = decompose(nranks, grid.nx, grid.ny)
        pts2d = grid.horizontal_points / nranks
        pts3d = pts2d * grid.levels
        edge = max(grid.nx / px, grid.ny / py)
        halo3d = int(
            BAROCLINIC_WORK.halo_width * edge * grid.levels * 8
            * BAROCLINIC_WORK.halo_fields
        )
        halo2d = int(TENTH_DEGREE_BAROTROPIC.halo_width * edge * 8)
        t_bc = pts3d * BAROCLINIC_WORK.flops_per_point / sustained
        t_iter = pts2d * solver.flops_per_point / sustained
        return (px, py), halo3d, halo2d, t_bc, t_iter

    def exchange(comm, dims: Tuple[int, int], nbytes: int, tag: int):
        nb = neighbors2d(comm.rank, dims)
        reqs = [
            comm.irecv(src=nb[d], tag=tag + i)
            for i, d in enumerate(("north", "south", "west", "east"))
        ]
        sends = []
        for i, d in enumerate(("south", "north", "east", "west")):
            sends.append(comm.isend(nb[d], nbytes, tag=tag + i))
        yield from comm.waitall(reqs + sends)

    def one_step(comm, geom, step: int):
        dims, halo3d, halo2d, t_bc, t_iter = geom
        base = 1000 * step
        # Baroclinic: compute + halo exchanges.
        with comm.phase("baroclinic"):
            yield from comm.compute(seconds=t_bc)
            for e in range(BAROCLINIC_WORK.halo_exchanges):
                yield from exchange(comm, dims, halo3d, tag=base + 10 * e)
        # Barotropic: solver iterations.
        with comm.phase("barotropic"):
            for it in range(iters):
                yield from comm.compute(seconds=t_iter)
                yield from exchange(comm, dims, halo2d, tag=base + 500 + 4 * it)
                for _ in range(solver.allreduces_per_iter):
                    yield from comm.allreduce(
                        solver.allreduce_bytes, dtype="float64"
                    )

    from ..replay import replay

    return replay(
        machine, processes, steps, one_step, geometry, mode=mode,
        faults=faults, reliability=reliability, recovery=recovery,
    )
