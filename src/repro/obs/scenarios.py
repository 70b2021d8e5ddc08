"""Traceable discrete-event scenarios, and the one scenario lookup.

Each scenario runs a small message-level simulation with a
:class:`~repro.obs.tracer.Tracer` attached and returns the tracer plus
a one-line result description.  The ``repro trace`` scenarios here
cover one microbenchmark kernel per network path (torus p2p, software
collectives) and one application model (POP with named
baroclinic/barotropic phases), mirroring the paper's
instrumented-measurement methodology at laptop scale.

:func:`run_scenario` and :func:`scenario_ids` serve every CLI command
that runs scenarios, keyed by the command: ``trace`` (this module),
``faults`` (:mod:`repro.faults.scenarios`) and ``recover``
(:mod:`repro.recovery.scenarios`).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

from .tracer import Tracer, tracing

__all__ = ["SCENARIOS", "run_scenario", "scenario_ids"]


def _pingpong(nbytes: int = 4096, repeats: int = 5) -> Tuple[Tracer, str]:
    """Two-node eager/rendezvous ping-pong (kernel: pingpong)."""
    from ..kernels.pingpong import run_pingpong_des
    from ..machines import BGP

    tracer = Tracer()
    with tracing(tracer):
        r = run_pingpong_des(BGP, nbytes=nbytes, repeats=repeats, mode="SMP")
    return tracer, f"pingpong {nbytes}B on {r.machine}: {r.latency_us:.2f} us one-way"


def _ring(processes: int = 32, nbytes: int = 1 << 15) -> Tuple[Tracer, str]:
    """Random-ring exchange over an 8-node torus (kernel: ring)."""
    from ..kernels.ring import run_random_ring_des
    from ..machines import BGP

    tracer = Tracer()
    with tracing(tracer):
        r = run_random_ring_des(BGP, processes=processes, nbytes=nbytes, mode="VN")
    return tracer, (
        f"random ring x{r.processes} on {r.machine}: "
        f"{r.bandwidth_gbs_per_process:.3f} GB/s per process"
    )


def _torus_ring(nbytes: int = 1 << 16, repeats: int = 4) -> Tuple[Tracer, str]:
    """Nearest-rank ring shift on a 2x2x2 torus, one rank per node."""
    from ..machines import BGP
    from ..simmpi import Cluster

    def program(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for rep in range(repeats):
            req = comm.irecv(src=left, tag=rep)
            yield from comm.send(right, nbytes=nbytes, tag=rep)
            yield from comm.wait(req)
        return comm.now

    cluster = Cluster(BGP, ranks=8, mode="SMP")
    result = cluster.run(program, trace=True)
    return result.trace, (
        f"ring shift x8 on {cluster.partition.torus_shape} torus: "
        f"{result.elapsed * 1e6:.2f} us, {result.messages} messages"
    )


def _allreduce() -> Tuple[Tracer, str]:
    """Software allreduce sweep (recursive doubling + Rabenseifner)."""
    from ..machines import XT4_QC
    from ..simmpi import Cluster

    sizes = [8, 512, 8192, 65536]

    def program(comm):
        for nbytes in sizes:
            yield from comm.allreduce(nbytes, dtype="float64")
        return comm.now

    cluster = Cluster(XT4_QC, ranks=8, mode="SMP")
    result = cluster.run(program, trace=True)
    return result.trace, (
        f"allreduce sweep {sizes} x8 on {cluster.machine.name}: "
        f"{result.elapsed * 1e6:.2f} us"
    )


def _pop(processes: int = 8, steps: int = 1, solver_iterations: int = 5) -> Tuple[Tracer, str]:
    """One POP timestep at message level with named phases (app: POP)."""
    from ..apps.pop.des_replay import replay_steps
    from ..apps.pop.grid import PopGrid
    from ..machines import BGP

    grid = PopGrid(nx=360, ny=240, levels=20)
    tracer = Tracer(engine_stride=16)
    with tracing(tracer):
        r = replay_steps(
            BGP, processes=processes, grid=grid, steps=steps,
            solver_iterations=solver_iterations,
        )
    return tracer, (
        f"POP replay x{r.processes} on {r.machine}: "
        f"{r.seconds_per_step:.4f} s/step, {r.messages} messages"
    )


SCENARIOS: Dict[str, Callable[..., Tuple[Tracer, str]]] = {
    "pingpong": _pingpong,
    "ring": _ring,
    "torus-ring": _torus_ring,
    "allreduce": _allreduce,
    "pop": _pop,
}


#: CLI command -> (module holding its ``SCENARIOS`` table, name in
#: errors).  The fault and recovery tables load on first use: every
#: Cluster.run imports repro.obs, and those modules pull in the whole
#: repro.faults and repro.recovery packages.
_TABLES = {
    "trace": (__name__, "trace scenario"),
    "faults": ("repro.faults.scenarios", "fault scenario"),
    "recover": ("repro.recovery.scenarios", "recovery scenario"),
}


def _table(command: str) -> Dict[str, Callable[..., Tuple[Tracer, str]]]:
    return importlib.import_module(_TABLES[command][0]).SCENARIOS


def scenario_ids(command: str = "trace") -> List[str]:
    """The scenario ids of one CLI command: trace, faults or recover."""
    return list(_table(command))


def run_scenario(
    scenario_id: str, command: str = "trace", **params: Any
) -> Tuple[Tracer, str]:
    """Run one of ``command``'s scenarios; returns (tracer, result line).

    ``params`` must match keyword arguments of the scenario function
    (e.g. ``nbytes`` for pingpong); an unknown id or parameter raises
    :class:`KeyError` naming what is known or supported.
    """
    # Imported here, not at module load: every Cluster.run imports
    # repro.obs, and repro.core loads ~50 modules a run does not need.
    from ..core.params import checked_entry

    fn = checked_entry(_table(command), scenario_id, params, _TABLES[command][1])
    return fn(**params)
