"""Runnable fault/resilience scenarios for ``repro faults``.

Each scenario exercises one slice of the resilience stack on a small
partition and returns ``(tracer, result line)`` like the trace
scenarios in :mod:`repro.obs.scenarios`, whose ``run_scenario(id,
"faults")`` looks them up.  All of them are seeded and deterministic:
the same seed produces byte-identical traces run to run, which the CI
``faults`` job checks with a literal ``cmp``.

This module imports :mod:`repro.simmpi` and therefore must NOT be
imported from ``repro.faults.__init__`` (the transport imports
``repro.faults.errors``); :mod:`repro.obs.scenarios` loads it on first
use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..obs.tracer import Tracer, tracing
from .checkpoint import CheckpointModel
from .errors import FaultError
from .plan import FaultPlan, LinkDegrade, LinkFail

__all__ = ["SCENARIOS"]

#: The allreduce payload is float32 on purpose: the BG/P tree ALU has
#: no single-precision support (paper Fig. 3), so the collective runs
#: in software over the torus — where links can fail.
_ALLREDUCE_DTYPE = "float32"


def _allreduce_program(rounds: int, nbytes: int):
    def program(comm):
        for _ in range(rounds):
            yield from comm.allreduce(nbytes, dtype=_ALLREDUCE_DTYPE)
        return comm.now

    return program


def _probe_elapsed(rounds: int, nbytes: int) -> float:
    """Healthy-run duration of the allreduce workload (untraced)."""
    from ..machines import BGP
    from ..simmpi import Cluster

    cluster = Cluster(BGP, ranks=64, mode="SMP")
    return cluster.run(_allreduce_program(rounds, nbytes)).elapsed


def _link_kill(
    rounds: int = 8, nbytes: int = 16384, kill_fraction: float = 0.4
) -> Tuple[Tracer, str]:
    """Kill one torus link mid-run; reroute + retransmit to completion.

    A 4x4x4 BG/P partition runs an allreduce-heavy workload; at
    ``kill_fraction`` of the healthy runtime one +X link dies — while a
    transfer is crossing it, so the loss is real.  With the reliability
    protocol on, in-flight losses are retransmitted and later traffic
    detours around the dead link: the job finishes, slower.
    """
    from ..machines import BGP
    from ..simmpi import Cluster, ReliabilityPolicy

    healthy = _probe_elapsed(rounds, nbytes)
    plan = FaultPlan(
        (LinkFail(time=kill_fraction * healthy, link=((0, 0, 0), (1, 0, 0))),)
    )
    tracer = Tracer()
    with tracing(tracer):
        cluster = Cluster(
            BGP, ranks=64, mode="SMP", reliability=ReliabilityPolicy()
        )
        result = cluster.run(_allreduce_program(rounds, nbytes), faults=plan)
    stats = result.faults
    return tracer, (
        f"link-kill on 4x4x4 BG/P ({rounds}x allreduce {nbytes}B fp32): "
        f"healthy {healthy * 1e6:.1f} us -> faulted {result.elapsed * 1e6:.1f} us "
        f"({result.elapsed / healthy:.2f}x); {stats.summary()}"
    )


def _link_kill_noretry(
    rounds: int = 8, nbytes: int = 16384, kill_fraction: float = 0.4
) -> Tuple[Tracer, str]:
    """The same link kill with retransmission disabled: a FaultError.

    With ``max_retries=0`` the first lost message kills its sender —
    the run aborts with an error naming the failed link, which is how
    the sanitizer (and a user) tells a fault-kill from a deadlock.
    """
    from ..machines import BGP
    from ..simmpi import Cluster, ReliabilityPolicy

    healthy = _probe_elapsed(rounds, nbytes)
    plan = FaultPlan(
        (LinkFail(time=kill_fraction * healthy, link=((0, 0, 0), (1, 0, 0))),)
    )
    tracer = Tracer()
    line: str
    with tracing(tracer):
        cluster = Cluster(
            BGP, ranks=64, mode="SMP",
            reliability=ReliabilityPolicy(max_retries=0),
        )
        try:
            cluster.run(_allreduce_program(rounds, nbytes), faults=plan)
            line = "link-kill-noretry: UNEXPECTEDLY COMPLETED"
        except FaultError as err:
            stats = cluster.fault_injector.finalize()
            line = (
                f"link-kill-noretry on 4x4x4 BG/P: FaultError as intended "
                f"[{err}]; {stats.summary()}"
            )
    return tracer, line


def _degrade(rounds: int = 8, nbytes: int = 16384, factor: float = 0.25) -> Tuple[Tracer, str]:
    """Transient bandwidth derating: the job slows down, nothing dies."""
    from ..machines import BGP
    from ..simmpi import Cluster

    healthy = _probe_elapsed(rounds, nbytes)
    plan = FaultPlan(
        (
            LinkDegrade(
                time=0.2 * healthy,
                link=((0, 0, 0), (1, 0, 0)),
                factor=factor,
                duration=0.5 * healthy,
            ),
        )
    )
    tracer = Tracer()
    with tracing(tracer):
        cluster = Cluster(BGP, ranks=64, mode="SMP")
        result = cluster.run(_allreduce_program(rounds, nbytes), faults=plan)
    return tracer, (
        f"degrade to {factor:.0%} on 4x4x4 BG/P: healthy {healthy * 1e6:.1f} us "
        f"-> derated {result.elapsed * 1e6:.1f} us "
        f"({result.elapsed / healthy:.2f}x); {result.faults.summary()}"
    )


def _checkpoint(simdays: float = 30.0, system_nodes: int = 4096) -> Tuple[Tracer, str]:
    """Young/Daly checkpoint-adjusted POP wall-clock, two Table 1 machines.

    ``repro recover checkpoint-sim`` runs the *executed*
    checkpoint/restart protocol against the same model.
    """
    from ..apps.pop.des_replay import replay_steps
    from ..apps.pop.grid import PopGrid
    from ..apps.pop.model import STEPS_PER_SIMDAY
    from ..apps.replay import checkpointed_walltime
    from ..machines import BGP, XT4_QC

    grid = PopGrid(nx=360, ny=240, levels=20)
    tracer = Tracer(engine_stride=64)
    lines: List[str] = []
    with tracing(tracer):
        for machine in (BGP, XT4_QC):
            rep = checkpointed_walltime(
                replay_steps, machine, 8, simdays * STEPS_PER_SIMDAY,
                system_nodes=system_nodes, grid=grid,
            )
            lines.append(rep.format(f"POP {simdays:g} simdays"))
    return tracer, "\n".join(lines)


def _mtbf(
    duration_hours: float = 24.0, seed: int = 7, acceleration: float = 2000.0
) -> Tuple[Tracer, str]:
    """Seeded MTBF-drawn failure history for a 4x4x4 BG/P partition."""
    from ..machines import BGP

    duration = duration_hours * 3600.0
    plan = FaultPlan.for_machine(
        BGP, (4, 4, 4), duration, seed=seed, acceleration=acceleration
    )
    model = CheckpointModel.from_machine(BGP, 64)
    kinds: Dict[str, int] = {}
    for ev in plan:
        kinds[type(ev).__name__] = kinds.get(type(ev).__name__, 0) + 1
    return Tracer(), (
        f"mtbf plan for 4x4x4 BG/P over {duration_hours:g} h "
        f"(seed={seed}, acceleration={acceleration:g}x): "
        f"{len(plan)} event(s) {kinds or '{}'}; "
        f"partition model: {model.describe(duration)}"
    )


SCENARIOS: Dict[str, Callable[..., Tuple[Tracer, str]]] = {
    "link-kill": _link_kill,
    "link-kill-noretry": _link_kill_noretry,
    "degrade": _degrade,
    "checkpoint": _checkpoint,
    "mtbf": _mtbf,
}
