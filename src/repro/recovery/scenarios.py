"""Runnable recovery scenarios for ``repro recover``.

Each scenario exercises one slice of the recovery stack on a small
partition and returns ``(tracer, result line)`` like the fault
scenarios in :mod:`repro.faults.scenarios`; ``run_scenario(id,
"recover")`` in :mod:`repro.obs.scenarios` looks them up.  All of them
are deterministic: the same parameters produce byte-identical traces
run to run, which the CI ``recovery`` job checks with a literal
``cmp``.

This module imports :mod:`repro.apps` (whose replay driver,
:mod:`repro.apps.replay`, imports :mod:`repro.recovery`) and therefore
must NOT be imported from ``repro.recovery.__init__``;
:mod:`repro.obs.scenarios` loads it on first use, as it does
:mod:`repro.faults.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from ..obs.tracer import Tracer, tracing
from .policy import CheckpointSchedule, RecoveryPolicy

__all__ = ["CheckpointComparison", "SCENARIOS", "simulate_checkpointing"]


def _node_of(machine: Any, ranks: int, mode: str, rank: int) -> Any:
    """The node that hosts ``rank`` of a ``ranks``-rank job."""
    from ..simmpi import Cluster

    return Cluster(machine, ranks=ranks, mode=mode).mapping.node_of(rank)


def _setup(app: Callable[..., Any]) -> Tuple[Any, Any]:
    """Shared prologue of the app scenarios: healthy probe and plan.

    ``app(**kwargs)`` replays the scenario's BG/P job in VN mode; the
    healthy probe times its step, and the plan kills the node hosting
    rank ``processes // 2`` halfway through step 2.
    """
    from ..faults import FaultPlan, NodeFail
    from ..machines import BGP

    probe = app()
    node = _node_of(BGP, probe.processes, "VN", probe.processes // 2)
    plan = FaultPlan((NodeFail(time=2.5 * probe.seconds_per_step, node=node),))
    return probe, plan


def _pop(processes: int, steps: int) -> Callable[..., Any]:
    """The job of the POP scenarios: a tenth-degree-ish BG/P replay."""
    from ..apps.pop.des_replay import replay_steps
    from ..apps.pop.grid import PopGrid
    from ..machines import BGP

    grid = PopGrid(nx=360, ny=240, levels=20)
    return partial(replay_steps, BGP, processes, grid, steps=steps, mode="VN")


def _shrink(name: str, app: Callable[..., Any]) -> Tuple[Tracer, str]:
    """Survive :func:`_setup`'s node failure by shrinking in place."""
    probe, plan = _setup(app)
    tracer = Tracer(engine_stride=64)
    with tracing(tracer):
        out = app(faults=plan, recovery=RecoveryPolicy(mode="shrink")).recovery
    return tracer, (
        f"{name} on BG/P ({probe.processes} ranks VN, {probe.steps} steps): "
        f"healthy {probe.seconds_per_step * probe.steps:.4g}s -> recovered "
        f"{out.times.walltime:.4g}s with {len(out.failed_ranks)} rank(s) "
        f"lost; {out.times.summary()}"
    )


def _pop_shrink(processes: int = 16, steps: int = 5) -> Tuple[Tracer, str]:
    """Kill one node mid-POP; survivors shrink and finish the run.

    A 16-rank tenth-degree-ish POP replay loses a node (four VN-mode
    ranks) halfway through step 2; the survivors agree on the failure,
    rebuild the domain decomposition over 12 ranks, re-execute the
    aborted step, and complete — the time decomposition tiles the
    wall-clock exactly.
    """
    return _shrink("pop-shrink", _pop(processes, steps))


def _pop_restart(processes: int = 16, steps: int = 5) -> Tuple[Tracer, str]:
    """Kill one node mid-POP; rewind to the last checkpoint and re-run.

    The same failure as ``pop-shrink``, survived the other way: the
    replay checkpoints on a fixed interval, the node failure kills the
    job, and the driver reboots it from the last completed checkpoint —
    paying restart and re-execution instead of shrinking.
    """
    app = _pop(processes, steps)
    probe, plan = _setup(app)
    step = probe.seconds_per_step
    schedule = CheckpointSchedule(
        interval_seconds=1.7 * step,
        write_seconds=0.25 * step,
        restart_seconds=0.5 * step,
    )
    tracer = Tracer(engine_stride=64)
    with tracing(tracer):
        out = app(
            faults=plan,
            recovery=RecoveryPolicy(mode="restart", schedule=schedule),
        ).recovery
    return tracer, (
        f"pop-restart on BG/P ({processes} ranks VN, {steps} steps): healthy "
        f"{step * steps:.4g}s -> {out.summary()}"
    )


def _s3d_shrink(processes: int = 16, steps: int = 6) -> Tuple[Tracer, str]:
    """The S3D flavour of shrink-and-continue (3-D grid redecomposed)."""
    from ..apps.s3d.des_replay import replay_steps
    from ..machines import BGP

    app = partial(replay_steps, BGP, processes, edge=20, steps=steps, mode="VN")
    return _shrink("s3d-shrink", app)


def _livelock(
    max_stalled: float = 20000, max_wall_seconds: float = 60.0
) -> Tuple[Tracer, str]:
    """A zero-advance event loop, terminated by the budget watchdog.

    The rank programs spin on ``timeout(0)`` so the event queue churns
    without the simulation clock ever advancing — the shape of a real
    livelock bug.  ``Engine.run(budget=...)`` detects the stall
    deterministically and raises :class:`~repro.simengine.BudgetExceeded`
    with a partial-result summary instead of hanging.
    """
    from ..machines import BGP
    from ..simengine import Budget, BudgetExceeded
    from ..simmpi import Cluster

    cluster = Cluster(BGP, ranks=4, mode="SMP")

    def program(comm):
        while True:
            yield comm.env.timeout(0.0)

    budget = Budget(
        max_stalled_events=int(max_stalled),
        max_wall_seconds=max_wall_seconds,
    )
    try:
        cluster.run(program, budget=budget)
        line = "livelock: UNEXPECTEDLY COMPLETED"
    except BudgetExceeded as err:
        line = f"livelock stopped as intended: {err.summary.format()}"
    return Tracer(), line


@dataclass(frozen=True)
class CheckpointComparison:
    """Executed checkpoint/restart vs the analytic Young/Daly model."""

    machine: str
    work_seconds: float
    analytic_seconds: float
    simulated_seconds: float
    attempts: int
    checkpoints: int

    @property
    def delta_fraction(self) -> float:
        """(simulated - analytic) / analytic."""
        return self.simulated_seconds / self.analytic_seconds - 1.0

    def format(self) -> str:
        return (
            f"{self.machine}: work {self.work_seconds:.4g}s -> analytic "
            f"{self.analytic_seconds:.4g}s, simulated (DES) "
            f"{self.simulated_seconds:.4g}s ({self.delta_fraction:+.1%}); "
            f"{self.attempts} attempt(s), {self.checkpoints} checkpoint(s)"
        )


def simulate_checkpointing(
    machine: Any,
    ranks: int = 8,
    steps: int = 400,
    mtbf_steps: float = 250.0,
    write_steps: float = 5.0,
    restart_steps: float = 10.0,
    mode: str = "SMP",
) -> CheckpointComparison:
    """Run the *executed* checkpoint path and compare with the model.

    A synthetic step-loop workload (compute + one allreduce per step)
    runs under a :class:`~repro.recovery.RecoveryPolicy` in restart
    mode whose :class:`CheckpointSchedule` is Daly-optimal for an
    accelerated :class:`~repro.faults.checkpoint.CheckpointModel`
    (MTBF/write/restart expressed in healthy step times, so the same
    regime holds on every machine).  Node failures are injected
    deterministically at the MTBF spacing; the resulting DES wall-clock
    is compared against ``CheckpointModel.expected_runtime`` — the
    executed protocol should land within ~15% of the analytic
    expectation (deterministic failure spacing vs the model's
    exponential assumption accounts for the residual).
    """
    from ..apps.replay import replay
    from ..faults import FaultPlan, NodeFail
    from ..faults.checkpoint import CheckpointModel

    def one_step(comm, _layout, _step: int):
        yield from comm.compute(flops=2e7)
        yield from comm.allreduce(8192, dtype="float64")

    # Healthy probe: the per-step rate anchoring the failure regime.
    step_seconds = replay(machine, ranks, 4, one_step, mode=mode).seconds_per_step
    fail_node = _node_of(machine, ranks, mode, ranks - 1)

    model = CheckpointModel(
        mtbf_seconds=mtbf_steps * step_seconds,
        checkpoint_seconds=write_steps * step_seconds,
        restart_seconds=restart_steps * step_seconds,
    )
    work = steps * step_seconds
    analytic = model.expected_runtime(work)
    schedule = CheckpointSchedule.from_model(model)
    n_failures = int(analytic / model.mtbf_seconds) + 2
    plan = FaultPlan(
        tuple(
            NodeFail(time=(k + 1) * model.mtbf_seconds, node=fail_node)
            for k in range(n_failures)
        )
    )

    outcome = replay(
        machine, ranks, steps, one_step, mode=mode, faults=plan,
        recovery=RecoveryPolicy(mode="restart", schedule=schedule),
    ).recovery
    return CheckpointComparison(
        machine=machine.name,
        work_seconds=work,
        analytic_seconds=analytic,
        simulated_seconds=outcome.times.walltime,
        attempts=outcome.attempts,
        checkpoints=outcome.checkpoints_written,
    )


def _checkpoint_sim(steps: float = 300) -> Tuple[Tracer, str]:
    """Simulated-vs-analytic checkpoint economics, two Table 1 machines."""
    from ..machines import BGP, XT4_QC

    lines: List[str] = []
    for machine in (BGP, XT4_QC):
        cmp_ = simulate_checkpointing(machine, steps=int(steps))
        lines.append(cmp_.format())
    return Tracer(), "\n".join(lines)


SCENARIOS: Dict[str, Callable[..., Tuple[Tracer, str]]] = {
    "pop-shrink": _pop_shrink,
    "pop-restart": _pop_restart,
    "s3d-shrink": _s3d_shrink,
    "livelock": _livelock,
    "checkpoint-sim": _checkpoint_sim,
}
