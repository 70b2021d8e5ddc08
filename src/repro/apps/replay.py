"""The one step-loop driver behind every application's message-level replay.

Each ``apps/*/des_replay.py`` reduces its application's timestep to a
rank-program fragment, ``one_step(comm, layout, step)``, plus
``layout(n)``, the decomposition it needs over ``n`` ranks.
:func:`replay` owns everything else the replays share: the
:class:`~repro.simmpi.Cluster`, the step loop, the recovery fork and
the one :class:`ReplayResult`.  Tests assert the replays agree with the
analytic models at small scale, anchoring Figs. 4-8.

:func:`checkpointed_walltime` turns a one-step replay into the
Young/Daly-adjusted wall-clock of a whole campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Optional

from ..machines.specs import MachineSpec
from ..recovery import RankFailedError, run_recovered
from ..simmpi import Cluster

__all__ = ["CheckpointReport", "checkpointed_walltime", "replay", "ReplayResult"]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a message-level application replay."""

    machine: str
    processes: int
    steps: int
    seconds_per_step: float
    messages: int
    #: fault statistics when the replay ran under a fault plan
    faults: Any = None
    #: the :class:`~repro.recovery.RecoveryOutcome` when the replay ran
    #: under a recovery policy (``seconds_per_step`` then averages the
    #: *whole* timeline, overheads included), else ``None``
    recovery: Any = None


def replay(
    machine: MachineSpec,
    processes: int,
    steps: int,
    one_step: Callable[[Any, Any, int], Any],
    layout: Callable[[int], Any] = lambda n: None,
    mode: str = "VN",
    faults: Any = None,
    reliability: Any = None,
    recovery: Any = None,
) -> ReplayResult:
    """Run ``steps`` timesteps of ``one_step`` on ``processes`` ranks.

    ``one_step(comm, layout(comm.size), step)`` is a generator run by
    every rank; ``layout`` is computed once per decomposition.  The
    caller validates ``processes`` and ``steps``.

    ``recovery`` (a :class:`~repro.recovery.RecoveryPolicy`) arms
    ULFM-style failure handling for ``faults`` plans that kill nodes:
    under ``mode="shrink"`` the survivors agree on the failure, shrink
    onto a communicator over the live ranks and continue from the
    aborted step with ``layout`` of the smaller size; under
    ``mode="restart"`` :func:`~repro.recovery.run_recovered` rewinds
    the whole job to the last completed checkpoint of the policy's
    schedule and re-runs it.
    """
    layout_of = cache(layout)

    def program_factory(runtime, start_step: int):
        def program(world):
            comm = world
            t0 = world.now
            step = start_step
            while step < steps:
                try:
                    yield from one_step(comm, layout_of(comm.size), step)
                    if runtime is not None:
                        runtime.end_step(comm, step)
                        yield from runtime.maybe_checkpoint(comm, step)
                    step += 1
                except RankFailedError:
                    if runtime is None or runtime.policy.mode != "shrink":
                        raise  # restart mode: run_recovered rewinds the job
                    while True:
                        if len(runtime.live_ranks()) < runtime.policy.min_ranks:
                            raise
                        try:
                            comm, step = yield from runtime.recover(world, step)
                            break
                        except RankFailedError:
                            continue  # another node died mid-recovery
            return world.now - t0

        return program

    def cluster(env=None):
        return Cluster(
            machine, ranks=processes, mode=mode, env=env, reliability=reliability
        )

    outcome = None
    if recovery is None:
        res = cluster().run(program_factory(None, 0), faults=faults)
        seconds = max(res.returns)
    else:
        outcome = run_recovered(recovery, cluster, program_factory, plan=faults)
        res = outcome.result
        seconds = outcome.times.walltime
    return ReplayResult(
        machine=machine.name,
        processes=processes,
        steps=steps,
        seconds_per_step=seconds / steps,
        messages=res.messages,
        faults=res.faults,
        recovery=outcome,
    )


@dataclass(frozen=True)
class CheckpointReport:
    """Checkpoint-interval-adjusted wall-clock for one application campaign.

    The useful-work time comes from a message-level replay; the
    resilience overhead from the Young/Daly model over the machine's
    MTBF and its real I/O path (see :mod:`repro.faults.checkpoint`).
    """

    machine: str
    processes: int
    system_nodes: int
    work_seconds: float
    checkpoint_seconds: float
    interval_seconds: float
    expected_seconds: float

    @property
    def inflation(self) -> float:
        return self.expected_seconds / self.work_seconds

    def format(self, campaign: str) -> str:
        """One line for the ``campaign`` (e.g. ``"POP 30 simdays"``)."""
        return (
            f"{campaign} on {self.machine} "
            f"({self.system_nodes} nodes): work {self.work_seconds / 3600:.2f} h, "
            f"checkpoint {self.checkpoint_seconds:.0f} s every "
            f"{self.interval_seconds / 60:.1f} min -> expected "
            f"{self.expected_seconds / 3600:.2f} h ({self.inflation:.3f}x)"
        )


def checkpointed_walltime(
    replay_steps: Callable[..., ReplayResult],
    machine: MachineSpec,
    processes: int,
    campaign_steps: float,
    system_nodes: Optional[int] = None,
    memory_fraction: float = 0.5,
    **replay_kwargs: Any,
) -> CheckpointReport:
    """Checkpoint-interval-adjusted wall-clock for a ``campaign_steps`` run.

    ``replay_steps`` is an application's replay (e.g.
    :func:`repro.apps.pop.des_replay.replay_steps`); one timestep of it,
    ``replay_steps(machine, processes, steps=1, **replay_kwargs)``,
    gives the useful-work rate.  The Young/Daly model then adds the
    cost of surviving ``system_nodes`` nodes' worth of failures
    (default: ``processes``), with the checkpoint written through the
    machine's modeled I/O path.
    """
    from ..faults.checkpoint import CheckpointModel

    if campaign_steps <= 0:
        raise ValueError("campaign_steps must be positive")
    r = replay_steps(machine, processes, steps=1, **replay_kwargs)
    work = campaign_steps * r.seconds_per_step
    nodes = processes if system_nodes is None else system_nodes
    model = CheckpointModel.from_machine(
        machine, nodes, memory_fraction=memory_fraction
    )
    tau = model.optimal_interval()
    return CheckpointReport(
        machine=machine.name,
        processes=processes,
        system_nodes=nodes,
        work_seconds=work,
        checkpoint_seconds=model.checkpoint_seconds,
        interval_seconds=tau,
        expected_seconds=model.expected_runtime(work, tau),
    )
