"""The recovery driver: restart-from-checkpoint orchestration.

:func:`run_recovered` wraps the whole restart loop the batch system of
a real machine would perform: run the job, and when a node failure
kills it, reboot the partition (paying the schedule's restart time),
rewind to the last *completed* checkpoint, and re-submit — re-executing
only the steps after that checkpoint.  Shrink-mode policies run once
(the program recovers in-place via ``runtime.recover``); restart-mode
policies may run many attempts, each on a fresh cluster whose engine
clock continues where the previous attempt died, so the segments of
every attempt tile one continuous timeline.

The caller supplies factories instead of objects because each attempt
needs a *fresh* simulation world::

    def cluster_factory(env):
        return Cluster(BGP, ranks=16, mode="VN", env=env)

    def program_factory(runtime, start_step):
        def program(comm):
            ...  # step loop from start_step, calling runtime hooks
        return program

    outcome = run_recovered(policy, cluster_factory, program_factory,
                            plan=plan)
    assert abs(outcome.times.walltime - outcome.result.elapsed) < 1e-9
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List, Optional

from ..faults.errors import FaultError
from ..faults.plan import FaultPlan
from ..simengine import Engine
from .errors import RankFailedError, RestartsExhaustedError
from .policy import RecoveryPolicy
from .runtime import RecoveryRuntime, RecoveryTimes, Segment

__all__ = ["RecoveryOutcome", "run_recovered"]


@dataclass
class RecoveryOutcome:
    """What one :func:`run_recovered` call did, end to end."""

    #: the final (successful) attempt's ``ClusterResult``
    result: Any
    #: exact time decomposition of the whole timeline (all attempts)
    times: RecoveryTimes
    #: attempts executed (1 = no fatal failure ever surfaced)
    attempts: int
    #: checkpoints completed across all attempts
    checkpoints_written: int
    #: every world rank that died across all attempts
    failed_ranks: FrozenSet[int]
    #: the full timeline tiling (segments of every attempt + restarts)
    segments: List[Segment]

    def summary(self) -> str:
        return (
            f"{self.attempts} attempt(s), "
            f"{self.checkpoints_written} checkpoint(s), "
            f"{len(self.failed_ranks)} rank(s) lost | {self.times.summary()}"
        )


def _remaining(plan: Optional[FaultPlan], after: float) -> Optional[FaultPlan]:
    """The sub-plan of faults still ahead of a resumed clock."""
    if plan is None:
        return None
    return FaultPlan(tuple(ev for ev in plan if ev.time > after))


def _release(env: Engine, runtime: RecoveryRuntime) -> None:
    """Break the reference cycles of an attempt a restart drops.

    The failure stopped ``env`` with events still queued, and each
    event refers back to the engine.  A rank that died of an exception
    keeps it as its process value, and the exception's traceback keeps
    the rank's frames, which keep its communicator and with it the
    whole attempt.  Left alone, both wait for a cyclic collection, and
    so does everything the traceback of the error that ended the
    attempt reaches: the frame of :func:`run_recovered` and its callers.
    """
    env.abandon()
    for proc in runtime._procs:
        if proc.triggered and not proc.ok:
            proc.value.__traceback__ = None


def run_recovered(
    policy: RecoveryPolicy,
    cluster_factory: Callable[[Engine], Any],
    program_factory: Callable[[RecoveryRuntime, int], Callable],
    plan: Optional[FaultPlan] = None,
    *,
    sanitize: bool = False,
) -> RecoveryOutcome:
    """Run a program under ``policy`` until it completes (or gives up).

    ``cluster_factory(env)`` builds the cluster for one attempt on the
    given engine; ``program_factory(runtime, start_step)`` builds the
    per-rank program, which must run its step loop from ``start_step``
    and call the runtime's ``end_step`` / ``maybe_checkpoint`` hooks
    (and, in shrink mode, ``runtime.recover`` on failure).

    The first attempt gets the whole ``plan``, a fault at t=0 included;
    each restart gets the faults still in the future of its resumed
    clock, so the fault that killed an attempt does not fire again.

    Raises :class:`RestartsExhaustedError` when restart-mode failures
    exceed ``policy.max_restarts``; shrink-mode failures the program
    does not recover from propagate as-is.
    """
    executed_steps: set = set()
    segments: List[Segment] = []
    failed_ranks: set = set()
    resume_time = 0.0
    start_step = 0
    attempt = 0
    checkpoints = 0

    while True:
        env = Engine(initial_time=resume_time)
        cluster = cluster_factory(env)
        if cluster.env is not env:
            raise ValueError(
                "cluster_factory must build the cluster on the provided "
                "engine (pass env= through to Cluster)"
            )
        runtime = RecoveryRuntime(
            policy,
            start_step=start_step,
            executed_steps=executed_steps,
            attempt=attempt,
        )
        # Earlier attempts' durable progress survives the crash.
        runtime.durable_step = start_step - 1
        program = program_factory(runtime, start_step)
        try:
            result = cluster.run(
                program,
                recovery=runtime,
                faults=plan if attempt == 0 else _remaining(plan, resume_time),
                sanitize=sanitize,
            )
        except (RankFailedError, FaultError) as exc:
            failed_ranks.update(runtime.dead_ranks)
            checkpoints += runtime.checkpoints_written
            fail_time = env.now
            attempt += 1
            if policy.mode != "restart" or attempt > policy.max_restarts:
                if policy.mode == "restart":
                    raise RestartsExhaustedError(
                        attempt,
                        policy.max_restarts,
                        sim_time=fail_time,
                        last_error=str(exc),
                    ) from exc
                raise
            runtime.finalize_failed(fail_time)
            _release(env, runtime)
            segments.extend(runtime.segments)
            start_step = runtime.durable_step + 1
            schedule = policy.schedule
            assert schedule is not None  # restart mode guarantees one
            resume_time = fail_time + schedule.restart_seconds
            if resume_time > fail_time:
                segments.append(Segment("restart", fail_time, resume_time))
            continue

        failed_ranks.update(runtime.dead_ranks)
        checkpoints += runtime.checkpoints_written
        runtime.finalize_success(env.now)
        segments.extend(runtime.segments)
        return RecoveryOutcome(
            result=result,
            times=RecoveryTimes.from_segments(segments),
            attempts=attempt + 1,
            checkpoints_written=checkpoints,
            failed_ranks=frozenset(failed_ranks),
            segments=segments,
        )
