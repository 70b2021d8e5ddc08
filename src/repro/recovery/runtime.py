"""The recovery runtime: ULFM-style failure semantics for one cluster.

:class:`RecoveryRuntime` is the live half of a
:class:`~repro.recovery.policy.RecoveryPolicy`.  Attached to a
:class:`~repro.simmpi.comm.Cluster` (``Cluster.run(recovery=...)``), it

* turns a :class:`~repro.faults.plan.NodeFail` injected by the fault
  injector into *process death*: the ranks on the failed node stop
  executing immediately (their generators are closed so ``finally``
  blocks run), and the world communicator is **revoked** — every
  blocked operation fails with
  :class:`~repro.recovery.errors.RankFailedError` and every later
  world-communicator operation raises it on entry, exactly as ULFM's
  ``MPI_ERR_PROC_FAILED`` + ``MPI_Comm_revoke`` combination behaves;
* provides the recovery collectives — :meth:`RankComm.agree
  <repro.simmpi.comm.RankComm.agree>` / :meth:`RankComm.shrink
  <repro.simmpi.comm.RankComm.shrink>` are implemented here — which
  rendezvous the survivors, agree on the failed-rank set (and, for
  :meth:`recover`, on the earliest aborted step so desynchronised
  survivors re-converge), and build a deterministic live-rank
  :class:`~repro.simmpi.subcomm.SubComm`;
* *executes* the checkpoint/restart protocol of the policy's
  :class:`~repro.recovery.policy.CheckpointSchedule`:
  :meth:`maybe_checkpoint` synchronises the ranks and pays the
  checkpoint-write time inside the DES, and the restart driver
  (:mod:`repro.recovery.driver`) rewinds to the last *completed*
  checkpoint on a fatal failure;
* keeps an exact time accounting: the run's timeline is tiled into
  :class:`Segment` s (clean work, re-executed work, lost work,
  checkpoint/shrink/restart overhead) whose durations sum to the
  wall-clock time *by construction* — the invariant the property tests
  in ``tests/recovery`` check.

Everything here is deterministic: failure times come from the fault
plan, agreement order from the engine's deterministic scheduling, so
two identical runs produce byte-identical traces even while recovering.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..simengine import Engine, Event
from .errors import RankFailedError
from .policy import RecoveryPolicy

__all__ = [
    "RANK_FAILED",
    "RECOVERY_PID",
    "RecoveryRuntime",
    "RecoveryTimes",
    "Segment",
]

#: Chrome-trace pid hosting recovery instants/spans (next to the
#: fault-injector pid in repro.faults.injector).
RECOVERY_PID = 1000003

#: Group-id base for shrink-generation sub-communicators; generation g
#: uses group id ``_SHRINK_GROUP_BASE + g`` so every generation gets a
#: private tag band that cannot collide with split_by() groups or with
#: traffic orphaned by an earlier generation.
_SHRINK_GROUP_BASE = 1 << 10

#: Simulated payload of the agree/shrink vote (one 64-bit word).
_AGREE_BYTES = 8


class _RankFailedSentinel:
    """Return value of a rank whose process was killed by a node fault."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "RANK_FAILED"


#: Sentinel found in ``ClusterResult.returns`` for killed ranks.
RANK_FAILED = _RankFailedSentinel()


@dataclass(frozen=True)
class Segment:
    """One tile of the recovery time accounting.

    ``kind`` is one of ``clean`` (first execution of a step), ``rework``
    (re-execution of work lost to a failure), ``lost`` (work that was
    executed and then discarded), ``ckpt`` (checkpoint barrier + write),
    ``shrink`` (failure notification + agreement + rebuild), and
    ``restart`` (rebooting the partition and reading the checkpoint
    back).  Segments tile ``[0, walltime]`` without gaps or overlaps.
    """

    kind: str
    start: float
    end: float
    step: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class RecoveryTimes:
    """Where a recovered run's wall-clock time went.

    The four buckets partition the run: ``clean + lost + rework +
    checkpoint_overhead == walltime`` exactly (each bucket is a sum of
    non-overlapping :class:`Segment` durations tiling the timeline).
    ``checkpoint_overhead`` aggregates every resilience cost: checkpoint
    writes, shrink agreements, and restart delays.
    """

    clean: float
    lost: float
    rework: float
    checkpoint_overhead: float

    @property
    def walltime(self) -> float:
        return self.clean + self.lost + self.rework + self.checkpoint_overhead

    @classmethod
    def from_segments(cls, segments: List[Segment]) -> "RecoveryTimes":
        clean = lost = rework = overhead = 0.0
        for seg in segments:
            if seg.kind == "clean":
                clean += seg.duration
            elif seg.kind == "lost":
                lost += seg.duration
            elif seg.kind == "rework":
                rework += seg.duration
            else:  # ckpt | shrink | restart
                overhead += seg.duration
        return cls(clean, lost, rework, overhead)

    def summary(self) -> str:
        return (
            f"walltime {self.walltime:.6g}s = clean {self.clean:.6g}s "
            f"+ lost {self.lost:.6g}s + rework {self.rework:.6g}s "
            f"+ overhead {self.checkpoint_overhead:.6g}s"
        )


@dataclass
class _Agreement:
    """Rendezvous of the survivors of one shrink generation."""

    event: Event
    remaining: int
    steps: List[int] = field(default_factory=list)


class RecoveryRuntime:
    """Applies one :class:`RecoveryPolicy` to one cluster run.

    Single use, like :class:`~repro.faults.injector.FaultInjector`: the
    restart driver builds a fresh runtime per attempt (sharing the
    ``executed_steps`` memory so re-executed work is classified as
    rework across attempts).
    """

    def __init__(
        self,
        policy: RecoveryPolicy,
        start_step: int = 0,
        executed_steps: Optional[Set[int]] = None,
        attempt: int = 0,
    ) -> None:
        self.policy = policy
        #: first application step this attempt executes (restart mode)
        self.start_step = start_step
        #: steps whose work has been paid at least once (shared across
        #: restart attempts so re-execution shows up as rework)
        self.executed_steps: Set[int] = (
            executed_steps if executed_steps is not None else set()
        )
        #: restart-attempt ordinal of this runtime (0 = first try)
        self.attempt = attempt
        #: the attached cluster, held weakly: the cluster holds this
        #: runtime, so a strong reference back would keep a dropped
        #: cluster alive until a cyclic collection
        self._cluster: Optional["weakref.ReferenceType[Any]"] = None
        #: world ranks known dead
        self.dead_ranks: Set[int] = set()
        #: bumped once per node failure; SubComms remember the
        #: generation they were built in and raise when it moves on
        self.generation = 0
        #: ``(sim_time, node, ranks)`` per applied node failure
        self.failures: List[Tuple[float, Tuple[int, int, int], Tuple[int, ...]]] = []
        #: timeline tiling (see :class:`Segment`)
        self.segments: List[Segment] = []
        #: last step durably checkpointed (-1 = none; restart attempts
        #: inherit the previous attempt's durable progress)
        self.durable_step = start_step - 1
        self.checkpoints_written = 0
        self._procs: List[Any] = []
        self._last_cut = 0.0
        self._last_ckpt_end = 0.0
        self._ckpt_decisions: Dict[Tuple[int, int], bool] = {}
        self._ckpt_done: Set[int] = set()
        self._steps_recorded: Set[Tuple[int, int]] = set()
        self._agreements: Dict[int, _Agreement] = {}
        #: rendezvous envelopes a fault dropped with nobody resending;
        #: the transport parks them here for the next revoke
        self.stranded: List[Any] = []
        self._abort_recorded: Set[int] = set()
        self._finalized = False
        self._attached = False

    # -- wiring ------------------------------------------------------------
    @property
    def cluster(self) -> Optional[Any]:
        """The attached cluster, or ``None`` (never attached, or dropped)."""
        return self._cluster() if self._cluster is not None else None

    @property
    def env(self) -> Engine:
        assert self.cluster is not None, "runtime is not attached"
        return self.cluster.env

    def attach(self, cluster: Any) -> "RecoveryRuntime":
        """Wire this runtime into a cluster (once, before running)."""
        if self._attached:
            raise RuntimeError("a RecoveryRuntime is single-use; make a new one")
        self._attached = True
        self._cluster = weakref.ref(cluster)
        cluster.recovery = self
        cluster.transport.recovery = self
        self._last_cut = cluster.env.now
        self._last_ckpt_end = cluster.env.now
        return self

    def begin_run(self, procs: List[Any]) -> None:
        """Called by ``Cluster.run`` once the rank processes exist."""
        self._procs = list(procs)
        if self.attempt > 0:
            self._note(
                "restart",
                {"attempt": self.attempt, "start_step": self.start_step},
                counter="recovery.restarts",
            )

    def live_ranks(self) -> List[int]:
        """World ranks still alive, ascending."""
        assert self.cluster is not None
        return [r for r in range(self.cluster.ranks) if r not in self.dead_ranks]

    # -- failure application (called by the fault injector) ----------------
    def on_node_failed(self, node: Tuple[int, int, int]) -> None:
        """A NodeFail fired: kill its ranks and revoke the communicator.

        ULFM semantics, compressed into one deterministic instant:

        * the ranks mapped to ``node`` stop executing (generators are
          closed so ``finally`` blocks run) and their process events
          resolve to :data:`RANK_FAILED`;
        * every *pending* blocking operation anywhere — posted
          receives, rendezvous senders (including the two sides of a
          rendezvous a fault dropped in flight), hardware-collective
          rendezvous, in-flight agreements — fails with
          :class:`RankFailedError` (the revoke: peers blocked on a
          live rank that will now abort must not hang);
        * the shrink generation advances, so every subsequent operation
          on a communicator from an older generation raises on entry.
        """
        cluster = self.cluster
        assert cluster is not None
        now = cluster.env.now
        mapping = cluster.mapping
        newly = [
            r
            for r in range(cluster.ranks)
            if r not in self.dead_ranks and mapping.node_of(r) == node
        ]
        if not newly:
            return
        self.dead_ranks.update(newly)
        self.generation += 1
        self.failures.append((now, node, tuple(newly)))

        def err(op: str, rank: Optional[int] = None, peer: Optional[int] = None):
            return RankFailedError(
                newly, node=node, sim_time=now, op=op, rank=rank, peer=peer
            )

        # 1. Kill the rank processes hosted on the dead node.
        for r in newly:
            if r < len(self._procs):
                self._kill(self._procs[r])

        # 2. Revoke: fail every pending point-to-point operation.  The
        # orphaned traffic of survivors is discarded too — a peer
        # blocked on a rank that is alive but about to abort must raise,
        # not hang (ULFM's revoke does exactly this).
        transport = cluster.transport
        from ..simmpi.p2p import ANY_SOURCE  # local import: avoids a cycle

        revoked = 0
        for dst, queue in list(transport.queues.items()):
            for pr in queue.posted:
                if not pr.event.triggered:
                    peer = None if pr.src == ANY_SOURCE else pr.src
                    pr.event.fail(err("recv", rank=dst, peer=peer))
                    pr.event.defuse()
                    revoked += 1
            queue.posted.clear()
            for envl in queue.unexpected:
                done = envl.sender_done
                if done is not None and not done.triggered:
                    done.fail(err("send", rank=envl.msg.src, peer=envl.msg.dst))
                    done.defuse()
                    revoked += 1
            queue.unexpected.clear()
        for envl in self.stranded:
            msg = envl.msg
            for event, op, rank, peer in (
                (envl.sender_done, "send", msg.src, msg.dst),
                (envl.matched_recv, "recv", msg.dst, msg.src),
            ):
                if event is not None and not event.triggered:
                    event.fail(err(op, rank=rank, peer=peer))
                    event.defuse()
                    revoked += 1
        self.stranded.clear()

        # 3. Fail pending hardware-collective rendezvous: a collective
        # over the world communicator can never complete again.
        for sync in cluster._op_syncs.values():
            if sync.remaining > 0 and not sync.event.triggered:
                sync.event.fail(err(f"collective {sync.kind}"))
                sync.event.defuse()
                revoked += 1

        # 4. Fail in-flight agreements of older generations, so their
        # participants re-agree against the new failure set.
        for agreement in self._agreements.values():
            if not agreement.event.triggered:
                agreement.event.fail(err("agree"))
                agreement.event.defuse()
                revoked += 1

        self._note(
            "node-failure",
            {
                "node": str(node),
                "ranks": str(sorted(newly)),
                "generation": self.generation,
                "revoked_ops": revoked,
            },
            counter="recovery.node_failures",
        )
        self._count("recovery.rank_kills", len(newly))

    def _kill(self, proc: Any) -> None:
        """Stop one rank process dead, without crashing the engine."""
        if proc is None or not proc.is_alive:
            return
        target = proc._target
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(proc._resume)
                except ValueError:
                    pass
            # The dead rank's waitall/AnyOf may still fail later via its
            # children; nobody is listening anymore, so disarm it.
            target.defuse()
        proc._target = None
        proc._generator.close()
        proc.succeed(RANK_FAILED)

    # -- agreement / shrink (backing RankComm.agree / .shrink) -------------
    def agreement(self, comm: Any, step: Optional[int] = None):
        """Rendezvous the survivors; agree on the failure set.

        Generator.  Every live rank must call this (survivors reach it
        by catching :class:`RankFailedError`); the returned value is
        ``(failed_ranks, resume_step)`` where ``resume_step`` is the
        minimum ``step`` passed by any participant (``None`` when no
        participant passed one) — desynchronised survivors use it to
        re-converge on a common step.
        """
        gen = self.generation
        agreement = self._agreements.get(gen)
        if agreement is None:
            agreement = self._agreements[gen] = _Agreement(
                Event(self.env), len(self.live_ranks())
            )
        if step is not None:
            agreement.steps.append(step)
        agreement.remaining -= 1
        if agreement.remaining == 0 and not agreement.event.triggered:
            resume = min(agreement.steps) if agreement.steps else None
            self._count("recovery.agreements")
            agreement.event.succeed((frozenset(self.dead_ranks), resume))
        result = yield agreement.event
        return result

    def shrink(self, comm: Any, step: Optional[int] = None):
        """Agree, then build the surviving sub-communicator.

        Generator returning ``(subcomm, resume_step)``.  ``comm`` must
        be the *world* :class:`~repro.simmpi.comm.RankComm`.  The
        agreement cost is modelled as one small software allreduce over
        the survivors (ULFM's agree is a fault-tolerant allreduce).
        """
        from ..simmpi.subcomm import SubComm  # local import: avoids a cycle

        dead, resume = yield from self.agreement(comm, step)
        live = self.live_ranks()
        if len(live) < self.policy.min_ranks:
            raise RankFailedError(
                dead,
                sim_time=self.env.now,
                op=(
                    f"shrink below min_ranks={self.policy.min_ranks} "
                    f"({len(live)} survivor(s) left)"
                ),
                rank=comm.rank,
            )
        gen = self.generation
        sub = SubComm(comm, live, group_id=_SHRINK_GROUP_BASE + gen)
        yield from sub.allreduce(_AGREE_BYTES)
        if sub.rank == 0:
            start = self._last_cut
            self._add_segment("shrink", self.env.now)
            self._note(
                "shrink",
                {
                    "generation": gen,
                    "survivors": len(live),
                    "resume_step": -1 if resume is None else resume,
                },
                counter="recovery.shrinks",
            )
            self._span("shrink", start, self.env.now)
        return sub, resume

    def recover(self, comm: Any, step: int):
        """Full shrink-mode recovery for step-loop programs.

        Generator: records the aborted work as lost, shrinks, and
        returns ``(subcomm, resume_step)`` — the program continues its
        step loop from ``resume_step`` on ``subcomm``.
        """
        self.record_abort(comm, step)
        sub, resume = yield from self.shrink(comm, step)
        return sub, resume if resume is not None else step

    # -- executed checkpointing --------------------------------------------
    def maybe_checkpoint(self, comm: Any, step: int):
        """Checkpoint after ``step`` if the schedule says one is due.

        Generator; every rank of ``comm`` calls it at the same point of
        the step loop.  The due-decision is memoised per (generation,
        step) so all ranks decide identically; a due checkpoint is a
        barrier plus the schedule's write time, after which steps
        ``<= step`` are durable.
        """
        schedule = self.policy.schedule
        if schedule is None:
            return
        key = (self.generation, step)
        due = self._ckpt_decisions.get(key)
        if due is None:
            due = schedule.due(self._last_ckpt_end, self.env.now)
            self._ckpt_decisions[key] = due
        if not due:
            return
        yield from comm.barrier()
        yield self.env.timeout(schedule.write_seconds)
        self._end_checkpoint(step)

    def _end_checkpoint(self, step: int) -> None:
        """First completing rank records the finished checkpoint."""
        if step in self._ckpt_done:
            return
        self._ckpt_done.add(step)
        now = self.env.now
        start = self._last_cut
        self._add_segment("ckpt", now, step=step)
        self._last_ckpt_end = now
        self.durable_step = step
        self.checkpoints_written += 1
        self._note(
            "checkpoint",
            {"step": step, "write_seconds": self.policy.schedule.write_seconds},
            counter="recovery.checkpoints",
        )
        self._span("checkpoint", start, now)

    # -- step accounting ----------------------------------------------------
    def end_step(self, comm: Any, step: int) -> None:
        """Mark application step ``step`` complete (call from every rank).

        The first caller per (generation, step) records the segment —
        single-writer and deterministic, since engine ordering is — and
        classifies the execution *before* this pass marks the step
        executed, so only genuinely re-executed work becomes rework.
        """
        key = (self.generation, step)
        if key not in self._steps_recorded:
            self._steps_recorded.add(key)
            kind = "rework" if step in self.executed_steps else "clean"
            self._add_segment(kind, self.env.now, step=step)
        self.executed_steps.add(step)

    def record_abort(self, comm: Any, step: int) -> None:
        """A survivor aborted ``step``: the partial work is lost.

        Recorded once per shrink generation (first caller wins — the
        engine's deterministic ordering makes that reproducible).
        """
        gen = self.generation
        if gen not in self._abort_recorded:
            self._abort_recorded.add(gen)
            self._add_segment("lost", self.env.now, step=step)
        self.executed_steps.add(step)

    def finalize_success(self, now: float) -> None:
        """Close the tiling at a successful run end."""
        if self._finalized:
            return
        self._finalized = True
        self._add_segment("clean", now)

    def finalize_failed(self, now: float) -> None:
        """Close the tiling at a fatal failure (restart mode).

        Work completed after the last durable checkpoint is re-labelled
        ``lost`` — the restart will re-execute it — and the time since
        the last mark becomes a ``lost`` tail.
        """
        if self._finalized:
            return
        self._finalized = True
        relabeled: List[Segment] = []
        for seg in self.segments:
            if (
                seg.kind in ("clean", "rework")
                and seg.step is not None
                and seg.step > self.durable_step
            ):
                seg = Segment("lost", seg.start, seg.end, seg.step)
            relabeled.append(seg)
        self.segments = relabeled
        self._add_segment("lost", now)

    def times(self) -> RecoveryTimes:
        """The (finalized) time decomposition of this attempt."""
        return RecoveryTimes.from_segments(self.segments)

    def _add_segment(
        self, kind: str, end: float, step: Optional[int] = None
    ) -> None:
        if end > self._last_cut:
            self.segments.append(Segment(kind, self._last_cut, end, step))
            self._last_cut = end

    # -- telemetry ----------------------------------------------------------
    def _tracer(self) -> Optional[Any]:
        return getattr(self.cluster, "tracer", None) if self.cluster else None

    def _note(self, name: str, args: Dict[str, Any], counter: str = "") -> None:
        tracer = self._tracer()
        if tracer is None:
            return
        tracer.instant(
            RECOVERY_PID, name, self.cluster.env.now, cat="recovery", args=args
        )
        tracer.metrics.counter(counter or f"recovery.{name}").inc()
        tracer.set_process_name(RECOVERY_PID, "recovery")

    def _count(self, name: str, n: int = 1) -> None:
        tracer = self._tracer()
        if tracer is not None:
            tracer.metrics.counter(name).inc(n)

    def _span(self, name: str, start: float, end: float) -> None:
        tracer = self._tracer()
        if tracer is not None:
            tracer.complete(RECOVERY_PID, name, start, end, cat="recovery")
