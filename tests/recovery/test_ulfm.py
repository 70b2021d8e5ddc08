"""ULFM semantics at the simmpi level: revoke, agree, shrink, recover."""

import pytest

from repro.faults import FaultPlan, NodeFail
from repro.machines import BGP
from repro.recovery import (
    RANK_FAILED,
    RankFailedError,
    RecoveryPolicy,
    RecoveryRuntime,
)
from repro.simmpi import Cluster

RANKS = 8
STEP_SECONDS = 0.5
STEPS = 6


def _ring_step(comm, step):
    """One compute + ring-exchange step (blocks until neighbours arrive)."""
    yield from comm.compute(seconds=STEP_SECONDS)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(src=left, tag=step)
    yield from comm.send(right, 4096, tag=step)
    yield from comm.waitall([req])


def _recovering_program(runtime):
    def program(world):
        comm = world
        step = 0
        while step < STEPS:
            try:
                yield from _ring_step(comm, step)
                runtime.end_step(comm, step)
                step += 1
            except RankFailedError:
                comm, step = yield from runtime.recover(world, step)
        return comm.size

    return program


def _cluster_and_plan(kill_rank=5, kill_time=1.6):
    cluster = Cluster(BGP, ranks=RANKS, mode="VN")
    node = cluster.mapping.node_of(kill_rank)
    plan = FaultPlan((NodeFail(time=kill_time, node=node),))
    return cluster, plan, node


def test_shrink_and_continue_completes():
    cluster, plan, node = _cluster_and_plan()
    runtime = RecoveryRuntime(RecoveryPolicy(mode="shrink"))
    res = cluster.run(
        _recovering_program(runtime),
        recovery=runtime, faults=plan, sanitize=True,
    )
    dead = {
        r for r in range(RANKS) if cluster.mapping.node_of(r) == node
    }
    assert runtime.dead_ranks == dead
    survivors = RANKS - len(dead)
    for r in range(RANKS):
        if r in dead:
            assert res.returns[r] is RANK_FAILED
        else:
            assert res.returns[r] == survivors


def test_time_decomposition_sums_to_walltime():
    cluster, plan, _node = _cluster_and_plan()
    runtime = RecoveryRuntime(RecoveryPolicy(mode="shrink"))
    res = cluster.run(_recovering_program(runtime), recovery=runtime, faults=plan)
    times = runtime.times()
    assert times.walltime == pytest.approx(res.elapsed, abs=1e-12)
    assert times.walltime == pytest.approx(
        times.clean + times.lost + times.rework + times.checkpoint_overhead
    )
    assert times.lost > 0 and times.rework > 0
    # Segments tile [0, walltime] without gaps or overlaps.
    edge = 0.0
    for seg in runtime.segments:
        assert seg.start == pytest.approx(edge, abs=1e-12)
        assert seg.end >= seg.start
        edge = seg.end
    assert edge == pytest.approx(res.elapsed, abs=1e-12)


def test_world_comm_is_revoked_after_failure():
    """Operations on the world comm raise at entry once ranks died."""
    cluster, plan, _node = _cluster_and_plan()

    seen = []

    def program(comm):
        try:
            for step in range(STEPS):
                yield from _ring_step(comm, step)
        except RankFailedError:
            # The world communicator is now revoked: any further world
            # operation must raise immediately, without blocking.
            with pytest.raises(RankFailedError):
                comm.irecv(src=(comm.rank - 1) % comm.size, tag=999)
            with pytest.raises(RankFailedError):
                yield from comm.send((comm.rank + 1) % comm.size, 64, tag=999)
            seen.append(comm.rank)
        return comm.rank

    cluster.run(program, recovery=RecoveryPolicy(mode="shrink"), faults=plan)
    assert seen  # at least one survivor took the revoked path


def test_agree_and_shrink_api():
    """comm.agree() returns the dead set; comm.shrink() a live SubComm."""
    cluster, plan, node = _cluster_and_plan()
    dead_expected = {
        r for r in range(RANKS) if cluster.mapping.node_of(r) == node
    }

    def program(comm):
        try:
            for step in range(STEPS):
                yield from _ring_step(comm, step)
        except RankFailedError:
            dead = yield from comm.agree()
            assert dead == frozenset(dead_expected)
            sub = yield from comm.shrink()
            assert sub.size == RANKS - len(dead_expected)
            yield from sub.allreduce(64)
            return sub.size
        return -1

    res = cluster.run(program, recovery=RecoveryPolicy(mode="shrink"), faults=plan)
    live = [r for r in range(RANKS) if r not in dead_expected]
    for r in live:
        assert res.returns[r] == len(live)


def test_agree_requires_recovery_runtime():
    cluster = Cluster(BGP, ranks=2, mode="SMP")

    def program(comm):
        if False:
            yield None
        with pytest.raises(RuntimeError, match="RecoveryPolicy"):
            comm.agree().send(None)
        return 0

    res = cluster.run(program)
    assert res.returns == [0, 0]


def test_shrink_below_min_ranks_raises():
    cluster, plan, _node = _cluster_and_plan()
    runtime = RecoveryRuntime(RecoveryPolicy(mode="shrink", min_ranks=RANKS))

    with pytest.raises(RankFailedError, match="min_ranks"):
        cluster.run(
            _recovering_program(runtime), recovery=runtime, faults=plan
        )


def test_restart_policy_propagates_failure():
    """Without the driver, a restart-mode failure escapes Cluster.run."""
    from repro.recovery import CheckpointSchedule

    cluster, plan, _node = _cluster_and_plan()
    sched = CheckpointSchedule(interval_seconds=1.0, write_seconds=0.1)
    runtime = RecoveryRuntime(RecoveryPolicy(mode="restart", schedule=sched))

    def program(comm):
        for step in range(STEPS):
            yield from _ring_step(comm, step)
            runtime.end_step(comm, step)
            yield from runtime.maybe_checkpoint(comm, step)
        return comm.now

    with pytest.raises(RankFailedError):
        cluster.run(program, recovery=runtime, faults=plan)
    assert runtime.dead_ranks


def test_stale_subcomm_raises_after_second_failure():
    """A SubComm from generation 1 is revoked by a second node failure."""
    cluster = Cluster(BGP, ranks=RANKS, mode="VN")
    node_a = cluster.mapping.node_of(RANKS - 1)
    node_b = cluster.mapping.node_of(0)
    assert node_a != node_b
    plan = FaultPlan(
        (NodeFail(time=1.6, node=node_a), NodeFail(time=2.6, node=node_b))
    )
    runtime = RecoveryRuntime(RecoveryPolicy(mode="shrink"))
    res = cluster.run(
        _recovering_program(runtime), recovery=runtime, faults=plan
    )
    assert runtime.generation == 2
    survivors = len(runtime.live_ranks())
    assert survivors == RANKS - len(runtime.dead_ranks)
    for r in runtime.live_ranks():
        assert res.returns[r] == survivors


ALLREDUCES = 8
ALLREDUCE_BYTES = 16 * 1024  # float32 on BG/P: software, rendezvous


def _allreduces(comm):
    for _ in range(ALLREDUCES):
        yield from comm.allreduce(ALLREDUCE_BYTES, dtype="float32")


@pytest.mark.parametrize(
    "rank, fraction",
    [pytest.param(5, f, id=str(f)) for f in (0.3, 0.4, 0.5, 0.6)]
    # the send overhead of a send to the failed node straddles the failure
    + [pytest.param(5, 5 / 40, id="rank5-0.125"), pytest.param(33, 10 / 40, id="rank33-0.25")],
)
def test_revoke_releases_rendezvous_in_flight(rank, fraction):
    """A node dies while rendezvous sends are in flight: an RTS that
    lands after the revoke, a transfer the dead node's links drop, and
    a send whose route is booked after the failure must fail their
    ranks into the shrink with ``RankFailedError``, not hang them or
    kill them with a "no fault-free route" ``FaultError``."""
    healthy = Cluster(BGP, ranks=64, mode="SMP").run(_allreduces).elapsed
    cluster = Cluster(BGP, ranks=64, mode="SMP")
    plan = FaultPlan(
        (NodeFail(time=fraction * healthy, node=cluster.mapping.node_of(rank)),)
    )

    def program(comm):
        try:
            yield from _allreduces(comm)
        except RankFailedError:
            sub = yield from comm.shrink()
            yield from sub.allreduce(ALLREDUCE_BYTES, dtype="float32")
            return sub.size
        return comm.size

    res = cluster.run(
        program, recovery=RecoveryPolicy(mode="shrink"), faults=plan,
        sanitize=True,
    )
    assert res.returns[rank] is RANK_FAILED
    assert [v for r, v in enumerate(res.returns) if r != rank] == [63] * 63

