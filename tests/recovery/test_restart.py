"""The restart driver: rewind-to-checkpoint orchestration.

Includes the acceptance check of the recovery layer: the *executed*
checkpoint/restart protocol must land within 15% of the analytic
Young/Daly ``CheckpointModel.expected_runtime`` on at least two Table 1
machines.
"""

import pytest

from repro.faults import FaultPlan, NodeFail
from repro.machines import BGP, XT4_QC
from repro.recovery import (
    CheckpointSchedule,
    RecoveryPolicy,
    RestartsExhaustedError,
    run_recovered,
)
from repro.simmpi import Cluster

RANKS = 8
STEPS = 10
STEP_SECONDS = 0.5


def _cluster_factory(env):
    return Cluster(BGP, ranks=RANKS, mode="VN", env=env)


def _program_factory(runtime, start_step):
    def program(comm):
        for step in range(start_step, STEPS):
            yield from comm.compute(seconds=STEP_SECONDS)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            req = comm.irecv(src=left, tag=step)
            yield from comm.send(right, 4096, tag=step)
            yield from comm.waitall([req])
            runtime.end_step(comm, step)
            yield from runtime.maybe_checkpoint(comm, step)
        return comm.now

    return program


def _policy(interval=1.4, write=0.2, restart=0.5, **kw):
    return RecoveryPolicy(
        mode="restart",
        schedule=CheckpointSchedule(
            interval_seconds=interval,
            write_seconds=write,
            restart_seconds=restart,
        ),
        **kw,
    )


def _plan(kill_time=2.6, rank=5):
    node = Cluster(BGP, ranks=RANKS, mode="VN").mapping.node_of(rank)
    return FaultPlan((NodeFail(time=kill_time, node=node),))


def test_restart_completes_and_accounts_exactly():
    out = run_recovered(
        _policy(), _cluster_factory, _program_factory,
        plan=_plan(), sanitize=True,
    )
    assert out.attempts == 2
    assert out.checkpoints_written >= 2
    assert out.failed_ranks  # the killed node's ranks
    t = out.times
    assert t.walltime == pytest.approx(
        t.clean + t.lost + t.rework + t.checkpoint_overhead
    )
    kinds = {seg.kind for seg in out.segments}
    assert {"clean", "lost", "ckpt", "restart"} <= kinds
    # Segments tile one continuous timeline across both attempts.
    edge = 0.0
    for seg in out.segments:
        assert seg.start == pytest.approx(edge, abs=1e-12)
        edge = seg.end
    assert edge == pytest.approx(t.walltime, abs=1e-9)
    # The final attempt finished past the failure: elapsed is positive
    # and the run produced per-rank results on every rank.
    assert len(out.result.returns) == RANKS


def test_restart_rewinds_to_durable_step():
    """Work after the last completed checkpoint is re-executed."""
    out = run_recovered(
        _policy(), _cluster_factory, _program_factory, plan=_plan()
    )
    # The failure hit mid-step-3 with a checkpoint completed after step
    # 2: steps 0..2 must never be re-executed (no rework segments for
    # them), and there is lost time for the aborted progress.
    reworked = {s.step for s in out.segments if s.kind == "rework"}
    assert all(step is None or step >= 3 for step in reworked)
    assert out.times.lost > 0


def test_fault_at_time_zero_kills_the_first_attempt():
    """A fault planned at t=0 fires, as it does under a plain Cluster.run."""
    out = run_recovered(
        _policy(), _cluster_factory, _program_factory, plan=_plan(kill_time=0.0)
    )
    assert out.attempts == 2
    assert out.failed_ranks


def test_no_faults_single_attempt():
    out = run_recovered(_policy(), _cluster_factory, _program_factory)
    assert out.attempts == 1
    assert out.failed_ranks == frozenset()
    assert out.times.lost == 0 and out.times.rework == 0
    assert out.times.clean == pytest.approx(
        out.times.walltime - out.times.checkpoint_overhead
    )


def test_restarts_exhausted():
    """A plan that keeps killing nodes exhausts max_restarts."""
    node0 = Cluster(BGP, ranks=RANKS, mode="VN").mapping.node_of(5)
    node1 = Cluster(BGP, ranks=RANKS, mode="VN").mapping.node_of(0)
    plan = FaultPlan(
        tuple(
            NodeFail(time=2.6 + 3.0 * k, node=(node0 if k % 2 else node1))
            for k in range(8)
        )
    )
    with pytest.raises(RestartsExhaustedError) as info:
        run_recovered(
            _policy(max_restarts=2), _cluster_factory, _program_factory,
            plan=plan,
        )
    assert info.value.attempts == 3
    assert info.value.entity == "recovery-driver"


def test_cluster_factory_must_use_given_engine():
    with pytest.raises(ValueError, match="provided engine"):
        run_recovered(
            _policy(),
            lambda env: Cluster(BGP, ranks=RANKS, mode="VN"),
            _program_factory,
        )


@pytest.mark.parametrize("machine", [BGP, XT4_QC], ids=lambda m: m.name)
def test_simulated_restart_matches_analytic_model(machine):
    """Executed checkpoint/restart within 15% of Young/Daly (Table 1)."""
    from repro.recovery.scenarios import simulate_checkpointing

    cmp_ = simulate_checkpointing(machine, steps=300)
    assert cmp_.attempts >= 2, "the plan must actually kill the job"
    assert cmp_.checkpoints >= 2
    assert abs(cmp_.delta_fraction) < 0.15, cmp_.format()
