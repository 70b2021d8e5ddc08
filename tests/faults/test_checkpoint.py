"""Young/Daly checkpoint model and app-replay integration."""

import math

import pytest

from repro.faults import CheckpointModel
from repro.machines import BGP, XT4_QC


def test_optimal_interval_matches_daly():
    m = CheckpointModel(
        mtbf_seconds=86400.0, checkpoint_seconds=600.0, restart_seconds=900.0
    )
    expected = math.sqrt(2 * 600.0 * 86400.0) - 600.0
    assert m.optimal_interval() == pytest.approx(expected)


def test_degenerate_interval_floors_at_checkpoint_cost():
    m = CheckpointModel(
        mtbf_seconds=10.0, checkpoint_seconds=600.0, restart_seconds=0.0
    )
    assert m.optimal_interval() == pytest.approx(600.0)


def test_expected_runtime_exceeds_work_and_shrinks_with_mtbf():
    frail = CheckpointModel(
        mtbf_seconds=3600.0, checkpoint_seconds=60.0, restart_seconds=120.0
    )
    sturdy = CheckpointModel(
        mtbf_seconds=36000.0, checkpoint_seconds=60.0, restart_seconds=120.0
    )
    work = 24 * 3600.0
    assert frail.expected_runtime(work) > work
    assert sturdy.expected_runtime(work) < frail.expected_runtime(work)
    assert sturdy.inflation(work) > 1.0


def test_optimal_interval_beats_bad_intervals():
    m = CheckpointModel(
        mtbf_seconds=7200.0, checkpoint_seconds=120.0, restart_seconds=300.0
    )
    work = 12 * 3600.0
    best = m.expected_runtime(work)
    assert best <= m.expected_runtime(work, interval=m.optimal_interval() / 8)
    assert best <= m.expected_runtime(work, interval=m.optimal_interval() * 8)


def test_from_machine_bgp_uses_io_forwarding_path():
    m = CheckpointModel.from_machine(BGP, 4096)
    # 4096 nodes * 2 GB * 0.5 through a ~5-10 GB/s path: minutes.
    assert 60.0 < m.checkpoint_seconds < 3600.0
    assert m.mtbf_seconds == pytest.approx(
        BGP.faults.node_mtbf_hours * 3600.0 / 4096
    )
    assert m.restart_seconds > m.checkpoint_seconds


def test_from_machine_xt_uses_filesystem_directly():
    m = CheckpointModel.from_machine(XT4_QC, 4096)
    assert m.checkpoint_seconds > 0
    # XT4/QC: 8 GB/node, lower node MTBF than BG/P -> worse inflation.
    b = CheckpointModel.from_machine(BGP, 4096)
    assert m.inflation(86400.0) > b.inflation(86400.0)


def test_from_machine_validation():
    with pytest.raises(ValueError):
        CheckpointModel.from_machine(BGP, 0)
    with pytest.raises(ValueError):
        CheckpointModel.from_machine(BGP, 64, memory_fraction=0.0)
    with pytest.raises(ValueError):
        CheckpointModel(mtbf_seconds=0.0, checkpoint_seconds=1.0, restart_seconds=0.0)


def test_pop_checkpointed_walltime_two_machines():
    from repro.apps.pop.des_replay import replay_steps
    from repro.apps.pop.grid import PopGrid
    from repro.apps.pop.model import STEPS_PER_SIMDAY
    from repro.apps.replay import checkpointed_walltime

    grid = PopGrid(nx=120, ny=80, levels=8)
    reports = [
        checkpointed_walltime(
            replay_steps, machine, 4, 30.0 * STEPS_PER_SIMDAY,
            system_nodes=4096, grid=grid,
        )
        for machine in (BGP, XT4_QC)
    ]
    for rep in reports:
        assert rep.expected_seconds > rep.work_seconds
        assert rep.inflation > 1.0
        assert str(rep.system_nodes) in rep.format("POP 30 simdays")
    assert reports[0].machine != reports[1].machine


def test_s3d_checkpointed_walltime():
    from repro.apps.replay import checkpointed_walltime
    from repro.apps.s3d.des_replay import replay_steps

    rep = checkpointed_walltime(
        replay_steps, BGP, 4, campaign_steps=1000, system_nodes=4096, edge=20
    )
    assert rep.expected_seconds > 0
    assert rep.inflation > 1.0
