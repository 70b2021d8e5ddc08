"""Integration: POP's schedule replayed on the message-level simulator.

These tests exercise the full stack together — engine, torus links,
transport, collectives, application schedule — and anchor the analytic
Fig. 4 model against the simulation at small scale.
"""

import pytest

from repro.apps.pop import (
    BarotropicConfig,
    CG_SIGNATURE,
    CHRONGEAR_SIGNATURE,
    PopGrid,
    PopModel,
    replay_steps,
    STEPS_PER_SIMDAY,
)
from repro.machines import BGP, XT4_DC

#: A scaled-down tenth-degree grid the DES can chew through quickly.
SMALL_GRID = PopGrid(nx=360, ny=240, levels=40)
ITERS = 20


def _analytic_step(machine, processes, iterations=ITERS):
    pm = PopModel(machine, grid=SMALL_GRID)
    pm.barotropic = BarotropicConfig(
        iterations_per_step=iterations, halos_per_iteration=1, halo_width=1
    )
    return pm.run(processes).seconds_per_simday / STEPS_PER_SIMDAY


@pytest.mark.parametrize("machine", [BGP, XT4_DC], ids=lambda m: m.name)
def test_replay_agrees_with_analytic(machine):
    rep = replay_steps(
        machine, processes=16, grid=SMALL_GRID, solver_iterations=ITERS
    )
    ana = _analytic_step(machine, 16)
    assert rep.seconds_per_step == pytest.approx(ana, rel=0.5)


def test_replay_preserves_cross_machine_factor():
    """Whatever the absolute offsets, DES and analytic agree on the
    XT4-vs-BG/P ratio — the quantity Fig. 4c plots."""
    for iters in (10, ITERS):
        rb = replay_steps(BGP, 16, SMALL_GRID, solver_iterations=iters)
        rx = replay_steps(XT4_DC, 16, SMALL_GRID, solver_iterations=iters)
        ana_ratio = _analytic_step(BGP, 16, iters) / _analytic_step(XT4_DC, 16, iters)
        des_ratio = rb.seconds_per_step / rx.seconds_per_step
        assert des_ratio == pytest.approx(ana_ratio, rel=0.2)


def test_replay_message_budget():
    """Message counts are exactly the schedule's: per step, 8 baroclinic
    + 20 barotropic halo exchanges x 4 sends x 16 ranks, plus the tree
    allreduces (no p2p on BG/P)."""
    rep = replay_steps(BGP, 16, SMALL_GRID, solver_iterations=ITERS)
    halo_msgs = (8 + ITERS) * 4 * 16
    assert rep.messages == halo_msgs


def test_replay_xt_allreduces_add_messages():
    """On the XT the solver reductions are software (p2p messages)."""
    b = replay_steps(BGP, 16, SMALL_GRID, solver_iterations=ITERS)
    x = replay_steps(XT4_DC, 16, SMALL_GRID, solver_iterations=ITERS)
    assert x.messages > b.messages


def test_replay_multiple_steps_scale_linearly():
    one = replay_steps(BGP, 8, SMALL_GRID, steps=1, solver_iterations=5)
    three = replay_steps(BGP, 8, SMALL_GRID, steps=3, solver_iterations=5)
    assert three.seconds_per_step == pytest.approx(one.seconds_per_step, rel=0.1)


def test_replay_solver_reduction_count():
    """CG does twice the allreduces of ChronGear — visible in XT p2p
    message counts."""
    cg = replay_steps(
        XT4_DC, 8, SMALL_GRID, solver=CG_SIGNATURE, solver_iterations=10
    )
    ch = replay_steps(
        XT4_DC, 8, SMALL_GRID, solver=CHRONGEAR_SIGNATURE, solver_iterations=10
    )
    assert cg.messages > ch.messages


def test_replay_validation():
    with pytest.raises(ValueError):
        replay_steps(BGP, 0, SMALL_GRID)
