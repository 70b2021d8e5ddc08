"""Integration: CAM and MD schedules replayed at message level."""

import pytest

from repro.apps.cam import CamModel, FV_1_9x2_5, SPECTRAL_T42
from repro.apps.cam.des_replay import replay_steps as cam_replay
from repro.apps.md import LammpsModel, PmemdModel
from repro.apps.md.des_replay import replay_steps as md_replay
from repro.machines import BGP, XT4_DC, XT4_QC


# ---------------------------------------------------------------------------
# CAM
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bmk", [SPECTRAL_T42, FV_1_9x2_5], ids=lambda b: b.dycore)
def test_cam_replay_agrees_with_model(bmk):
    tasks = 16
    rep = cam_replay(BGP, bmk, tasks)
    ana = 86400.0 / (CamModel(BGP, bmk).run(tasks).syd * 365.0) / bmk.steps_per_day
    assert rep.seconds_per_step == pytest.approx(ana, rel=0.5)


def test_cam_replay_caps_at_rank_limit():
    rep = cam_replay(BGP, SPECTRAL_T42, tasks=1024)
    assert rep.processes == SPECTRAL_T42.mpi_rank_limit


def test_cam_replay_spectral_uses_alltoall():
    spectral = cam_replay(XT4_QC, SPECTRAL_T42, tasks=8)
    fv = cam_replay(XT4_QC, FV_1_9x2_5, tasks=8)
    # FV's 6 halo sweeps x 2 dirs x 8 ranks = 96 p2p messages/step; the
    # spectral transposes pack into fewer, bigger messages.
    assert fv.messages >= 96
    assert spectral.messages != fv.messages


def test_cam_replay_validation():
    with pytest.raises(ValueError):
        cam_replay(BGP, SPECTRAL_T42, tasks=0)


# ---------------------------------------------------------------------------
# MD
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [LammpsModel, PmemdModel], ids=lambda c: c.code)
def test_md_replay_agrees_with_model(cls):
    p = 16
    rep = md_replay(BGP, cls, p)
    ana = cls(BGP).run(p).seconds_per_step
    assert rep.seconds_per_step == pytest.approx(ana, rel=0.6)


def test_md_replay_pmemd_gathers():
    """PMEMD's output gather appears in the message stream (binomial:
    p-1 extra messages on the output step)."""
    lam = md_replay(XT4_DC, LammpsModel, 8)
    pme = md_replay(XT4_DC, PmemdModel, 8)
    assert pme.messages > lam.messages


def test_md_replay_cross_machine_ordering():
    b = md_replay(BGP, LammpsModel, 16).seconds_per_step
    x = md_replay(XT4_DC, LammpsModel, 16).seconds_per_step
    assert x < b  # XT faster absolute, as in Fig. 8


def test_md_replay_validation():
    with pytest.raises(ValueError):
        md_replay(BGP, LammpsModel, 0)
