"""Ablations: which design choices carry which paper results.

Each test removes one mechanism DESIGN.md calls load-bearing and shows
the paper result it carries collapse, so the result comes from the
mechanism rather than from calibration:

* the collective tree network carries the Fig. 3 broadcast win and the
  allreduce precision effect;
* the barrier network carries the microsecond barriers;
* allocation fragmentation carries the XT's PTRANS variability
  (Fig. 1c);
* the Chronopoulos-Gear reduction fusion carries the XT barotropic
  relief (Fig. 4);
* OpenMP efficiency carries CAM's hybrid-mode advantage (Fig. 5).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.cam import model as cam_model
from repro.apps.cam.model import CamModel, SPECTRAL_T85
from repro.apps.pop import CG_SIGNATURE, CHRONGEAR_SIGNATURE, PopModel
from repro.kernels import PtransModel
from repro.machines import BGP, XT4_QC
from repro.simengine import make_rng
from repro.simmpi import CostModel

#: BG/P with the collective tree (and its barrier network) deleted
BGP_WITHOUT_TREE = replace(BGP, tree=None)


def test_tree_network_carries_the_bcast_win():
    """Without the tree, BG/P broadcast falls to software-binomial cost
    and the Fig. 3c dominance disappears."""
    p, nbytes = 8192, 32 * 1024
    with_tree = CostModel(BGP, "VN", p).bcast_time(nbytes)
    without = CostModel(BGP_WITHOUT_TREE, "VN", p).bcast_time(nbytes)
    xt = CostModel(XT4_QC, "VN", p).bcast_time(nbytes)
    assert with_tree < xt / 2  # the paper's result...
    assert without > xt / 2  # ...is gone without the tree


def test_tree_network_carries_the_allreduce_precision_effect():
    """The float64-vs-float32 allreduce gap is entirely the tree ALU."""
    bare = CostModel(BGP_WITHOUT_TREE, "VN", 1024)
    f64 = bare.allreduce_time(32 * 1024, "float64")
    f32 = bare.allreduce_time(32 * 1024, "float32")
    assert f64 == pytest.approx(f32, rel=0.05)


def test_barrier_network_carries_microsecond_barriers():
    hw = CostModel(BGP, "VN", 8192).barrier_time()
    sw = CostModel(BGP_WITHOUT_TREE, "VN", 8192).barrier_time()
    assert hw < 10e-6
    assert sw > 5 * hw


def test_fragmentation_carries_the_xt_ptrans_spread():
    """Quiet (unfragmented) allocations erase the XT's PTRANS spread."""
    rng = make_rng(21)
    model = PtransModel(XT4_QC)
    busy = [model.run(1024, rng=rng, utilization=0.7).gb_per_s for _ in range(6)]
    quiet = [model.run(1024, rng=rng, utilization=0.0).gb_per_s for _ in range(6)]
    assert np.ptp(busy) / np.mean(busy) > 0.01
    assert np.ptp(quiet) == 0.0


def test_chrongear_carries_the_xt_barotropic_relief():
    """One fused reduction cuts the XT's latency-bound barotropic cost
    at scale: the mechanism the solver variant exists for."""
    pop = PopModel(XT4_QC)
    cg = pop.run(22500, solver=CG_SIGNATURE).barotropic_s_per_day
    ch = pop.run(22500, solver=CHRONGEAR_SIGNATURE).barotropic_s_per_day
    assert ch < 0.8 * cg


def test_openmp_efficiency_carries_the_cam_hybrid_win(monkeypatch):
    """With the OpenMP discount deepened to ~0, hybrid loses its edge."""
    cam = CamModel(BGP, SPECTRAL_T85)
    mpi = cam.run(2048, hybrid=False).syd
    assert cam.run(2048, hybrid=True).syd > 1.5 * mpi  # the paper's benefit
    monkeypatch.setattr(cam_model, "OPENMP_EFFICIENCY", 0.01)
    assert cam.run(2048, hybrid=True).syd < 1.2 * mpi  # gone without it
