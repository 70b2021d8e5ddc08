"""CAM: spectral/FV/physics kernel correctness + Fig. 5 shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cam import (
    CamModel,
    column_physics_step,
    courant_number,
    FV_0_47x0_63,
    FV_1_9x2_5,
    fv_advect_step,
    PhysicsLoadModel,
    spectral_roundtrip_error,
    SPECTRAL_T42,
    SPECTRAL_T85,
    SpectralTransform,
)
from repro.machines import BGP, XT3, XT4_QC


# ---------------------------------------------------------------------------
# spectral dycore kernel
# ---------------------------------------------------------------------------
def test_spectral_roundtrip_exact():
    assert spectral_roundtrip_error(32, 64) < 1e-10


def test_spectral_shapes():
    t = SpectralTransform(16, 32)
    spec = t.forward(np.ones((16, 32)))
    assert spec.shape == (16, 17)
    grid = t.inverse(spec)
    assert grid.shape == (16, 32)


def test_spectral_validation():
    with pytest.raises(ValueError):
        SpectralTransform(2, 32)
    with pytest.raises(ValueError):
        SpectralTransform(16, 33)  # odd nlon
    t = SpectralTransform(16, 32)
    with pytest.raises(ValueError):
        t.forward(np.ones((8, 32)))


def test_bandlimit_idempotent():
    t = SpectralTransform(24, 48)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((24, 48))
    once = t.bandlimit(f)
    twice = t.bandlimit(once)
    assert np.allclose(once, twice, atol=1e-10)


# ---------------------------------------------------------------------------
# FV dycore kernel
# ---------------------------------------------------------------------------
def test_fv_conserves_mass():
    rng = np.random.default_rng(6)
    q = rng.random((20, 30))
    out = fv_advect_step(q, u=0.3, v=-0.2, dx=1.0, dy=1.0, dt=1.0)
    assert out.sum() == pytest.approx(q.sum(), rel=1e-12)


def test_fv_translates_peak():
    q = np.zeros((16, 16))
    q[8, 8] = 1.0
    out = q
    for _ in range(4):  # CFL 1: one cell per step
        out = fv_advect_step(out, u=1.0, v=0.0, dx=1.0, dy=1.0, dt=1.0)
    assert out[8, 12] == pytest.approx(1.0)


def test_fv_cfl_enforced():
    q = np.ones((8, 8))
    with pytest.raises(ValueError):
        fv_advect_step(q, u=2.0, v=0.0, dx=1.0, dy=1.0, dt=1.0)
    assert courant_number(2.0, 0.0, 1.0, 1.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        courant_number(1.0, 1.0, 0.0, 1.0, 1.0)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.integers(4, 20),
)
def test_fv_conservation_property(u, v, n):
    rng = np.random.default_rng(abs(int(u * 100)) + n)
    q = rng.random((n, n))
    out = fv_advect_step(q, u=u, v=v, dx=1.0, dy=1.0, dt=1.0)
    assert out.sum() == pytest.approx(q.sum(), rel=1e-10)


# ---------------------------------------------------------------------------
# physics
# ---------------------------------------------------------------------------
def test_physics_relaxes_toward_equilibrium():
    t = np.full(26, 400.0)  # far too hot aloft
    q = np.zeros(26)
    t2, _ = column_physics_step(t, q, daylight=True)
    assert np.all(t2 < t)  # cooling toward t_eq


def test_physics_condensation_conserves_moist_enthalpy():
    t = np.full(10, 290.0)
    q = np.full(10, 0.05)  # super-saturated
    t2, q2 = column_physics_step(t, q, daylight=False, dt=0.0)
    # dt=0 isolates the adjustment: enthalpy h = T + L q conserved.
    assert np.allclose(t2 + 2.5 * q2, t + 2.5 * q)
    assert np.all(q2 <= q)


def test_physics_imbalance_model():
    pm = PhysicsLoadModel()
    assert pm.imbalance(load_balanced=True) == pytest.approx(1.05)
    assert pm.imbalance(load_balanced=False) > pm.imbalance(load_balanced=True)


# ---------------------------------------------------------------------------
# Fig. 5 shapes
# ---------------------------------------------------------------------------
def test_benchmark_grids():
    assert SPECTRAL_T42.columns == 64 * 128
    assert SPECTRAL_T85.columns == 128 * 256
    assert FV_0_47x0_63.columns == 384 * 576


def test_mpi_caps_at_rank_limit():
    cm = CamModel(BGP, SPECTRAL_T42)
    assert cm.run(64).syd == pytest.approx(cm.run(1024).syd, rel=0.01)


def test_hybrid_extends_scalability():
    """Fig. 5: 'OpenMP parallelism ... provides additional scalability
    for large processor counts'."""
    cm = CamModel(BGP, SPECTRAL_T85)
    assert cm.run(2048, hybrid=True).syd > 1.5 * cm.run(2048, hybrid=False).syd
    for bmk in (SPECTRAL_T42, SPECTRAL_T85, FV_1_9x2_5):
        cm, cores = CamModel(BGP, bmk), 4 * bmk.mpi_rank_limit
        assert cm.run(cores, hybrid=True).syd > 1.5 * cm.run(cores, hybrid=False).syd


def test_hybrid_comparable_small_counts():
    """Fig. 5: hybrid 'comparable to ... pure MPI parallelism for
    smaller processor counts'."""
    cm = CamModel(BGP, SPECTRAL_T85)
    mpi = cm.run(32, hybrid=False).syd
    hyb = cm.run(32, hybrid=True).syd
    assert hyb == pytest.approx(mpi, rel=0.35)


def test_spectral_factor_xt4():
    """'the BG/P is never less than ... 3.1 slower than the XT4 for the
    spectral Eulerian benchmark problems'."""
    for bmk in (SPECTRAL_T42, SPECTRAL_T85):
        for cores in (16, 32, 64):
            ratio = (
                CamModel(XT4_QC, bmk).run(cores).syd
                / CamModel(BGP, bmk).run(cores).syd
            )
            assert ratio >= 3.0


def test_spectral_factor_xt3():
    """'never less than a factor of 2.1 slower than the XT3'."""
    for bmk in (SPECTRAL_T42, SPECTRAL_T85):
        for cores in (32, 64):
            ratio = (
                CamModel(XT3, bmk).run(cores).syd
                / CamModel(BGP, bmk).run(cores).syd
            )
            assert ratio >= 2.05


def test_fv_factors():
    """'the XT4 advantage is between a factor of 2 and 2.5 and XT3
    advantage is less than a factor of 2' for the FV dycore."""
    bgp = CamModel(BGP, FV_1_9x2_5).run(128).syd
    xt4 = CamModel(XT4_QC, FV_1_9x2_5).run(128).syd
    xt3 = CamModel(XT3, FV_1_9x2_5).run(128).syd
    assert 1.9 <= xt4 / bgp <= 2.6
    assert xt3 / bgp < 2.0


def test_fv_largest_pure_mpi_fails_on_bgp():
    """Fig. 5b: pure-MPI FV 0.47x0.63 runs do not complete on BG/P."""
    cm = CamModel(BGP, FV_0_47x0_63)
    for cores in (1024, 2048):
        with pytest.raises(MemoryError):
            cm.run(cores, hybrid=False)
        assert cm.run(cores, hybrid=True).syd > 0  # hybrid works


def test_sweep_skips_failures():
    cm = CamModel(BGP, FV_0_47x0_63)
    assert cm.sweep([256, 1024]) == []  # pure MPI: all fail
    assert len(cm.sweep([256, 1024], hybrid=True)) == 2


def test_phase_breakdown_exposed():
    """Section III.B: CAM's time splits into dynamics and physics."""
    r = CamModel(BGP, SPECTRAL_T85).run(64)
    assert r.dynamics_s_per_step > 0
    assert r.physics_s_per_step > 0
    assert r.comm_s_per_step > 0
    total = r.dynamics_s_per_step + r.physics_s_per_step + r.comm_s_per_step
    implied_syd = 86400.0 / (total * SPECTRAL_T85.steps_per_day * 365.0)
    assert implied_syd == pytest.approx(r.syd, rel=0.01)


def test_load_balancing_affects_only_physics():
    cm = CamModel(BGP, SPECTRAL_T85)
    balanced = cm.run(64, load_balanced=True)
    raw = cm.run(64, load_balanced=False)
    assert raw.physics_s_per_step > balanced.physics_s_per_step
    assert raw.dynamics_s_per_step == pytest.approx(balanced.dynamics_s_per_step)


def test_validation():
    with pytest.raises(ValueError):
        CamModel(BGP, SPECTRAL_T42).run(0)
