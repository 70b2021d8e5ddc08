"""S3D: stencil/RK/chemistry correctness + Fig. 6 shapes."""

import numpy as np
import pytest

from repro.apps.s3d import (
    advance_chemistry,
    deriv8,
    deriv8_3d,
    filter10,
    integrate,
    N_SPECIES,
    pressure_wave_demo,
    reaction_rates,
    rk4_6stage_step,
    RK_STAGES,
    S3dModel,
    SPECIES,
)
from repro.machines import BGL, BGP, XT3, XT4_DC, XT4_QC


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------
def _wave(n):
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return x, x[1] - x[0]


def test_deriv8_high_accuracy():
    x, dx = _wave(64)
    err = np.max(np.abs(deriv8(np.sin(x), dx) - np.cos(x)))
    assert err < 1e-9


def test_deriv8_eighth_order_convergence():
    errs = []
    for n in (16, 32):
        x, dx = _wave(n)
        errs.append(np.max(np.abs(deriv8(np.sin(3 * x), dx) - 3 * np.cos(3 * x))))
    order = np.log2(errs[0] / errs[1])
    assert order > 7.0  # 8th order: halving dx cuts error ~256x


def test_deriv8_validation():
    with pytest.raises(ValueError):
        deriv8(np.ones(8), dx=0.0)


def test_filter10_kills_nyquist():
    n = 32
    nyquist = np.cos(np.pi * np.arange(n))  # +1,-1,+1,...
    out = filter10(nyquist, strength=1.0)
    assert np.max(np.abs(out)) < 1e-12


def test_filter10_preserves_smooth():
    x, _ = _wave(64)
    smooth = np.sin(x)
    out = filter10(smooth, strength=1.0)
    assert np.max(np.abs(out - smooth)) < 1e-3


def test_filter10_strength_validation():
    with pytest.raises(ValueError):
        filter10(np.ones(16), strength=1.5)


def test_deriv8_3d():
    f = np.zeros((12, 12, 12))
    gx, gy, gz = deriv8_3d(f)
    assert gx.shape == f.shape
    with pytest.raises(ValueError):
        deriv8_3d(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# Runge-Kutta
# ---------------------------------------------------------------------------
def test_rk_accuracy_exponential():
    y = integrate(np.array([1.0]), lambda v: -v, dt=0.1, steps=10)
    assert abs(y[0] - np.exp(-1)) < 1e-6


def test_rk_fourth_order_convergence():
    def solve(dt):
        steps = int(round(1.0 / dt))
        return integrate(np.array([1.0]), lambda v: -v, dt, steps)[0]

    e1 = abs(solve(0.1) - np.exp(-1))
    e2 = abs(solve(0.05) - np.exp(-1))
    order = np.log2(e1 / e2)
    assert order > 3.5


def test_rk_validation():
    with pytest.raises(ValueError):
        rk4_6stage_step(np.ones(3), lambda v: v, dt=0.0)
    with pytest.raises(ValueError):
        integrate(np.ones(3), lambda v: v, 0.1, steps=-1)


def test_rk_stage_count():
    assert RK_STAGES == 6  # "six-stage, fourth-order explicit Runge-Kutta"


# ---------------------------------------------------------------------------
# chemistry
# ---------------------------------------------------------------------------
def test_eleven_species():
    assert N_SPECIES == 11  # "11 chemical species"
    assert "CO" in SPECIES and "H2" in SPECIES and "N2" in SPECIES


def test_rates_conserve_mass():
    rng = np.random.default_rng(3)
    y = rng.random((N_SPECIES, 10))
    y /= y.sum(axis=0)
    t = np.full(10, 1500.0)
    w = reaction_rates(y, t)
    assert np.max(np.abs(w.sum(axis=0))) < 1e-12


def test_advance_keeps_probability_simplex():
    rng = np.random.default_rng(4)
    y = rng.random((N_SPECIES, 8))
    y /= y.sum(axis=0)
    t = np.full(8, 1800.0)
    out = advance_chemistry(y, t, dt=1e-4)
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=0), 1.0)


def test_hot_reacts_faster():
    y = np.full((N_SPECIES, 1), 1.0 / N_SPECIES)
    cold = np.abs(reaction_rates(y, np.array([800.0]))).sum()
    hot = np.abs(reaction_rates(y, np.array([2500.0]))).sum()
    assert hot > cold


def test_chemistry_validation():
    with pytest.raises(ValueError):
        reaction_rates(np.ones((5, 4)), np.full(4, 1000.0))
    with pytest.raises(ValueError):
        advance_chemistry(np.ones((N_SPECIES, 1)), np.array([1000.0]), dt=0)


# ---------------------------------------------------------------------------
# the pressure-wave test problem (Section III.C), for real
# ---------------------------------------------------------------------------
def test_pressure_wave_conserves_mass():
    d = pressure_wave_demo()
    assert d["mass_error"] < 1e-10


def test_pressure_wave_splits_into_two():
    """The Gaussian splits into two half-amplitude travelling waves."""
    d = pressure_wave_demo()
    assert 0.35 < d["peak_ratio"] < 0.65
    assert d["center_drop"] < 0.2  # the bump leaves the center


# ---------------------------------------------------------------------------
# Fig. 6 shapes
# ---------------------------------------------------------------------------
def test_weak_scaling_flat():
    """'S3D exhibits excellent parallel performance on several
    architectures' — the flat lines of Fig. 6."""
    for machine in (BGP, BGL, XT3, XT4_DC, XT4_QC):
        model = S3dModel(machine)
        costs = [
            model.run(p).core_hours_per_point_step for p in (1, 64, 4096)
        ]
        assert max(costs) / min(costs) < 1.2


def test_bgp_costs_more_per_point():
    b = S3dModel(BGP).run(512).core_hours_per_point_step
    x = S3dModel(XT4_QC).run(512).core_hours_per_point_step
    assert 1.8 < b / x < 3.0


def test_platform_ordering():
    """Newer generations are cheaper per point-step, and the XT4/QC
    cheaper than the BG/P."""
    for p in (64, 512):
        costs = {
            m.name: S3dModel(m).run(p).core_hours_per_point_step
            for m in (BGL, BGP, XT3, XT4_QC)
        }
        assert costs["XT4/QC"] < costs["BG/P"] < costs["BG/L"]
        assert costs["XT4/QC"] < costs["XT3"]


def test_50_cubed_default():
    r = S3dModel(BGP).run(64)
    assert r.points_per_rank == 50**3


def test_validation():
    with pytest.raises(ValueError):
        S3dModel(BGP).run(0)
    with pytest.raises(ValueError):
        S3dModel(BGP).run(8, edge=4)  # smaller than the stencil
