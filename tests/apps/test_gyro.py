"""GYRO: field-solve correctness + Fig. 7 shapes."""

import numpy as np
import pytest

from repro.apps.gyro import (
    B1_STD,
    B3_GTC,
    B3_GTC_MODIFIED,
    fieldsolve_flops,
    GyroModel,
    GyroProblem,
    poisson_solve_fft,
)
from repro.machines import BGL, BGP, XT4_QC


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------
def test_b1_grid():
    """'a 16x140x8x8x20 grid' (Section III.D)."""
    assert (B1_STD.n_toroidal, B1_STD.n_radial) == (16, 140)
    assert B1_STD.points == 16 * 140 * 8 * 8 * 20
    assert B1_STD.timesteps == 500


def test_b3_grid():
    """'a 64x400x8x8x20 grid ... 100 timesteps'."""
    assert (B3_GTC.n_toroidal, B3_GTC.n_radial) == (64, 400)
    assert B3_GTC.timesteps == 100


def test_process_count_granularity():
    """'This test runs on multiples of 16 processes' (B1)."""
    assert B1_STD.valid_process_count(32)
    assert not B1_STD.valid_process_count(24)
    assert B3_GTC.valid_process_count(128)
    assert not B3_GTC.valid_process_count(96)


def test_problem_validation():
    with pytest.raises(ValueError):
        GyroProblem(
            name="bad", n_toroidal=0, n_radial=1, n_theta=1, n_lambda=1,
            n_energy=1, timesteps=1, flops_per_point=1, bytes_per_point=1,
            fft_field_solve=False,
        )


# ---------------------------------------------------------------------------
# field solve (real)
# ---------------------------------------------------------------------------
def test_poisson_solve_inverts_operator():
    rng = np.random.default_rng(1)
    rho = rng.standard_normal(128)
    phi = poisson_solve_fft(rho, alpha=3.0)
    k = 2 * np.pi * np.fft.fftfreq(128, d=1 / 128)
    lhs = np.real(np.fft.ifft((k**2 + 3.0) * np.fft.fft(phi)))
    assert np.allclose(lhs, rho, atol=1e-10)


def test_poisson_batched():
    rng = np.random.default_rng(2)
    rho = rng.standard_normal((4, 64))
    phi = poisson_solve_fft(rho, alpha=1.0)
    assert phi.shape == rho.shape


def test_poisson_validation():
    with pytest.raises(ValueError):
        poisson_solve_fft(np.ones(8), alpha=0.0)
    with pytest.raises(ValueError):
        fieldsolve_flops(1, 4)


# ---------------------------------------------------------------------------
# Fig. 7 shapes
# ---------------------------------------------------------------------------
def test_b1_bgp_outscales_xt4():
    """Fig. 7a: 'the XT4 quickly runs out of work per process ... while
    the BG/P system continues to scale'."""
    gb, gx = GyroModel(BGP, B1_STD), GyroModel(XT4_QC, B1_STD)
    eff_b = gb.run(2048).speedup_vs(gb.run(16)) / 128
    eff_x = gx.run(2048).speedup_vs(gx.run(16)) / 128
    assert eff_b > eff_x + 0.15
    assert eff_b > 0.7


def test_xt4_faster_absolute():
    """'a direct consequence of the difference in processor speed'."""
    assert (
        GyroModel(XT4_QC, B1_STD).run(256).seconds_total
        < GyroModel(BGP, B1_STD).run(256).seconds_total
    )


def test_b3_both_scale_to_2048():
    """Fig. 7b: 'both the XT4 and BG/P scaled up to 2048 processes
    without any significant drop in efficiency'."""
    for m in (BGP, XT4_QC):
        g = GyroModel(m, B3_GTC)
        eff = g.run(2048).speedup_vs(g.run(64)) / 32
        assert eff > 0.75


def test_b3_dual_mode_on_bgp():
    """Fig. 7b: 'on BG/P the code had to be run in "DUAL" mode due to
    memory requirements'."""
    for p in (512, 2048):
        assert GyroModel(BGP, B3_GTC).run(p).mode == "DUAL"
        assert GyroModel(XT4_QC, B3_GTC).run(p).mode == "VN"


def test_b1_fits_vn():
    assert GyroModel(BGP, B1_STD).run(256).mode == "VN"


def test_modified_b3_fits_bgp_vn():
    """'The problem was modified to fit the memory of a BG/P.'"""
    assert GyroModel(BGP, B3_GTC_MODIFIED).run(256).mode == "VN"


def test_weak_scaling_bgp_close_to_bgl():
    """Fig. 7c: 'the BG/P and BG/L numbers are almost the same'."""
    for p in (64, 256, 1024, 2048):
        b = GyroModel(BGP, B3_GTC_MODIFIED).weak_scaling([p])[0].seconds_per_step
        bgl = GyroModel(BGL, B3_GTC_MODIFIED).weak_scaling([p])[0].seconds_per_step
        assert b == pytest.approx(bgl, rel=0.25)


def test_optimized_collectives_would_help_bgp():
    """'This may be due to the lack of use of optimized collectives
    when doing the BG/P experiments.'"""
    p = 1024
    plain = GyroModel(BGP, B3_GTC, optimized_collectives=False).run(p)
    tuned = GyroModel(BGP, B3_GTC, optimized_collectives=True).run(p)
    assert tuned.seconds_per_step < plain.seconds_per_step


def test_invalid_count_rejected():
    with pytest.raises(ValueError):
        GyroModel(BGP, B1_STD).run(24)


def test_strong_scaling_skips_invalid():
    runs = GyroModel(BGP, B1_STD).strong_scaling([16, 24, 32])
    assert [r.processes for r in runs] == [16, 32]
