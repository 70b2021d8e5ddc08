"""POP: real solver/kernel correctness + Fig. 4 / Table 3 shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.pop import (
    baroclinic_step_numpy,
    CG_SIGNATURE,
    cg_solve,
    CHRONGEAR_SIGNATURE,
    chrongear_solve,
    decompose,
    imbalance,
    laplacian_2d,
    MAX_BGP_PROCESSES,
    PopGrid,
    PopModel,
    seconds_per_simday_to_syd,
    TENTH_DEGREE,
)
from repro.machines import BGP, XT4_DC


# ---------------------------------------------------------------------------
# grid and decomposition
# ---------------------------------------------------------------------------
def test_tenth_degree_grid():
    assert TENTH_DEGREE.nx == 3600
    assert TENTH_DEGREE.ny == 2400
    assert TENTH_DEGREE.levels == 40
    assert TENTH_DEGREE.points3d == 3600 * 2400 * 40


def test_land_mask_fraction():
    g = PopGrid(nx=360, ny=240, levels=4, ocean_fraction=0.71)
    mask = g.land_mask()
    land_frac = mask.mean()
    assert land_frac == pytest.approx(0.29, abs=0.03)


def test_decompose_covers():
    px, py = decompose(8000, 3600, 2400)
    assert px * py == 8000


@settings(max_examples=20)
@given(st.integers(1, 5000))
def test_decompose_property(p):
    px, py = decompose(p, 3600, 2400)
    assert px * py == p
    assert px >= 1 and py >= 1


def test_imbalance_at_least_one():
    for p in (100, 1000, 8000):
        assert imbalance(TENTH_DEGREE, p).factor >= 1.0


def test_imbalance_grows_with_ranks():
    small = imbalance(TENTH_DEGREE, 500).factor
    large = imbalance(TENTH_DEGREE, 40000).factor
    assert large >= small


# ---------------------------------------------------------------------------
# solvers (the real numerics)
# ---------------------------------------------------------------------------
def _rhs(n=16, seed=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


def test_cg_converges():
    b = _rhs()
    res = cg_solve(b)
    assert res.residual < 1e-9
    assert np.allclose(laplacian_2d(res.x), b, atol=1e-7)


def test_chrongear_converges_same_answer():
    b = _rhs()
    x1 = cg_solve(b).x
    x2 = chrongear_solve(b).x
    assert np.allclose(x1, x2, atol=1e-6)


def test_chrongear_halves_reductions():
    """The whole point of the C-G variant: one fused allreduce per
    iteration instead of two."""
    b = _rhs()
    std = cg_solve(b)
    cg = chrongear_solve(b)
    assert cg.reductions < std.reductions * 0.7
    assert CG_SIGNATURE.allreduces_per_iter == 2
    assert CHRONGEAR_SIGNATURE.allreduces_per_iter == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 24))
def test_solvers_agree_property(n):
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    assert np.allclose(cg_solve(b).x, chrongear_solve(b).x, atol=1e-5)


# ---------------------------------------------------------------------------
# baroclinic kernel
# ---------------------------------------------------------------------------
def test_baroclinic_conserves_tracer():
    rng = np.random.default_rng(8)
    f = rng.random((4, 16, 16))
    out = baroclinic_step_numpy(f)
    assert out.sum() == pytest.approx(f.sum(), rel=1e-12)


def test_baroclinic_smooths():
    f = np.zeros((1, 32, 32))
    f[0, 16, 16] = 1.0
    out = baroclinic_step_numpy(f, dt=0.5, kappa=0.2)
    assert out[0, 16, 16] < 1.0
    assert out[0, 15, 16] > 0.0


def test_baroclinic_shape_validation():
    with pytest.raises(ValueError):
        baroclinic_step_numpy(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# the performance model vs the paper
# ---------------------------------------------------------------------------
def test_syd_conversion():
    assert seconds_per_simday_to_syd(86400.0 / 365.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        seconds_per_simday_to_syd(0.0)


def test_bgp_3_6_syd_at_8000():
    """Table 3 / Fig. 4: BG/P obtains 3.6 SYD at ~8192 cores."""
    assert PopModel(BGP).run(8000).syd == pytest.approx(3.6, rel=0.08)


def test_xt4_factor_3_6_at_8000():
    """Fig. 4c: 'XT4 performance is approximately 3.6 times that of the
    BG/P for 8000 processes'."""
    ratio = PopModel(XT4_DC).run(8000).syd / PopModel(BGP).run(8000).syd
    assert ratio == pytest.approx(3.6, rel=0.15)


def test_xt4_factor_2_5_at_22500():
    """Fig. 4c: '... and 2.5 times for 22500 processes'."""
    ratio = PopModel(XT4_DC).run(22500).syd / PopModel(BGP).run(22500).syd
    assert ratio == pytest.approx(2.5, rel=0.15)


def test_bgp_scales_to_40000():
    """Fig. 4a: 'scaling is linear out to 8000 processes, and is still
    scaling well out to 40,000'."""
    pop = PopModel(BGP)
    syd = {p: pop.run(p).syd for p in (2000, 4000, 8000, 40000)}
    assert syd[4000] / syd[2000] == pytest.approx(2.0, rel=0.1)  # linear
    assert syd[8000] / syd[4000] == pytest.approx(2.0, rel=0.1)
    assert syd[40000] / syd[8000] > 2.5  # well above flat


def test_memory_wall_beyond_40000():
    """Section III.A: runs with more than 40000 processes failed."""
    with pytest.raises(MemoryError):
        PopModel(BGP).run(MAX_BGP_PROCESSES + 1)
    # ... but only on BG/P, and only above the wall.
    PopModel(BGP).run(MAX_BGP_PROCESSES)


def test_mode_insensitivity():
    """Fig. 4a: 'performance is relatively insensitive to the execution
    modes'."""
    pop = PopModel(BGP)
    vn = pop.run(8000, mode="VN").syd
    smp = pop.run(8000, mode="SMP").syd
    assert vn == pytest.approx(smp, rel=0.15)


def test_solver_choice_minor():
    """Fig. 4a: little practical impact of CG vs ChronGear on total."""
    pop = PopModel(BGP)
    cg = pop.run(8000, solver=CG_SIGNATURE).syd
    cheby = pop.run(8000, solver=CHRONGEAR_SIGNATURE).syd
    assert cg == pytest.approx(cheby, rel=0.1)


def test_chrongear_wins_at_scale_on_xt():
    """Section III.A: C-G 'a little faster for larger process counts'
    — fewer latency-bound reductions matter most on the XT."""
    pop = PopModel(XT4_DC)
    cg = pop.run(22500, solver=CG_SIGNATURE)
    cheby = pop.run(22500, solver=CHRONGEAR_SIGNATURE)
    assert cheby.barotropic_s_per_day < cg.barotropic_s_per_day


def test_xt4_barotropic_saturates():
    """Fig. 4d: 'XT4 Barotropic performance has stopped improving
    beyond 8000 processes'; on BG/P it keeps improving."""
    xt = PopModel(XT4_DC)
    assert (
        xt.run(22500).barotropic_s_per_day
        > 0.8 * xt.run(8000).barotropic_s_per_day
    )
    bgp = PopModel(BGP)
    assert bgp.run(40000).barotropic_s_per_day < bgp.run(8000).barotropic_s_per_day


def test_bgp_barotropic_beats_xt4_at_22500():
    """Fig. 4d: 'Barotropic performance is superior on the BG/P for
    22500 processes (and higher)'."""
    bgp = PopModel(BGP).run(22500).barotropic_s_per_day
    assert bgp < PopModel(XT4_DC).run(22500).barotropic_s_per_day


def test_imbalance_comparable_to_barotropic():
    """Fig. 4b: 'the Baroclinic load imbalance ... is as large as the
    cost of the Barotropic phase for 8000 to 20000 processes'."""
    for p in (8000, 16000):
        r = PopModel(BGP).run(p)
        assert 0.5 < r.imbalance_s_per_day / r.barotropic_s_per_day < 10


def test_bgp_barotropic_less_than_half_baroclinic_at_40k():
    """Fig. 4d: barotropic 'is less than half the cost of the
    Baroclinic phase for 40000 processes'."""
    r = PopModel(BGP).run(40000)
    assert r.barotropic_s_per_day < 0.5 * r.baroclinic_s_per_day


def test_cores_for_12_syd():
    """Table 3: ~40,000 BG/P cores vs ~7,500 XT cores for 12 SYD."""
    assert PopModel(BGP).cores_for_syd(12.0) == pytest.approx(40000, rel=0.1)
    assert PopModel(XT4_DC).cores_for_syd(12.0) == pytest.approx(7500, rel=0.1)


def test_mapping_sensitivity_small():
    """Section III.A: 'The difference in performance between using the
    TXYZ ordering and the best observed among the other predefined
    mappings was less than 1.4% for VN mode'."""
    sens = PopModel(BGP).mapping_sensitivity(8000, "VN")
    best = max(sens.values())
    assert (best - sens["TXYZ"]) / sens["TXYZ"] < 0.014


def test_mapping_sensitivity_bg_only():
    with pytest.raises(ValueError):
        PopModel(XT4_DC).mapping_sensitivity(8000)


def test_sweep_stops_at_memory_wall():
    runs = PopModel(BGP).sweep([8000, 40000, 50000])
    assert [r.processes for r in runs] == [8000, 40000]


def test_unknown_machine_calibration():
    from repro.machines import MachineSpec
    from dataclasses import replace

    fake = replace(BGP, name="BG/Q")
    with pytest.raises(KeyError):
        PopModel(fake)
