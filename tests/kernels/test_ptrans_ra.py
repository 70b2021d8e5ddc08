"""PTRANS and RandomAccess: real kernels + model behaviour."""

import numpy as np
import pytest

from repro.kernels import PtransModel, RandomAccessModel, run_ptrans_numpy, run_randomaccess_numpy
from repro.machines import BGP, XT4_QC
from repro.simengine import make_rng


# ---------------------------------------------------------------------------
# PTRANS
# ---------------------------------------------------------------------------
def test_ptrans_exact():
    assert run_ptrans_numpy(n=64, grid=(2, 2), block=8) == 0.0


def test_ptrans_rectangular_grid():
    assert run_ptrans_numpy(n=48, grid=(2, 1), block=8) == 0.0


def test_ptrans_shape_validation():
    with pytest.raises(ValueError):
        run_ptrans_numpy(n=30, grid=(2, 2), block=8)


def test_ptrans_rates_similar_scaling():
    """Fig. 1c: 'Both systems exhibited similar absolute performance
    and scaling trends'."""
    rng = make_rng(5)
    for p in (256, 512, 1024, 2048, 4096, 8192):
        b = PtransModel(BGP).run(p, rng=rng).gb_per_s
        x = PtransModel(XT4_QC).run(p, rng=rng).gb_per_s
        assert 0.1 < x / b < 10  # same order of magnitude


def test_ptrans_xt_variability():
    """Fig. 1c: 'a higher degree of variability on the XT'."""
    rng = make_rng(6)

    def spread(machine):
        rates = [machine_model.run(1024, rng=rng).gb_per_s for _ in range(8)]
        return (max(rates) - min(rates)) / np.mean(rates)

    machine_model = PtransModel(BGP)
    bgp_spread = spread(BGP)
    machine_model = PtransModel(XT4_QC)
    xt_spread = spread(XT4_QC)
    assert bgp_spread == 0.0  # isolated partitions are deterministic
    assert xt_spread > 0.0


def test_ptrans_scaling_monotone():
    rng = make_rng(7)
    model = PtransModel(BGP)
    rates = [model.run(p, rng=rng).gb_per_s for p in (256, 1024, 4096)]
    assert rates == sorted(rates)


# ---------------------------------------------------------------------------
# RandomAccess
# ---------------------------------------------------------------------------
def test_randomaccess_self_verifies():
    """The xor-update stream applied twice restores the table."""
    assert run_randomaccess_numpy(log2_table=8)


def test_randomaccess_bigger_table():
    assert run_randomaccess_numpy(log2_table=12, updates_factor=2)


def test_ra_model_variants():
    m = RandomAccessModel(BGP)
    with pytest.raises(ValueError):
        m.run(64, variant="magic")
    stock = m.run(1024, "stock")
    sandia = m.run(1024, "sandia")
    assert sandia.gups_total > stock.gups_total  # aggregation wins


def test_ra_parity_between_machines():
    """Fig. 1d: 'The two systems showed very similar performance and
    scalability trends' (the observed parity that surprised the
    authors)."""
    for p in (256, 512, 1024, 2048, 4096, 8192):
        b = RandomAccessModel(BGP).run(p).gups_total
        x = RandomAccessModel(XT4_QC).run(p).gups_total
        assert 0.3 < b / x < 3.0


def test_ra_local_rate_reflects_ooo_overlap():
    """The Opteron overlaps misses; the in-order PPC450 cannot."""
    b = RandomAccessModel(BGP).local_update_rate()
    x = RandomAccessModel(XT4_QC).local_update_rate()
    assert x > b


def test_ra_single_process_uses_local_rate():
    m = RandomAccessModel(BGP)
    assert m.run(1).gups_per_process == pytest.approx(
        m.local_update_rate() / 1e9
    )
