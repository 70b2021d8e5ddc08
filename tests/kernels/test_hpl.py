"""HPL: real LU correctness + model calibration against the paper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import block_size_for, hpl_flops, HplModel, run_lu_numpy
from repro.machines import BGP, XT4_QC


# ---------------------------------------------------------------------------
# the real factorization
# ---------------------------------------------------------------------------
def test_lu_residual_tiny():
    """HPL's own pass criterion is a scaled residual < 16."""
    run = run_lu_numpy(n=96, block=32)
    assert run.residual < 16.0


def test_lu_various_block_sizes():
    for block in (1, 7, 32, 200):
        assert run_lu_numpy(n=64, block=block).residual < 16.0


def test_lu_validation():
    with pytest.raises(ValueError):
        run_lu_numpy(n=0)


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 64), st.integers(2, 16))
def test_lu_residual_property(n, block):
    """The factorization is correct for arbitrary sizes/blockings."""
    assert run_lu_numpy(n=n, block=block).residual < 16.0


def test_hpl_flops_formula():
    assert hpl_flops(3) == pytest.approx((2 / 3) * 27 + 1.5 * 9)
    with pytest.raises(ValueError):
        hpl_flops(0)


# ---------------------------------------------------------------------------
# the performance model vs the paper
# ---------------------------------------------------------------------------
def test_block_sizes_from_paper():
    assert block_size_for(BGP) == 144
    assert block_size_for(XT4_QC) == 168


def test_top500_run_matches_paper():
    """Section II.C: 2.140e4 GFlop/s on 8192 cores, N=614399, NB=96."""
    res = HplModel(BGP).top500_run()
    assert res.gflops == pytest.approx(21400, rel=0.03)
    assert res.n == 614399
    assert res.processes == 8192


def test_table3_rmax_bgp():
    """Table 3: BG/P HPL Rmax 21.9 TF on 8192 cores."""
    res = HplModel(BGP).run(8192)
    assert res.gflops / 1e3 == pytest.approx(21.9, rel=0.03)


def test_table3_rmax_xt():
    """Table 3: XT/QC HPL Rmax 205.0 TF on 30976 cores."""
    res = HplModel(XT4_QC).run(30976)
    assert res.gflops / 1e3 == pytest.approx(205.0, rel=0.03)


def test_problem_size_uses_80_percent():
    m = HplModel(BGP)
    n = m.problem_size(4096)
    bytes_needed = 8 * n * n
    total = 4096 * m.mode.memory_per_task
    assert 0.70 * total < bytes_needed <= 0.81 * total


def test_xt_problem_4x_larger():
    """Section II.A: XT nodes have 4x the memory, so ~4x the matrix."""
    nb = HplModel(BGP).problem_size(4096)
    nx = HplModel(XT4_QC).problem_size(4096)
    assert (nx / nb) ** 2 == pytest.approx(4.0, rel=0.1)


def test_both_machines_scale_well():
    """Fig. 1a: 'both systems scaled well'."""
    for machine in (BGP, XT4_QC):
        m = HplModel(machine)
        effs = [m.run(p).efficiency for p in (256, 1024, 4096)]
        assert max(effs) - min(effs) < 0.05


def test_rate_monotone_in_processes():
    """Fig. 1a: near-linear doubling from 256 to 8192 processes, with
    the BG/P below the XT at every count."""
    procs = (256, 512, 1024, 2048, 4096, 8192)
    rates = {m.name: [HplModel(m).run(p).gflops for p in procs] for m in (BGP, XT4_QC)}
    for ys in rates.values():
        assert all(1.8 < b / a < 2.1 for a, b in zip(ys, ys[1:]))
    assert all(b < x for b, x in zip(rates["BG/P"], rates["XT4/QC"]))


def test_invalid_processes():
    with pytest.raises(ValueError):
        HplModel(BGP).run(0)
