"""DGEMM and FFT kernels: real execution + model shape."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    dgemm_flops,
    DgemmModel,
    fft_flops,
    FftModel,
    run_dgemm_numpy,
    run_fft_numpy,
)
from repro.machines import BGP, XT4_QC


# ---------------------------------------------------------------------------
# DGEMM
# ---------------------------------------------------------------------------
def test_dgemm_flops():
    assert dgemm_flops(10) == 2000
    assert dgemm_flops(2, 3, 4) == 48
    with pytest.raises(ValueError):
        dgemm_flops(0)


def test_run_dgemm_correct():
    run = run_dgemm_numpy(n=128)
    assert run.max_error < 1e-9
    assert run.gflops > 0


def test_dgemm_model_rates():
    """Table 2: BG/P ~3 GF/process, XT4/QC ~7.4 (clock-rate story)."""
    b = DgemmModel(BGP).rate_per_process_gflops()
    x = DgemmModel(XT4_QC).rate_per_process_gflops()
    assert b == pytest.approx(3.4 * 0.87, rel=0.02)
    assert x == pytest.approx(8.4 * 0.88, rel=0.02)
    assert b < x


def test_dgemm_compute_bound():
    assert DgemmModel(BGP).single_equals_ep()


# ---------------------------------------------------------------------------
# FFT
# ---------------------------------------------------------------------------
def test_fft_flops():
    assert fft_flops(8) == pytest.approx(5 * 8 * 3)
    with pytest.raises(ValueError):
        fft_flops(12)  # not a power of two


def test_run_fft_matches_numpy():
    assert run_fft_numpy(512) < 1e-9


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([4, 8, 16, 64, 256, 1024]))
def test_fft_correct_all_sizes(n):
    assert run_fft_numpy(n) < 1e-8


def test_fft_model_shape():
    """Fig. 1b: XT above BG/P, both scale with process count."""
    fb, fx = FftModel(BGP), FftModel(XT4_QC)
    assert fb.single_process_gflops() < fx.single_process_gflops()
    procs = (256, 512, 1024, 2048, 4096, 8192)
    for model in (fb, fx):
        totals = [model.mpi_run(p).gflops_total for p in procs]
        assert totals == sorted(totals)
    for p in procs:
        assert fb.mpi_run(p).gflops_total < fx.mpi_run(p).gflops_total


def test_fft_local_size_power_of_two():
    n = FftModel(BGP).local_problem_size()
    assert n & (n - 1) == 0
    assert n * 16 < BGP.node.memory.capacity_bytes  # fits a VN task
