"""HALO benchmark: real exchange correctness + paper Fig. 2 shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import run_experiment
from repro.halo import (
    best_mapping,
    get_protocol,
    halo_exchange_numpy,
    HaloBenchmark,
    HaloSpec,
    neighbors2d,
    PROTOCOLS,
    WORD_BYTES,
)
from repro.machines import BGP
from repro.topology import PAPER_FIG2_MAPPINGS


# ---------------------------------------------------------------------------
# the real exchange
# ---------------------------------------------------------------------------
def test_numpy_halo_exact():
    assert halo_exchange_numpy(grid=(4, 4), local=8) == 0.0


def test_numpy_halo_rectangular():
    assert halo_exchange_numpy(grid=(2, 5), local=6) == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(3, 10))
def test_numpy_halo_property(px, py, local):
    """The exchange is exact for every grid/block size."""
    assert halo_exchange_numpy(grid=(px, py), local=local) == 0.0


def test_neighbors_periodic():
    nb = neighbors2d(0, (4, 4))
    assert nb["west"] == 3  # wraps
    assert nb["north"] == 12  # wraps
    assert nb["east"] == 1
    assert nb["south"] == 4


def test_neighbors_validation():
    with pytest.raises(ValueError):
        neighbors2d(16, (4, 4))


def test_spec_sizes():
    spec = HaloSpec(grid=(4, 4), words=100)
    assert spec.north_bytes == 100 * WORD_BYTES
    assert spec.south_bytes == 200 * WORD_BYTES
    assert spec.total_bytes_per_rank == 2 * 300 * WORD_BYTES
    with pytest.raises(ValueError):
        HaloSpec(grid=(0, 4), words=10)
    with pytest.raises(ValueError):
        HaloSpec(grid=(4, 4), words=0)


def test_protocol_lookup():
    assert get_protocol("sendrecv").serializes
    assert not get_protocol("ISEND_IRECV").serializes
    with pytest.raises(KeyError):
        get_protocol("CARRIER_PIGEON")


# ---------------------------------------------------------------------------
# DES vs analytic
# ---------------------------------------------------------------------------
def test_des_vs_analytic_small_scale():
    hb = HaloBenchmark(BGP, grid=(4, 4), mode="VN", mapping="TXYZ")
    for words in (8, 512):
        des = hb.run_des(words)
        ana = hb.time_analytic(words)
        assert des == pytest.approx(ana, rel=1.0)


def test_des_protocols_all_run():
    hb = HaloBenchmark(BGP, grid=(4, 4), mode="VN", mapping="TXYZ")
    times = {p: hb.run_des(64, protocol=p) for p in PROTOCOLS}
    assert all(t > 0 for t in times.values())


# ---------------------------------------------------------------------------
# paper Fig. 2 shapes
# ---------------------------------------------------------------------------
def test_protocol_insensitivity_small_halos():
    """Fig. 2a/b: 'performance is relatively insensitive to the choice
    of protocol'."""
    hb = HaloBenchmark(BGP, grid=(16, 16), mode="VN", mapping="TXYZ")
    times = [hb.time_analytic(8, p) for p in PROTOCOLS]
    assert max(times) / min(times) < 2.5


def test_protocol_choice_minor_on_a_large_grid():
    """Fig. 2a/b on a 32x32 grid, small and large halos alike."""
    hb = HaloBenchmark(BGP, grid=(32, 32), mode="VN", mapping="TXYZ")
    for words in (8, 2048):
        times = [hb.time_analytic(words, p) for p in PROTOCOLS]
        assert max(times) / min(times) < 2.5


def test_sendrecv_slower_at_some_sizes():
    """Fig. 2a: 'MPI_SENDRECV is slower than the other options for
    certain halo sizes'."""
    hb = HaloBenchmark(BGP, grid=(16, 16), mode="VN", mapping="TXYZ")
    slower_somewhere = any(
        hb.time_analytic(w, "SENDRECV") > 1.1 * hb.time_analytic(w, "ISEND_IRECV")
        for w in (8, 512, 8192, 65536)
    )
    assert slower_somewhere


def test_mapping_unimportant_small_volumes():
    """Fig. 2c/d: 'the choice of mapping is unimportant for small halo
    volumes'."""
    times = [
        HaloBenchmark(BGP, (32, 32), mode="VN", mapping=m).time_analytic(4)
        for m in ("TXYZ", "XYZT", "TZYX")
    ]
    assert max(times) / min(times) < 1.5
    times = [
        HaloBenchmark(BGP, (64, 64), mode="VN", mapping=m).time_analytic(4)
        for m in PAPER_FIG2_MAPPINGS
    ]
    assert max(times) / min(times) < 1.5


def test_mapping_important_large_volumes():
    """Fig. 2c/d: 'it is important for larger volumes for these large
    processor grids'."""
    times = [
        HaloBenchmark(BGP, (64, 64), mode="VN", mapping=m).time_analytic(50000)
        for m in PAPER_FIG2_MAPPINGS
    ]
    assert max(times) / min(times) > 2.0


def test_cost_flat_in_grid_size():
    """Fig. 2e/f: 'the cost does not appear to be increasing as a
    function of the processor grid size' — good scalability."""
    best = [
        best_mapping(BGP, grid, 2048, list(PAPER_FIG2_MAPPINGS))[1]
        for grid in ((16, 16), (32, 32), (64, 64))
    ]
    assert max(best) < 3 * min(best)


def test_sweep_returns_points():
    hb = HaloBenchmark(BGP, grid=(8, 8), mode="VN", mapping="TXYZ")
    pts = hb.sweep([8, 64, 512])
    assert [p.words for p in pts] == [8, 64, 512]
    assert all(p.seconds > 0 for p in pts)
    # Cost grows with halo width.
    assert pts[-1].seconds > pts[0].seconds


def test_fig2_analyzes_each_configuration_once(monkeypatch):
    """Fig. 2's six panels plot 82 (grid, mode, mapping) benchmarks, 64
    of them distinct; each distinct one's link loads are analysed once."""
    analyzed = []
    analyze = HaloBenchmark._analyze_phases

    def counting(self):
        if self._phases is None:
            analyzed.append((self.grid, self.mode.mode, self.mapping_name))
        return analyze(self)

    monkeypatch.setattr(HaloBenchmark, "_analyze_phases", counting)
    run_experiment("fig2")
    assert len(analyzed) == len(set(analyzed)) == 64


def test_grid_capacity_validated():
    with pytest.raises(ValueError):
        # 1 node in SMP can host 1 rank; a 64x64 grid cannot fit.
        HaloBenchmark(BGP.with_nodes(1), grid=(64, 64), mode="SMP")
