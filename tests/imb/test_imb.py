"""IMB collective benchmarks: Fig. 3 shapes."""

import pytest

from repro.imb import DEFAULT_PROC_COUNTS, DEFAULT_SIZES, ImbBenchmark
from repro.machines import BGP, XT4_QC


def test_size_sweep_structure():
    pts = ImbBenchmark(BGP).size_sweep("allreduce", processes=256)
    assert len(pts) == len(DEFAULT_SIZES)
    assert all(p.processes == 256 for p in pts)
    # Latency grows with size.
    lats = [p.latency_us for p in pts]
    assert lats[-1] > lats[0]


def test_process_sweep_structure():
    pts = ImbBenchmark(BGP).process_sweep("bcast")
    assert [p.processes for p in pts] == list(DEFAULT_PROC_COUNTS)


def test_unknown_operation():
    with pytest.raises(ValueError):
        ImbBenchmark(BGP).size_sweep("alltoallw", processes=16)


def test_fig3a_allreduce_precision_bgp():
    """Fig. 3a: 'a substantial performance benefit to using double
    precision over single precision on the BG/P but not the Cray XT'."""
    b = ImbBenchmark(BGP)
    for nbytes in (1024, 32768):
        d = b.size_sweep("allreduce", 8192, [nbytes], "float64")[0].latency_us
        s = b.size_sweep("allreduce", 8192, [nbytes], "float32")[0].latency_us
        assert d < s / 2
    x = ImbBenchmark(XT4_QC)
    d = x.size_sweep("allreduce", 8192, [32768], "float64")[0].latency_us
    s = x.size_sweep("allreduce", 8192, [32768], "float32")[0].latency_us
    assert d == pytest.approx(s, rel=0.05)


def test_fig3b_allreduce_scalability():
    """Fig. 3b: 'the BG/P's double precision Allreduce scalability was
    exceptional across the tested range of process counts'."""
    growth = {}
    for m in (BGP, XT4_QC):
        pts = ImbBenchmark(m).process_sweep("allreduce", 32768)
        growth[m.name] = pts[-1].latency_us / pts[0].latency_us
    assert growth["BG/P"] < 1.5  # nearly flat 16 -> 8192: the tree depth
    assert growth["BG/P"] < growth["XT4/QC"]


def test_fig3c_bcast_bgp_dominates():
    """Fig. 3c: 'the BG/P dramatically outperforms the Cray XT for all
    message sizes'."""
    for nbytes in (4, 1024, 32768, 1048576):
        b = ImbBenchmark(BGP).size_sweep("bcast", 8192, [nbytes])[0].latency_us
        x = ImbBenchmark(XT4_QC).size_sweep("bcast", 8192, [nbytes])[0].latency_us
        assert b < x / 2


def test_fig3d_bcast_scaling():
    """Fig. 3d: BG/P bcast latency nearly flat in process count; the
    XT software tree grows logarithmically."""
    b = ImbBenchmark(BGP).process_sweep("bcast", 32768)
    x = ImbBenchmark(XT4_QC).process_sweep("bcast", 32768)
    b_growth = b[-1].latency_us / b[0].latency_us
    x_growth = x[-1].latency_us / x[0].latency_us
    assert b_growth < x_growth


def test_bcast_precision_irrelevant():
    """Section II.B.2: 'numerical precision had no substantive impact
    on Bcast latency'."""
    b = ImbBenchmark(BGP)
    d = b.size_sweep("bcast", 1024, [32768], "float64")[0].latency_us
    s = b.size_sweep("bcast", 1024, [32768], "float32")[0].latency_us
    assert d == pytest.approx(s, rel=0.05)


def test_des_cross_check_small():
    bench = ImbBenchmark(BGP)
    des = bench.measure_des("bcast", processes=16, nbytes=4096)
    ana = bench.size_sweep("bcast", processes=16, sizes=[4096])[0]
    assert des.latency_us == pytest.approx(ana.latency_us, rel=1.0)


def test_fig3_builds_one_cost_model_per_machine_and_count(monkeypatch):
    """fig3 sweeps 72 points over two machines and six process counts;
    the points at one count share their analytic model."""
    from repro.core import run_experiment
    from repro.simmpi import CostModel

    builds = []
    init = CostModel.__init__

    def counting_init(self, machine, mode, ranks, *args, **kwargs):
        builds.append((machine.name, mode, ranks))
        init(self, machine, mode, ranks, *args, **kwargs)

    monkeypatch.setattr(CostModel, "__init__", counting_init)
    run_experiment("fig3", nbytes=2049, processes=128)
    assert len(builds) == len(set(builds)) == 2 * 6
