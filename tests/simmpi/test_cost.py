"""Analytic cost-model behaviour and paper-shape assertions."""

import pytest

from repro.machines import BGP, XT4_QC
from repro.simmpi import CostModel


def cm(machine, ranks=64, mode="VN", **kw):
    return CostModel(machine, mode, ranks, **kw)


def test_validation():
    with pytest.raises(ValueError):
        CostModel(BGP, "VN", 0)
    with pytest.raises(ValueError):
        cm(BGP).p2p_time(-1)


def test_p2p_monotone_in_size():
    m = cm(BGP)
    assert m.p2p_time(1 << 20) > m.p2p_time(1 << 10) > m.p2p_time(0)


def test_rendezvous_jump_at_threshold():
    m = cm(BGP)
    below = m.p2p_time(BGP.mpi.eager_threshold)
    above = m.p2p_time(BGP.mpi.eager_threshold + 1)
    assert above - below > BGP.mpi.rendezvous_overhead * 0.9


def test_bgp_latency_advantage_xt_bandwidth_advantage():
    """Table 2: BG/P strength low latency; XT strength high bandwidth."""
    b, x = cm(BGP), cm(XT4_QC)
    assert b.p2p_time(8) < x.p2p_time(8)
    assert b.p2p_bandwidth < x.p2p_bandwidth


def test_intranode_cheaper_than_network():
    m = cm(BGP)
    assert m.p2p_time(1 << 14, intranode=True) < m.p2p_time(1 << 14)


def test_barrier_hardware_vs_software():
    assert cm(BGP, 4096).barrier_time() < cm(XT4_QC, 4096).barrier_time()


def test_bcast_tree_vs_binomial():
    """Fig. 3c/d shape: BG/P bcast beats XT at every size and scale."""
    for nbytes in (64, 4096, 1 << 20):
        for p in (64, 1024, 8192):
            assert cm(BGP, p).bcast_time(nbytes) < cm(XT4_QC, p).bcast_time(nbytes)


def test_bcast_scaling_flat_on_tree():
    """Tree bcast cost grows only with depth, not rank count."""
    t1 = cm(BGP, 512).bcast_time(32 * 1024)
    t2 = cm(BGP, 8192).bcast_time(32 * 1024)
    assert t2 < 1.5 * t1


def test_allreduce_precision_effect_bgp_only():
    """Fig. 3a/b: double >> single on BG/P; no such effect on the XT."""
    p, nbytes = 1024, 32 * 1024
    bgp_d = cm(BGP, p).allreduce_time(nbytes, "float64")
    bgp_s = cm(BGP, p).allreduce_time(nbytes, "float32")
    assert bgp_d < bgp_s / 2
    xt_d = cm(XT4_QC, p).allreduce_time(nbytes, "float64")
    xt_s = cm(XT4_QC, p).allreduce_time(nbytes, "float32")
    assert xt_d == pytest.approx(xt_s, rel=0.05)


def test_allreduce_single_rank_trivial():
    assert cm(BGP, 1).allreduce_time(1024) < 1e-5


def test_alltoall_grows_superlinearly_in_ranks():
    nb = 1024
    t64 = cm(XT4_QC, 64).alltoall_time(nb)
    t256 = cm(XT4_QC, 256).alltoall_time(nb)
    assert t256 > 3 * t64


def test_alltoall_single_rank_zero():
    assert cm(BGP, 1).alltoall_time(1024) == 0.0


def test_allgather_single_rank_zero():
    assert cm(BGP, 1).allgather_time(1024) == 0.0


def test_random_ring_shapes():
    """Table 2: BG/P lower random-ring latency, XT higher bandwidth."""
    b, x = cm(BGP, 4096), cm(XT4_QC, 4096)
    assert b.random_ring_latency() < x.random_ring_latency()
    assert b.random_ring_bandwidth() < x.random_ring_bandwidth()


def test_compute_time_roofline():
    m = cm(BGP, 4, mode="VN")
    # Pure flops: bound by 3.4 GF/s per core.
    assert m.compute_time(flops=3.4e9) == pytest.approx(1.0, rel=0.01)
    # Pure streaming: bound by the VN-mode share of node bandwidth.
    bw = m.mode.stream_bw_per_task
    assert m.compute_time(flops=0, bytes_moved=bw) == pytest.approx(1.0, rel=0.01)
    with pytest.raises(ValueError):
        m.compute_time(flops=-1)


def test_partition_contention_slows_xt():
    import numpy as np

    quiet = CostModel(XT4_QC, "VN", 1024, utilization=0.0)
    rng = np.random.default_rng(3)
    busy = CostModel(XT4_QC, "VN", 1024, rng=rng, utilization=0.9)
    assert busy.p2p_time(1 << 20) > quiet.p2p_time(1 << 20)


def test_partition_too_small_rejected():
    from repro.topology import allocate

    part = allocate(BGP, 2)
    with pytest.raises(ValueError):
        CostModel(BGP, "VN", 1024, partition=part)


def test_partition_constants_computed_once(monkeypatch):
    """``avg_hops`` is fixed at construction: the torus's mean distance
    is taken once per model, not once per message round."""
    from repro.topology.torus import Torus3D

    calls = []
    average_distance = Torus3D.average_distance

    def counting(self):
        calls.append(self.shape)
        return average_distance(self)

    monkeypatch.setattr(Torus3D, "average_distance", counting)
    m = cm(XT4_QC, 1024)
    for nbytes in (4, 2048, 2049, 1 << 20):
        m.p2p_time(nbytes)
        m.bcast_time(nbytes)
        m.allreduce_time(nbytes, "float32")
    m.random_ring_bandwidth()
    assert len(calls) == 1
