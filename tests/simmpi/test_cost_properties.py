"""Property-based tests on the analytic cost model's invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machines import all_machines, available_modes, BGP, resolve_mode, XT4_QC
from repro.simmpi import CostModel
from repro.topology.torus import Torus3D

MACHINES = list(all_machines().values())


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(MACHINES),
    st.integers(1, 4096),
    st.integers(0, 1 << 22),
)
def test_all_costs_nonnegative_and_finite(machine, ranks, nbytes):
    """Every cost function returns a finite, non-negative time for any
    in-range configuration."""
    mode = "VN"
    if ranks > machine.total_cores:
        ranks = machine.total_cores
    c = CostModel(machine, mode, ranks)
    values = [
        c.p2p_time(nbytes),
        c.barrier_time(),
        c.bcast_time(nbytes),
        c.allreduce_time(nbytes, "float64"),
        c.allreduce_time(nbytes, "float32"),
        c.allgather_time(nbytes),
        c.alltoall_time(nbytes),
        c.gather_time(nbytes),
        c.reduce_time(nbytes),
    ]
    for v in values:
        assert v >= 0.0
        assert v == v and v != float("inf")  # finite


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 2048), st.integers(0, 1 << 20))
def test_collectives_monotone_in_payload(ranks, nbytes):
    c = CostModel(BGP, "VN", ranks)
    for fn in (c.bcast_time, c.allgather_time, c.alltoall_time):
        assert fn(nbytes * 2) >= fn(nbytes) - 1e-15


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(0, 1 << 16))
def test_software_collectives_monotone_in_ranks(log2p, nbytes):
    """Doubling the rank count never makes a software collective
    cheaper (on the XT, with no offload hardware)."""
    p = 1 << log2p
    if p * 2 > XT4_QC.total_cores:
        return
    a = CostModel(XT4_QC, "VN", p)
    b = CostModel(XT4_QC, "VN", p * 2)
    assert b.bcast_time(nbytes) >= a.bcast_time(nbytes) - 1e-12
    assert b.barrier_time() >= a.barrier_time() - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4096))
def test_tree_allreduce_beats_software_on_bgp(ranks):
    """For hardware dtypes the tree path is never slower than the
    software fallback at any scale."""
    c = CostModel(BGP, "VN", ranks)
    nbytes = 8192
    assert c.allreduce_time(nbytes, "float64") <= c.allreduce_time(
        nbytes, "float32"
    ) * 1.05


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1 << 18))
def test_modes_share_resources_consistently(tasks_exp, nbytes):
    """Denser modes never get more per-task injection bandwidth."""
    smp = CostModel(BGP, "SMP", 64)
    vn = CostModel(BGP, "VN", 64)
    assert vn.mode.injection_bw_per_task <= smp.mode.injection_bw_per_task
    assert vn.mode.memory_per_task <= smp.mode.memory_per_task


def _reference_avg_hops(c):
    """The former ``avg_hops`` property: the partition's mean torus
    distance, dilated by fragmentation, from a fresh torus."""
    torus = Torus3D(c.partition.torus_shape, c.machine.torus)
    return c.partition.effective_hops(torus.average_distance())


def _reference_p2p_bandwidth(c):
    """The former ``p2p_bandwidth`` property."""
    bw = min(c.machine.torus.single_stream_bandwidth, c.mode.injection_bw_per_task)
    return bw / c.partition.contention_multiplier


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MACHINES),
    st.data(),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.floats(0.0, 1.0),
)
def test_partition_constants_match_reference(machine, data, seed, utilization):
    """The constants fixed at construction equal, bit for bit, the
    property formulas they replaced, on quiet and fragmented partitions,
    and the mode's per-task shares."""
    mode = data.draw(st.sampled_from(available_modes(machine)))
    max_ranks = resolve_mode(machine, mode).ranks_for_nodes(machine.total_nodes)
    ranks = data.draw(st.integers(1, min(max_ranks, 1 << 15)))
    rng = None if seed is None else np.random.default_rng(seed)
    c = CostModel(machine, mode, ranks, rng=rng, utilization=utilization)
    assert c.avg_hops == _reference_avg_hops(c)
    assert c.p2p_bandwidth == _reference_p2p_bandwidth(c)
    assert c.stream_bw_per_task == c.mode.stream_bw_per_task
    assert c.peak_flops_per_task == c.mode.peak_flops_per_task
