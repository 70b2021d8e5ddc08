"""Allocation model: BG isolation vs XT fragmentation (Fig. 1c)."""

import numpy as np
import pytest

import repro.topology.partition as partition_module
from repro.machines import BGP, XT3, XT4_DC, XT4_QC
from repro.simengine import make_rng
from repro.topology import allocate, Partition


def test_bg_partitions_are_isolated():
    p = allocate(BGP, 512)
    assert p.is_isolated
    assert p.route_dilation == 1.0
    assert p.contention_multiplier == 1.0


def test_bg_allocation_deterministic():
    a = allocate(BGP, 512)
    b = allocate(BGP, 512)
    assert a == b


def test_xt_allocation_fragmented():
    rng = np.random.default_rng(1)
    p = allocate(XT4_QC, 1024, rng=rng, utilization=0.7)
    assert not p.is_isolated
    assert p.route_dilation > 1.0
    assert p.contention_multiplier > 1.0


def test_xt_quiet_machine_is_clean():
    p = allocate(XT4_QC, 1024, utilization=0.0)
    assert p.is_isolated


def test_xt_allocations_vary_run_to_run():
    """The source of the paper's PTRANS variability on the XT."""
    rng = np.random.default_rng(2)
    factors = {
        allocate(XT4_QC, 1024, rng=rng, utilization=0.7).contention_multiplier
        for _ in range(10)
    }
    assert len(factors) > 1


def test_shape_covers_nodes():
    p = allocate(BGP, 100)
    x, y, z = p.torus_shape
    assert x * y * z >= 100


def test_request_validation():
    with pytest.raises(ValueError):
        allocate(BGP, 0)
    with pytest.raises(ValueError):
        allocate(BGP, BGP.total_nodes + 1)
    with pytest.raises(ValueError):
        allocate(BGP, 16, utilization=1.5)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(BGP, 10, (2, 2, 2), 1.0, 1.0)  # shape too small
    with pytest.raises(ValueError):
        Partition(BGP, 8, (2, 2, 2), 0.5, 1.0)  # dilation < 1


def test_effective_hops_dilation():
    p = Partition(XT4_QC, 8, (2, 2, 2), route_dilation=1.5, contention_multiplier=1.2)
    assert p.effective_hops(10) == pytest.approx(15.0)


def test_build_torus_degrades_bandwidth_under_contention():
    p = Partition(XT4_QC, 8, (2, 2, 2), route_dilation=1.0, contention_multiplier=2.0)
    t = p.build_torus()
    assert t.spec.link_bandwidth == pytest.approx(XT4_QC.torus.link_bandwidth / 2)


# ---------------------------------------------------------------------------
# a quiet machine builds no generator; every other path draws as before
# ---------------------------------------------------------------------------
FRAGMENTING = (XT3, XT4_DC, XT4_QC)


def _node_counts(machine):
    """Node counts spread over the machine's whole range."""
    top = machine.total_nodes
    return sorted({1, 2, 7, 64, 100, 512, 1000, top // 3, top // 2, top - 1, top})


def _reference_allocate(machine, nodes, rng=None, utilization=0.7):
    """``allocate`` on a fragmenting machine before the quiet shortcut."""
    shape = machine.torus_shape(nodes)
    rng = rng if rng is not None else make_rng()
    fill = nodes / machine.total_nodes
    frag_scale = utilization * (1.0 - 0.5 * fill)
    dilation = 1.0 + frag_scale * float(rng.uniform(0.05, 0.6))
    contention = 1.0 + frag_scale * float(rng.lognormal(mean=-1.6, sigma=0.7))
    return Partition(
        machine=machine,
        nodes=nodes,
        torus_shape=shape,
        route_dilation=dilation,
        contention_multiplier=contention,
    )


@pytest.mark.parametrize("machine", FRAGMENTING, ids=lambda m: m.name)
def test_quiet_machine_builds_no_generator(machine, monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a quiet machine must not build a generator")

    want = {n: _reference_allocate(machine, n, utilization=0.0) for n in _node_counts(machine)}
    monkeypatch.setattr(partition_module, "make_rng", no_rng)
    for nodes, partition in want.items():
        got = allocate(machine, nodes, utilization=0.0)
        assert got == partition
        assert got.is_isolated


@pytest.mark.parametrize("machine", FRAGMENTING, ids=lambda m: m.name)
def test_quiet_machine_still_draws_from_an_explicit_rng(machine):
    for nodes in _node_counts(machine):
        rng = np.random.default_rng(nodes)
        twin = np.random.default_rng(nodes)
        got = allocate(machine, nodes, rng=rng, utilization=0.0)
        twin.uniform(0.05, 0.6)
        twin.lognormal(mean=-1.6, sigma=0.7)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert got == _reference_allocate(
            machine, nodes, rng=np.random.default_rng(nodes), utilization=0.0
        )


@pytest.mark.parametrize("machine", FRAGMENTING, ids=lambda m: m.name)
@pytest.mark.parametrize("utilization", [0.05, 0.7, 1.0])
def test_busy_machine_draws_as_before(machine, utilization):
    for nodes in _node_counts(machine):
        assert allocate(machine, nodes, utilization=utilization) == _reference_allocate(
            machine, nodes, utilization=utilization
        )
        got = allocate(
            machine, nodes, rng=np.random.default_rng(nodes), utilization=utilization
        )
        want = _reference_allocate(
            machine, nodes, rng=np.random.default_rng(nodes), utilization=utilization
        )
        assert got == want
