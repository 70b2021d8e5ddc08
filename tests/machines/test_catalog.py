"""The machine catalog must encode the paper's Table 1/3 numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines import (
    all_machines,
    ANL_BGP_NODES,
    BGL,
    BGP,
    get_machine,
    MACHINE_NAMES,
    ORNL_BGP_NODES,
    XT3,
    XT4_DC,
    XT4_QC,
)


# ---------------------------------------------------------------------------
# Table 1 values
# ---------------------------------------------------------------------------
def test_bgp_node_shape():
    assert BGP.node.cores == 4
    assert BGP.node.core.clock_hz == 850e6
    # "3.4 GFlop/s per core, or 13.6 GFlop/s per compute node"
    assert BGP.node.core.peak_flops == pytest.approx(3.4e9)
    assert BGP.node.peak_flops == pytest.approx(13.6e9)


def test_bgp_memory():
    assert BGP.node.memory.capacity_bytes == 2 * 1024**3
    assert BGP.node.memory.peak_bandwidth == pytest.approx(13.6e9)


def test_bgp_torus_injection_bandwidth():
    # "425 MB/s in each direction for a total of 5.1 GB/s bidirectional"
    assert BGP.torus.link_bandwidth == pytest.approx(425e6)
    assert BGP.torus.injection_bandwidth == pytest.approx(5.1e9)


def test_bgp_tree_bandwidth():
    # "three links ... at 850 MB/s per direction"
    assert BGP.tree is not None
    assert BGP.tree.link_bandwidth == pytest.approx(850e6)
    assert BGP.tree.links_per_node == 3


def test_bgl_node_shape():
    assert BGL.node.cores == 2
    assert BGL.node.core.clock_hz == 700e6
    assert BGL.node.peak_flops == pytest.approx(5.6e9)


def test_xt4_qc_node_shape():
    assert XT4_QC.node.cores == 4
    assert XT4_QC.node.core.clock_hz == 2100e6
    # Cross-check against Table 3: 260.2 TF / 30976 cores = 8.4 GF/core.
    assert XT4_QC.node.core.peak_flops == pytest.approx(8.4e9)
    assert XT4_QC.total_cores == 30976
    assert XT4_QC.peak_flops_total == pytest.approx(260.2e12, rel=0.01)


def test_xt_injection_capped_at_6_4():
    for m in (XT3, XT4_DC, XT4_QC):
        assert m.torus.injection_bandwidth == pytest.approx(6.4e9)


def test_cache_hierarchy_per_table1():
    assert BGP.node.l1.size_bytes == 32 * 1024
    assert BGP.node.l3.size_bytes == 8 * 1024**2 and BGP.node.l3.shared
    assert BGL.node.l3.size_bytes == 4 * 1024**2
    assert XT3.node.l1.size_bytes == 64 * 1024
    assert XT3.node.l2.size_bytes == 1024**2 and not XT3.node.l2.shared
    assert XT3.node.l3 is None
    assert XT4_QC.node.l2.size_bytes == 512 * 1024
    assert XT4_QC.node.l3.size_bytes == 2 * 1024**2 and XT4_QC.node.l3.shared


def test_coherence_kinds():
    from repro.machines import CoherenceKind

    assert BGL.node.coherence is CoherenceKind.SOFTWARE
    assert BGP.node.coherence is CoherenceKind.HARDWARE


def test_density_cores_per_rack():
    # Section I.A: BG/P 4096/rack, XT3 192, XT4 quad 384.
    assert BGP.cores_per_rack == 4096
    assert XT3.cores_per_rack == 192
    assert XT4_QC.cores_per_rack == 384


# ---------------------------------------------------------------------------
# Table 3 values
# ---------------------------------------------------------------------------
def test_power_per_core_table3():
    assert BGP.power.hpl_watts_per_core == pytest.approx(7.7)
    assert BGP.power.normal_watts_per_core == pytest.approx(7.3)
    assert XT4_QC.power.hpl_watts_per_core == pytest.approx(51.0)
    assert XT4_QC.power.normal_watts_per_core == pytest.approx(48.4)


def test_power_ratio_6_6x():
    # "a difference of 6.6 times"
    ratio = XT4_QC.power.hpl_watts_per_core / BGP.power.hpl_watts_per_core
    assert ratio == pytest.approx(6.6, rel=0.01)


def test_hpl_efficiency_from_table3():
    assert BGP.hpl_efficiency == pytest.approx(21.9 / 27.9, abs=0.005)
    assert XT4_QC.hpl_efficiency == pytest.approx(205.0 / 260.2, abs=0.005)


# ---------------------------------------------------------------------------
# Lookup machinery
# ---------------------------------------------------------------------------
def test_get_machine_aliases():
    assert get_machine("bgp") is BGP
    assert get_machine("Intrepid") is BGP
    assert get_machine("jaguar") is XT4_QC
    assert get_machine("XT4/DC") is XT4_DC


def test_get_machine_unknown():
    with pytest.raises(KeyError):
        get_machine("crayon")


def test_all_machines_complete():
    machines = all_machines()
    assert set(machines) == set(MACHINE_NAMES)


def test_site_sizes():
    assert ORNL_BGP_NODES == 2048  # two racks (Section I.B)
    assert ANL_BGP_NODES == 40960  # forty racks (Section I.C)


def test_with_nodes_scales_install():
    eugene = BGP.with_nodes(ORNL_BGP_NODES)
    assert eugene.total_cores == 8192
    assert eugene.node is BGP.node  # spec shared, only scale changed


def test_torus_shape_factorization():
    shape = BGP.torus_shape(512)
    assert shape[0] * shape[1] * shape[2] == 512
    # Should be reasonably cubic.
    assert max(shape) / min(shape) <= 2
    with pytest.raises(ValueError):
        BGP.torus_shape(0)


# ---------------------------------------------------------------------------
# torus_shape: the memo against the factorization loop it replaced
# ---------------------------------------------------------------------------
def _reference_torus_shape(nodes):
    """The uncached loop ``MachineSpec.torus_shape`` ran before the memo."""
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    best = (nodes, 1, 1)
    best_score = float("inf")
    x = 1
    while x * x * x <= nodes * 4:
        if nodes % x == 0:
            rem = nodes // x
            y = 1
            while y * y <= rem * 2:
                if rem % y == 0:
                    z = rem // y
                    dims = tuple(sorted((x, y, z), reverse=True))
                    score = max(dims) / max(1, min(dims))
                    if score < best_score:
                        best_score = score
                        best = dims
                y += 1
        x += 1
    return best


def _check_shape(machine, nodes):
    want = _reference_torus_shape(nodes)
    for _ in range(2):  # a miss, then a hit
        shape = machine.torus_shape(nodes)
        assert shape == want, (machine.name, nodes)
        assert isinstance(shape, tuple) and len(shape) == 3
        assert all(type(d) is int for d in shape)
        assert shape[0] * shape[1] * shape[2] == nodes


def test_torus_shape_memo_matches_loop_for_small_partitions():
    for nodes in range(1, 4097):
        _check_shape(BGP, nodes)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_torus_shape_memo_matches_loop_up_to_each_machine(data):
    machine = data.draw(st.sampled_from(sorted(all_machines().values(), key=lambda m: m.name)))
    nodes = data.draw(st.integers(1, machine.total_nodes))
    _check_shape(machine, nodes)


@pytest.mark.parametrize("name", sorted(MACHINE_NAMES))
def test_torus_shape_memo_at_full_machine(name):
    machine = get_machine(name)
    _check_shape(machine, machine.total_nodes)


def test_torus_shape_rejects_empty_partitions_every_time():
    for nodes in (0, -1, 0, -4096, 0):
        with pytest.raises(ValueError, match="nodes must be >= 1"):
            BGP.torus_shape(nodes)
