"""Property tests: the vectorized HALO phase analysis equals per-message routing.

``HaloBenchmark._analyze_phases`` loads the links of a phase from ring
difference arrays over all messages at once.  The reference below is
the per-message analysis it replaced: each message resolved with
``neighbors2d`` and ``Mapping.node_of`` and routed with a healthy
``Torus3D.route``, its weight added to every directed link on the route.
"""

import dataclasses
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.halo import HaloBenchmark, neighbors2d
from repro.halo.bench import _PhaseShape
from repro.machines import BGP
from repro.topology import Mapping, Torus3D

ORDERS = ["".join(p) for p in permutations("XYZT")]
MODES = ("SMP", "DUAL", "VN")


def reference_phases(hb):
    """Route every message of both phases one at a time."""
    torus = Torus3D(hb.partition.torus_shape, hb.machine.torus)
    phases = []
    for directions in (("north", "south"), ("west", "east")):
        loads = {}
        max_hops = worst_net = worst_shm = 0
        for rank in range(hb.ranks):
            nb = neighbors2d(rank, hb.grid)
            src = hb.mapping.node_of(rank)
            net = shm = 0
            for direction, units in zip(directions, (1.0, 2.0)):
                dst = hb.mapping.node_of(nb[direction])
                if src == dst:
                    shm += 1
                    continue
                net += 1
                route = torus.route(src, dst)
                max_hops = max(max_hops, len(route))
                for key in route:
                    loads[key] = loads.get(key, 0.0) + units
            worst_net = max(worst_net, net)
            worst_shm = max(worst_shm, shm)
        phases.append(
            _PhaseShape(
                max_link_units=max(loads.values()) if loads else 0.0,
                max_hops=max_hops,
                net_msgs=worst_net,
                shm_msgs=worst_shm,
            )
        )
    return phases


def on_torus(hb, shape):
    """``hb`` re-placed on a torus of ``shape`` with the same mapping order."""
    hb.partition = dataclasses.replace(hb.partition, torus_shape=shape)
    hb.mapping = Mapping(hb.mapping_name, shape, hb.mode.tasks_per_node)
    return hb


grids = st.tuples(st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(grids, st.sampled_from(MODES), st.sampled_from(ORDERS))
@example((1, 9), "SMP", "XYZT")
@example((9, 1), "VN", "TXYZ")
@example((1, 1), "DUAL", "ZYXT")
@example((3, 3), "VN", "XYZT")  # 9 ranks on a 12-slot (3, 1, 1) partition
@example((16, 8), "VN", "TZYX")  # (4, 4, 2): an extent-2 dimension
@example((64, 32), "VN", "TZYX")  # Fig. 2(e): 2,048 ranks on (8, 8, 8)
@example((128, 64), "VN", "TXYZ")  # Fig. 2(a): 8,192 ranks on (16, 16, 8)
def test_phases_match_per_message_routing(grid, mode, order):
    hb = HaloBenchmark(BGP, grid, mode=mode, mapping=order)
    assert hb._analyze_phases() == reference_phases(hb)


torus_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(grids, st.sampled_from(MODES), st.sampled_from(ORDERS), torus_shapes)
@example((1, 6), "SMP", "XYZT", (1, 2, 3))
@example((6, 1), "VN", "TZYX", (2, 1, 1))
@example((4, 4), "SMP", "YZXT", (1, 4, 4))
# Half-way round an extent-4 ring: routed -, the ties would load the
# busiest west/east link 4 units, not 5.
@example((3, 2), "SMP", "XYZT", (4, 2, 1))
def test_phases_match_on_any_torus(grid, mode, order, shape):
    """Arbitrary partitions: extent-1 and extent-2 dims, spare node slots."""
    hb = HaloBenchmark(BGP, grid, mode=mode, mapping=order)
    assume(int(np.prod(shape)) * hb.mode.tasks_per_node >= hb.ranks)
    on_torus(hb, shape)
    assert hb._analyze_phases() == reference_phases(hb)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), torus_shapes, st.integers(1, 4))
def test_node_coords_matches_node_of(order, shape, tasks_per_node):
    mapping = Mapping(order, shape, tasks_per_node)
    coords = mapping.node_coords(np.arange(mapping.size))
    assert coords.shape == (mapping.size, 3)
    assert [tuple(row) for row in coords.tolist()] == [
        mapping.node_of(r) for r in range(mapping.size)
    ]


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_node_coords_leaves_ranks_unchanged(dtype):
    ranks = np.arange(8, dtype=dtype)
    Mapping("XYZT", (4, 2, 2), 4).node_coords(ranks)
    assert np.array_equal(ranks, np.arange(8))


@pytest.mark.parametrize("bad", [[16], [-1], [0, 16]])
def test_node_coords_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Mapping("TXYZ", (2, 2, 1), 4).node_coords(bad)
