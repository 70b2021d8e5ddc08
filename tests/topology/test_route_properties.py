"""Property tests of torus routing.

Randomised torus shapes, endpoints, and injected link faults — the
adaptive router must always produce a chain of adjacent nodes from src
to dst that never revisits a node, or raise :class:`NoRouteError` when
the faults genuinely partition the network.

The MPI transport books messages from its rank-to-node table and its
cache of healthy paths; it must book exactly what a fresh
:meth:`Torus3D.route` per message books, with and without failed links.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines import BGP
from repro.machines.modes import resolve_mode
from repro.simengine import Engine
from repro.simmpi import Transport
from repro.topology import NoRouteError, Torus3D
from repro.topology.mapping import Mapping


def make_torus(shape):
    return Torus3D(shape, BGP.torus, Engine())


def assert_simple_path(torus, path, src, dst):
    """The path is a connected, cycle-free chain from src to dst."""
    visited = [src]
    cur = src
    for frm, to in path:
        assert frm == cur
        assert to in torus.neighbors(frm)
        assert (frm, to) not in torus.failed_links
        assert to not in visited, f"route revisits {to}: cycle"
        visited.append(to)
        cur = to
    assert cur == dst


shapes = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=50, deadline=None)
@given(shapes, st.data())
def test_route_adaptive_simple_path_healthy(shape, data):
    t = make_torus(shape)
    nodes = list(t.nodes())
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    nbytes = data.draw(st.integers(1, 1 << 20))
    path = t.route_adaptive(src, dst, nbytes)
    assert_simple_path(t, path, src, dst)


@settings(max_examples=50, deadline=None)
@given(shapes, st.data())
def test_route_adaptive_simple_path_with_faults(shape, data):
    t = make_torus(shape)
    nodes = list(t.nodes())
    links = sorted(t.links)
    if links:
        n_faults = data.draw(st.integers(0, min(6, len(links))))
        for key in data.draw(
            st.lists(
                st.sampled_from(links),
                min_size=n_faults,
                max_size=n_faults,
                unique=True,
            )
        ):
            t.fail_link(key)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    try:
        path = t.route_adaptive(src, dst, nbytes=4096)
    except NoRouteError:
        # Acceptable only if the faults truly disconnect src from dst.
        assert t._route_around(src, dst) is None
        return
    assert_simple_path(t, path, src, dst)


@settings(max_examples=30, deadline=None)
@given(shapes, st.data())
def test_route_adaptive_deterministic(shape, data):
    t = make_torus(shape)
    nodes = list(t.nodes())
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    assert t.route_adaptive(src, dst, 1024) == t.route_adaptive(src, dst, 1024)


orders = st.sampled_from(sorted("".join(p) for p in permutations("XYZT")))
modes = st.sampled_from(["SMP", "DUAL", "VN"])


def messages(ranks):
    """(src, dst, nbytes) triples among ``ranks`` ranks."""
    return st.lists(
        st.tuples(
            st.integers(0, ranks - 1), st.integers(0, ranks - 1), st.integers(0, 1 << 20)
        ),
        min_size=1,
        max_size=24,
    )


def book_by_hand(torus, mapping, src, dst, nbytes, adaptive=False):
    """The reference: look up both nodes, route afresh, book every hop."""
    a, b = mapping.node_of(src), mapping.node_of(dst)
    route = torus.route_adaptive(a, b, float(nbytes)) if adaptive else torus.route(a, b)
    now = torus.env.now
    head = now + BGP.mpi.latency
    tail = head
    for key in route:
        head, tail = torus.links[key].book(float(nbytes), head)
    return tail - now


def transit(transport, mapping, src, dst, nbytes):
    """``Transport._network_transit`` between the nodes of two ranks."""
    return transport._network_transit(mapping.node_of(src), mapping.node_of(dst), nbytes)


def link_state(torus):
    return {
        key: (link._free_at, link.transfers, link.bytes_carried, link.busy_time)
        for key, link in torus.links.items()
    }


@settings(max_examples=60, deadline=None)
@given(shapes, orders, modes, st.data())
def test_transport_books_what_fresh_routes_book(shape, order, mode, data):
    mapping = Mapping(order, shape, resolve_mode(BGP, mode).tasks_per_node)
    ranks = data.draw(st.integers(1, mapping.size), label="ranks")
    torus, twin = make_torus(shape), make_torus(shape)
    transport = Transport(torus.env, torus, mapping, BGP, ranks=ranks)
    healthy = Torus3D(shape, BGP.torus)  # analytic: dimension-order routes only

    assert transport._nodes == [mapping.node_of(r) for r in range(ranks)]
    # A rank past the communicator falls back to the mapping, which
    # raises only outside the partition.
    assert transport._node(mapping.size - 1) == mapping.node_of(mapping.size - 1)
    for outside in (-1, mapping.size):
        with pytest.raises(ValueError):
            transport._node(outside)

    calls = []
    route = torus.route
    torus.route = lambda a, b: calls.append((a, b)) or route(a, b)

    def send(batch):
        """Book ``batch`` on both tori; how many messages a failed link blocked."""
        detours = 0
        for src, dst, nbytes in batch:
            try:
                want = book_by_hand(twin, mapping, src, dst, nbytes)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    transit(transport, mapping, src, dst, nbytes)
                continue
            a, b = mapping.node_of(src), mapping.node_of(dst)
            detours += any(k in twin.failed_links for k in healthy.route(a, b))
            assert transit(transport, mapping, src, dst, nbytes) == (want, None)
        assert link_state(torus) == link_state(twin)
        assert torus.detours == twin.detours
        return detours

    def node_pairs(batch):
        return {(mapping.node_of(s), mapping.node_of(d)) for s, d, _n in batch}

    # Healthy: one fresh route per distinct node pair, then cache hits.
    batch = data.draw(messages(ranks), label="healthy")
    assert send(batch) == 0
    assert sorted(calls) == sorted(node_pairs(batch))
    assert set(transport._paths) == node_pairs(batch)
    if not torus.links:
        return

    # A failed link: every message is routed afresh and blocked ones detour.
    key = data.draw(st.sampled_from(sorted(torus.links)), label="failed link")
    torus.fail_link(key)
    twin.fail_link(key)
    cached = dict(transport._paths)
    calls.clear()
    batch = data.draw(messages(ranks), label="faulty")
    blocked = send(batch)
    assert torus.detours == blocked
    assert len(calls) == len(batch)
    assert transport._paths == cached

    # Restored: the cache serves again; only new node pairs are routed.
    torus.restore_link(key)
    twin.restore_link(key)
    calls.clear()
    batch = data.draw(messages(ranks), label="restored")
    assert send(batch) == 0
    assert sorted(calls) == sorted(node_pairs(batch) - set(cached))


@settings(max_examples=30, deadline=None)
@given(shapes, orders, modes, st.data())
def test_adaptive_transport_routes_every_message(shape, order, mode, data):
    mapping = Mapping(order, shape, resolve_mode(BGP, mode).tasks_per_node)
    torus, twin = make_torus(shape), make_torus(shape)
    transport = Transport(torus.env, torus, mapping, BGP, adaptive_routing=True)
    for src, dst, nbytes in data.draw(messages(mapping.size)):
        want = book_by_hand(twin, mapping, src, dst, nbytes, adaptive=True)
        assert transit(transport, mapping, src, dst, nbytes) == (want, None)
    assert link_state(torus) == link_state(twin)
    assert not transport._paths
