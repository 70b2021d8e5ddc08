"""Point-to-point semantics of the simulated MPI."""

import pytest

from repro.machines import BGP, XT4_QC
from repro.simmpi import ANY_SOURCE, Cluster, ReliabilityPolicy, p2p


def run(machine, ranks, program, mode="SMP", **kw):
    return Cluster(machine, ranks=ranks, mode=mode, **kw).run(program)


def test_send_recv_payload():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=64, payload={"k": "v"})
        else:
            msg = yield from comm.recv(src=0)
            return msg.payload

    res = run(BGP, 2, program)
    assert res.returns[1] == {"k": "v"}
    assert res.messages == 1
    assert res.bytes_sent == 64


def test_recv_any_source():
    def program(comm):
        if comm.rank == 0:
            msgs = []
            for _ in range(2):
                m = yield from comm.recv(src=ANY_SOURCE)
                msgs.append(m.src)
            return sorted(msgs)
        yield from comm.send(0, nbytes=8)

    res = run(BGP, 3, program)
    assert res.returns[0] == [1, 2]


def test_tag_matching_out_of_order():
    """A recv for tag 7 must skip an earlier-arrived tag-3 message."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8, tag=3, payload="three")
            yield from comm.send(1, nbytes=8, tag=7, payload="seven")
        else:
            m7 = yield from comm.recv(src=0, tag=7)
            m3 = yield from comm.recv(src=0, tag=3)
            return (m7.payload, m3.payload)

    res = run(BGP, 2, program)
    assert res.returns[1] == ("seven", "three")


def test_fifo_order_same_src_tag():
    def program(comm):
        if comm.rank == 0:
            for i in range(4):
                yield from comm.send(1, nbytes=8, tag=0, payload=i)
        else:
            out = []
            for _ in range(4):
                m = yield from comm.recv(src=0, tag=0)
                out.append(m.payload)
            return out

    res = run(BGP, 2, program)
    assert res.returns[1] == [0, 1, 2, 3]


def test_eager_send_completes_before_recv_posted():
    """Small sends buffer at the receiver (eager protocol)."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8)
            return comm.now  # must not wait for rank 1's late recv
        yield from comm.compute(seconds=1.0)
        yield from comm.recv(src=0)
        return comm.now

    res = run(BGP, 2, program)
    send_done, recv_done = res.returns
    assert send_done < 1e-3
    assert recv_done > 1.0


def test_rendezvous_send_waits_for_receiver():
    """Large sends synchronize with the matching receive."""
    big = BGP.mpi.eager_threshold * 100

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=big)
            return comm.now
        yield from comm.compute(seconds=1.0)
        yield from comm.recv(src=0)
        return comm.now

    res = run(BGP, 2, program)
    send_done, recv_done = res.returns
    assert send_done > 1.0  # sender blocked on the handshake


def test_rendezvous_prepost_receiver():
    big = BGP.mpi.eager_threshold * 100

    def program(comm):
        if comm.rank == 0:
            yield from comm.compute(seconds=0.5)
            yield from comm.send(1, nbytes=big)
        else:
            msg = yield from comm.recv(src=0)
            return (comm.now, msg.nbytes)

    res = run(BGP, 2, program)
    t, n = res.returns[1]
    assert n == big
    assert t > 0.5


def test_isend_wait():
    def program(comm):
        if comm.rank == 0:
            reqs = [comm.isend(1, nbytes=8, tag=i) for i in range(3)]
            yield from comm.waitall(reqs)
        else:
            tags = []
            for i in range(3):
                m = yield from comm.recv(src=0, tag=i)
                tags.append(m.tag)
            return tags

    res = run(BGP, 2, program)
    assert res.returns[1] == [0, 1, 2]


def test_sendrecv_exchange_no_deadlock():
    def program(comm):
        peer = 1 - comm.rank
        msg = yield from comm.sendrecv(
            dst=peer, send_bytes=1 << 16, src=peer
        )
        return msg.src

    res = run(XT4_QC, 2, program)
    assert res.returns == [1, 0]


def test_bigger_messages_take_longer():
    def program(comm, nbytes):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
        else:
            yield from comm.recv(src=0)
            return comm.now

    small = run(BGP, 2, lambda c: program(c, 1 << 10)).returns[1]
    large = run(BGP, 2, lambda c: program(c, 1 << 20)).returns[1]
    assert large > small


def test_intranode_faster_than_internode():
    """VN-mode peers on one node use shared memory (Section I.A)."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1 << 15)
        elif comm.rank == 1:
            yield from comm.recv(src=0)
            return comm.now

    # ranks 0,1 share a node with TXYZ; with XYZT they are 1 hop apart.
    same = Cluster(BGP, ranks=8, mode="VN", mapping="TXYZ").run(program)
    diff = Cluster(BGP, ranks=8, mode="VN", mapping="XYZT").run(program)
    assert same.returns[1] < diff.returns[1]


def test_self_send():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(0, nbytes=8, payload="me")
            m = yield from comm.recv(src=0)
            return m.payload
        yield from comm.compute(seconds=0.0)

    res = run(BGP, 2, program)
    assert res.returns[0] == "me"


def test_invalid_peer_rejected():
    def program(comm):
        yield from comm.send(99, nbytes=8)

    with pytest.raises(ValueError):
        run(BGP, 2, program)


def test_bgp_lower_latency_than_xt():
    """Table 2 commentary: BG/P's strength is low-latency communication."""

    def pingpong(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8)
            yield from comm.recv(src=1)
            return comm.now
        yield from comm.recv(src=0)
        yield from comm.send(0, nbytes=8)

    bgp = run(BGP, 2, pingpong).returns[0]
    xt = run(XT4_QC, 2, pingpong).returns[0]
    assert bgp < xt


def test_xt_higher_bandwidth_than_bgp():
    """Table 2 commentary: the XT's strength is high bandwidth."""
    nbytes = 4 << 20

    def stream(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
        else:
            yield from comm.recv(src=0)
            return comm.now

    bgp = run(BGP, 2, stream).returns[1]
    xt = run(XT4_QC, 2, stream).returns[1]
    assert xt < bgp  # more bytes/s on the XT


def test_rerun_counts_only_its_own_messages():
    """A reused cluster's result counts the messages of its own run."""

    def allreduces(comm):
        for _ in range(8):
            yield from comm.allreduce(16384, dtype="float32")
        return comm.now

    cluster = Cluster(BGP, ranks=64, mode="SMP", reliability=ReliabilityPolicy())
    first = cluster.run(allreduces)
    second = cluster.run(allreduces)
    assert (first.messages, first.bytes_sent) == (6144, 16515072)
    assert (second.messages, second.bytes_sent) == (first.messages, first.bytes_sent)


def test_path_cache_cap(monkeypatch):
    """Past the cap, new node pairs are routed uncached, with the same result."""

    def alltoall(comm):
        yield from comm.alltoall(1 << 16)  # pairwise exchange at this size
        return comm.now

    def run_alltoall():
        cluster = Cluster(BGP, ranks=16, mode="SMP")
        return cluster, cluster.run(alltoall)

    full_cluster, full = run_alltoall()
    assert len(full_cluster.transport._paths) == 16 * 15
    monkeypatch.setattr(p2p, "PATH_CACHE_SIZE", 4)
    capped_cluster, capped = run_alltoall()
    assert len(capped_cluster.transport._paths) == 4
    assert capped == full
