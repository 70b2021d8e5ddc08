"""Collective-operation semantics and machine-specific algorithm choice."""

import pytest

from repro.machines import BGP, XT4_QC
from repro.simmpi import Cluster


def elapsed(machine, ranks, program, mode="VN", **kw):
    return Cluster(machine, ranks=ranks, mode=mode, **kw).run(program).elapsed


def test_barrier_synchronizes_all_ranks():
    def program(comm):
        yield from comm.compute(seconds=0.1 * comm.rank)
        yield from comm.barrier()
        return comm.now

    res = Cluster(XT4_QC, ranks=4, mode="VN").run(program)
    finish = res.returns
    # All ranks leave the barrier at (nearly) the same time, after the
    # slowest rank arrived.
    assert max(finish) - min(finish) < 1e-3
    assert min(finish) >= 0.3


def test_bgp_barrier_uses_hardware_and_is_fast():
    def program(comm):
        yield from comm.barrier()
        return comm.now

    bgp = elapsed(BGP, 64, program)
    xt = elapsed(XT4_QC, 64, program)
    assert bgp < xt
    assert bgp < 20e-6


def test_bcast_reaches_everyone():
    def program(comm):
        yield from comm.bcast(1 << 15, root=0)
        return comm.now

    for machine in (BGP, XT4_QC):
        res = Cluster(machine, ranks=8, mode="VN").run(program)
        assert all(t > 0 for t in res.returns)


def test_bgp_bcast_dramatically_faster():
    """Fig. 3c/d: 'the BG/P dramatically outperforms the Cray XT for
    all message sizes showing the benefit of the special-purpose tree
    network'."""

    def program(comm):
        yield from comm.bcast(32 * 1024, root=0)
        return comm.now

    bgp = elapsed(BGP, 64, program)
    xt = elapsed(XT4_QC, 64, program)
    assert bgp < xt / 2


def test_allreduce_double_uses_tree_on_bgp():
    """Fig. 3a/b: double precision allreduce is much faster than single
    precision on BG/P (tree ALU), but not on the XT."""

    def make(dtype):
        def program(comm):
            yield from comm.allreduce(32 * 1024, dtype=dtype)
            return comm.now

        return program

    bgp_double = elapsed(BGP, 64, make("float64"))
    bgp_single = elapsed(BGP, 64, make("float32"))
    assert bgp_double < bgp_single / 2

    xt_double = elapsed(XT4_QC, 64, make("float64"))
    xt_single = elapsed(XT4_QC, 64, make("float32"))
    assert xt_double == pytest.approx(xt_single, rel=0.3)


def test_reduce_completes():
    def program(comm):
        yield from comm.reduce(4096, root=0)
        return comm.now

    for machine in (BGP, XT4_QC):
        res = Cluster(machine, ranks=6, mode="VN").run(program)
        assert all(t > 0 for t in res.returns)


def test_allreduce_non_power_of_two():
    def program(comm):
        yield from comm.allreduce(1024, dtype="float32")
        return comm.now

    for p in (3, 5, 6, 7):
        res = Cluster(XT4_QC, ranks=p, mode="VN").run(program)
        assert len(res.returns) == p


def test_alltoall_message_count_pairwise():
    """Large payloads use pairwise exchange: p x (p-1) messages."""

    def program(comm):
        yield from comm.alltoall(1 << 20)

    res = Cluster(XT4_QC, ranks=8, mode="VN").run(program)
    assert res.messages == 8 * 7


def test_alltoall_message_count_bruck():
    """Small payloads switch to Bruck: p x ceil(log2 p) messages."""

    def program(comm):
        yield from comm.alltoall(8)

    res = Cluster(XT4_QC, ranks=8, mode="VN").run(program)
    assert res.messages == 8 * 3


def test_alltoall_non_power_of_two():
    def program(comm):
        yield from comm.alltoall(64)
        return comm.now

    res = Cluster(BGP, ranks=6, mode="VN").run(program)
    assert all(t > 0 for t in res.returns)


def test_allgather_ring_messages():
    def program(comm):
        yield from comm.allgather(512)

    res = Cluster(BGP, ranks=5, mode="VN").run(program)
    assert res.messages == 5 * 4  # p * (p-1) ring shifts


def test_collective_mismatch_detected():
    def program(comm):
        if comm.rank == 0:
            yield from comm.bcast(64, root=0)
        else:
            yield from comm.barrier()

    with pytest.raises(RuntimeError, match="collective mismatch"):
        Cluster(BGP, ranks=4, mode="VN").run(program)


def test_two_sequential_collectives():
    def program(comm):
        yield from comm.barrier()
        t1 = comm.now
        yield from comm.bcast(1024, root=0)
        return (t1, comm.now)

    res = Cluster(BGP, ranks=8, mode="VN").run(program)
    for t1, t2 in res.returns:
        assert t2 > t1


def test_hardware_collectives_release_their_rendezvous():
    """Each tree or barrier op drops its rendezvous when its last rank
    arrives, so a long run holds none of them at the end."""
    seen = []

    def program(comm):
        for _ in range(10):
            yield from comm.allreduce(64, dtype="float64")
            yield from comm.reduce(64, dtype="float64")
            yield from comm.bcast(64)
            yield from comm.barrier()
            seen.append(len(comm.cluster._op_syncs))

    cluster = Cluster(BGP, ranks=16, mode="VN")
    cluster.run(program)
    assert cluster._op_syncs == {}
    # no rank passes an op before every rank has reached it, so at most
    # one op is ever waiting for ranks
    assert max(seen) <= 1


def test_allreduce_scaling_with_ranks():
    def program(comm):
        yield from comm.allreduce(8192, dtype="float32")
        return comm.now

    t16 = elapsed(XT4_QC, 16, program)
    t64 = elapsed(XT4_QC, 64, program)
    assert t64 > t16  # more rounds
    assert t64 < t16 * 4  # but logarithmic-ish, not linear
