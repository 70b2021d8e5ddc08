"""Runtime-sanitizer tests: deadlock wait-graphs, leaked requests,
unreceived sends, and the pytest opt-in fixture."""

import pytest

from repro.lint import DeadlockError, RequestLeakError, SanitizerError, UnmatchedSendError
from repro.machines import BGP, XT4_QC
from repro.simmpi import Cluster


def make_cluster(machine=BGP, ranks=2):
    return Cluster(machine, ranks=ranks, mode="SMP")


# -- deadlock detection -----------------------------------------------------


def recv_recv_deadlock(comm):
    other = 1 - comm.rank
    msg = yield from comm.recv(src=other)
    return msg


def test_two_rank_recv_recv_deadlock_is_reported():
    with pytest.raises(DeadlockError) as exc:
        make_cluster().run(recv_recv_deadlock, sanitize=True)
    report = exc.value.report
    assert {b.rank for b in report.blocked} == {0, 1}
    assert all(b.op == "recv" for b in report.blocked)
    assert report.cycle == [0, 1, 0]
    text = str(exc.value)
    assert "recv(src=1" in text and "recv(src=0" in text
    assert "wait cycle: 0 -> 1 -> 0" in text


@pytest.mark.no_sanitize  # the unsanitized path is the point of the test
def test_deadlock_without_sanitizer_keeps_generic_error():
    with pytest.raises(RuntimeError) as exc:
        make_cluster().run(recv_recv_deadlock)
    assert not isinstance(exc.value, SanitizerError)


def test_rendezvous_send_deadlock_names_the_sender():
    def lonely_send(comm):
        if comm.rank == 0:
            # Above the eager threshold: rendezvous blocks on a recv
            # that rank 1 never posts.
            yield from comm.send(1, nbytes=1 << 22, tag=5)
        else:
            yield from comm.recv(src=0, tag=99)

    with pytest.raises(DeadlockError) as exc:
        make_cluster().run(lonely_send, sanitize=True)
    ops = {b.rank: b.op for b in exc.value.report.blocked}
    assert ops[0] == "send"
    assert ops[1] == "recv"


def test_wildcard_recv_deadlock_reports_any_source():
    def starve(comm):
        if comm.rank == 0:
            yield from comm.recv()
        else:
            yield from comm.compute(seconds=1e-6)

    with pytest.raises(DeadlockError) as exc:
        make_cluster().run(starve, sanitize=True)
    (blocked,) = exc.value.report.blocked
    assert blocked.rank == 0
    assert "src=any" in blocked.format()
    assert exc.value.report.cycle is None


def test_partial_collective_deadlock_is_reported():
    def half_barrier(comm):
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.compute(seconds=1e-6)

    with pytest.raises(DeadlockError) as exc:
        make_cluster().run(half_barrier, sanitize=True)
    (blocked,) = exc.value.report.blocked
    assert blocked.rank == 0
    assert blocked.op == "collective"
    assert "barrier" in blocked.detail


# -- exit-time leak checks --------------------------------------------------


def test_leaked_request_is_reported():
    def leak(comm):
        if comm.rank == 0:
            comm.isend(1, nbytes=64, tag=3)  # simlint: ignore[yield-from-comm]
            yield from comm.compute(seconds=1e-3)
        else:
            yield from comm.recv(src=0)

    with pytest.raises(RequestLeakError) as exc:
        make_cluster().run(leak, sanitize=True)
    text = str(exc.value)
    assert "rank 0" in text and "send request" in text and "tag=3" in text


def test_unmatched_send_is_reported():
    def lost(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8, tag=7)
        else:
            yield from comm.compute(seconds=1e-3)

    with pytest.raises(UnmatchedSendError) as exc:
        make_cluster().run(lost, sanitize=True)
    text = str(exc.value)
    assert "rank 0 -> rank 1" in text and "tag=7" in text


def test_clean_program_passes_sanitized():
    def pingpong(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024)
            yield from comm.recv(src=1)
        else:
            yield from comm.recv(src=0)
            yield from comm.send(0, nbytes=1024)
        req = comm.irecv(src=1 - comm.rank, tag=9)
        yield from comm.send(1 - comm.rank, nbytes=16, tag=9)
        yield from comm.wait(req)
        yield from comm.barrier()
        return comm.now

    for machine in (BGP, XT4_QC):
        # XT machines add dissemination-barrier messages; BG uses the
        # hardware barrier network.
        result = make_cluster(machine).run(pingpong, sanitize=True)
        assert result.elapsed > 0
        assert result.messages >= 4


def test_waitall_marks_requests_consumed():
    def exchange(comm):
        peers = [r for r in range(comm.size) if r != comm.rank]
        reqs = [comm.irecv(src=p, tag=p) for p in peers]
        for p in peers:
            yield from comm.send(p, nbytes=32, tag=comm.rank)
        yield from comm.waitall(reqs)

    result = make_cluster(ranks=4).run(exchange, sanitize=True)
    assert result.messages == 12


def test_sanitizer_state_is_cleared_after_run():
    cluster = make_cluster()
    with pytest.raises(DeadlockError):
        cluster.run(recv_recv_deadlock, sanitize=True)
    assert cluster.sanitizer is None
    assert cluster.env.on_empty_schedule is None


# -- the pytest fixture -----------------------------------------------------


def test_sanitize_runs_fixture_enables_sanitizer(sanitize_runs):
    with pytest.raises(DeadlockError):
        make_cluster().run(recv_recv_deadlock)
