"""Per-rank compute and send spans of a simulated run, read off the
obs tracer (``pid`` = rank, ``dur`` in microseconds)."""

import pytest

from repro.machines import BGP
from repro.obs import Tracer
from repro.simmpi import Cluster


def _staggered_run(ranks=4):
    def program(comm):
        yield from comm.compute(seconds=0.001 * (comm.rank + 1))
        yield from comm.barrier()

    return Cluster(BGP, ranks=ranks, mode="VN").run(program, trace=True)


def _spans(tracer, name):
    return [ev for ev in tracer.events if ev["name"] == name]


def _compute_seconds(result):
    busy = {}
    for ev in _spans(result.trace, "compute"):
        busy[ev["pid"]] = busy.get(ev["pid"], 0.0) + ev["dur"] * 1e-6
    return busy


def _one_send(cluster):
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024)
        else:
            yield from comm.recv(src=0)

    cluster.run(program)


def test_compute_intervals_recorded():
    computes = _spans(_staggered_run().trace, "compute")
    assert len(computes) == 4
    assert {ev["pid"] for ev in computes} == {0, 1, 2, 3}


def test_busy_seconds_match_work():
    busy = _compute_seconds(_staggered_run())
    assert busy[0] == pytest.approx(0.001)
    assert busy[3] == pytest.approx(0.004)


def test_critical_rank_is_slowest():
    busy = _compute_seconds(_staggered_run())
    assert max(busy, key=busy.get) == 3


def test_busy_fraction_reflects_imbalance():
    result = _staggered_run()
    busy = _compute_seconds(result)
    assert busy[3] > busy[0]
    assert busy[3] / result.elapsed == pytest.approx(1.0, abs=0.05)


def test_send_intervals_recorded():
    cluster = Cluster(BGP, ranks=2, mode="SMP")
    tracer = Tracer().attach(cluster)
    _one_send(cluster)
    sends = _spans(tracer, "send")
    assert len(sends) == 1
    assert sends[0]["pid"] == 0
    assert sends[0]["dur"] > 0


def test_attach_timeline_is_idempotent():
    cluster = Cluster(BGP, ranks=2, mode="SMP")
    tracer = Tracer()
    tracer.attach(cluster)
    tracer.attach(cluster)
    assert len(cluster.transport._send_hooks) == 1
    _one_send(cluster)
    assert len(_spans(tracer, "send")) == 1  # recorded once, not twice
