"""Communication statistics of a simulated run, read off the obs tracer.

Every send is one ``send`` span (``pid`` = source rank, ``args.dst``,
``args.nbytes``) and bumps the ``mpi.messages`` / ``mpi.bytes``
counters.
"""

from repro.machines import BGP
from repro.obs import Tracer
from repro.simmpi import Cluster


def _ring(comm):
    peer = (comm.rank + 1) % comm.size
    prev = (comm.rank - 1) % comm.size
    req = comm.irecv(src=prev, tag=1)
    yield from comm.send(peer, nbytes=1024, tag=1)
    yield from comm.wait(req)
    yield from comm.send(peer, nbytes=0, tag=2)
    yield from comm.recv(src=prev, tag=2)


def _run_traffic(ranks=4):
    return Cluster(BGP, ranks=ranks, mode="VN").run(_ring, trace=True).trace


def _counters(tracer):
    return tracer.metrics.to_dict()["counters"]


def _sends(tracer):
    return [ev for ev in tracer.events if ev["name"] == "send"]


def _pair_bytes(tracer):
    pairs = {}
    for ev in _sends(tracer):
        pair = (ev["pid"], ev["args"]["dst"])
        pairs[pair] = pairs.get(pair, 0) + ev["args"]["nbytes"]
    return pairs


def test_counts_and_volume():
    counters = _counters(_run_traffic(4))
    assert counters["mpi.messages"] == 8  # 4 ranks x 2 sends
    assert counters["mpi.bytes"] == 4 * 1024


def test_traffic_matrix():
    pairs = _pair_bytes(_run_traffic(4))
    assert pairs[(0, 1)] == 1024
    sent = sum(v for (src, _dst), v in pairs.items() if src == 0)
    recv = sum(v for (_src, dst), v in pairs.items() if dst == 0)
    assert sent == 1024 and recv == 1024


def test_heaviest_pairs():
    heaviest = sorted(_pair_bytes(_run_traffic(4)).values(), reverse=True)[:2]
    assert heaviest == [1024, 1024]


def test_trace_events_ordered_in_time():
    sends = _sends(_run_traffic(4))
    times = [ev["ts"] for ev in sends]
    assert times == sorted(times)
    assert sends[0]["args"]["nbytes"] in (0, 1024)


def test_attach_is_idempotent():
    cluster = Cluster(BGP, ranks=2, mode="VN")
    tracer = Tracer()
    tracer.attach(cluster)
    tracer.attach(cluster)
    assert len(cluster.transport._send_hooks) == 1

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=64)
        else:
            yield from comm.recv(src=0)

    cluster.run(program)
    assert _counters(tracer)["mpi.messages"] == 1  # recorded once, not twice


def test_mean_message_bytes():
    counters = _counters(_run_traffic(4))
    assert counters["mpi.bytes"] / counters["mpi.messages"] == 512.0
