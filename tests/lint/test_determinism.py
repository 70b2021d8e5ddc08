"""Determinism regression: the same workload must produce bit-identical
traces, elapsed times, and event counts across independent runs.

This is the invariant the determinism-hazard lint rule protects (and
the property the engine's docstring promises); a regression here means
something nondeterministic crept into the simulator core.
"""

from repro.machines import BGP, XT4_QC
from repro.simmpi import Cluster


def workload(comm):
    """A mixed workload: p2p, nonblocking ops, collectives, compute."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(src=left, tag=1)
    yield from comm.send(right, nbytes=2048, tag=1)
    yield from comm.wait(req)
    yield from comm.compute(flops=1e6)
    yield from comm.allreduce(nbytes=8)
    yield from comm.alltoall(nbytes_per_pair=256)
    yield from comm.barrier()
    return comm.now


def run_once(machine, ranks=8, seed=42):
    import numpy as np

    cluster = Cluster(
        machine,
        ranks=ranks,
        mode="VN",
        rng=np.random.default_rng(seed),
        utilization=0.3,
    )
    trace = []
    cluster.transport.add_send_hook(
        lambda src, dst, nbytes, tag, start, _end: trace.append(
            (start, src, dst, nbytes, tag)
        )
    )
    result = cluster.run(workload, sanitize=True)
    return result, trace, cluster.env.events_processed


def test_identical_traces_across_runs():
    for machine in (BGP, XT4_QC):
        r1, t1, n1 = run_once(machine)
        r2, t2, n2 = run_once(machine)
        assert r1.elapsed == r2.elapsed, machine.name
        assert r1.returns == r2.returns
        assert r1.messages == r2.messages
        assert r1.bytes_sent == r2.bytes_sent
        assert t1 == t2
        assert n1 == n2


def test_different_seed_perturbs_allocation_but_stays_deterministic():
    _, t1, _ = run_once(XT4_QC, seed=1)
    _, t2, _ = run_once(XT4_QC, seed=1)
    assert t1 == t2
