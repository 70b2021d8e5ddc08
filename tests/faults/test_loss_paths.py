"""Every loss outcome of the DES transport, pinned.

Rank 0 of an 8-rank BG/P SMP cluster (node (0,0,0)) sends one message
to rank 1 (node (1,0,0)): eager (512 B) or rendezvous (64 KiB), under
no reliability policy or one of three, and under each fault below, with
the runtime sanitizer on.  Each case ends one way, pinned exactly:

* ``done`` — the run's elapsed time, every rank's return value, its
  ``FaultStats`` and the engine's event count;
* ``lost`` — the sender-attributed ``FaultError``: its fields, its
  text, and one fault-kill;
* ``hang`` — the sanitizer's ``DeadlockError`` text, and no
  fault-kill.

Between them the cases reach every loss branch of the transport: no
route for the RTS, the eager payload or the bulk transfer, a silent
(no-policy) loss of each of the three, a resend that gets through, and
retries that run out.
"""

import pytest

from repro.faults import FaultError, FaultPlan, FaultStats, LinkDrop, NodeFail
from repro.lint.sanitizer import DeadlockError
from repro.machines import BGP
from repro.simmpi import Cluster, ReliabilityPolicy

LINK = ((0, 0, 0), (1, 0, 0))
NODE = (1, 0, 0)
#: when the late side of a case starts its send or receive
LATE = 2e-3

SIZES = {"eager": 512, "rendezvous": 1 << 16}
POLICIES = {
    "none": None,
    "default": ReliabilityPolicy(),
    "retries-0": ReliabilityPolicy(max_retries=0),
    "retries-1": ReliabilityPolicy(max_retries=1),
}
#: fault name -> (plan events, sender start, receiver start)
FAULTS = {
    "node-fail": ((NodeFail(time=0.0, node=NODE),), 0.0, 0.0),
    "drop-1": ((LinkDrop(time=0.0, link=LINK, count=1),), 0.0, 0.0),
    "drop-2": ((LinkDrop(time=0.0, link=LINK, count=2),), 0.0, 0.0),
    # the window opens after the RTS has crossed, before the bulk transfer
    "late-drop-1": ((LinkDrop(time=1e-3, link=LINK, count=1),), 0.0, LATE),
    "late-drop-9": ((LinkDrop(time=1e-3, link=LINK, count=9),), 0.0, LATE),
    "node-fail-recv-late": ((NodeFail(time=1e-3, node=NODE),), 0.0, LATE),
    "node-fail-send-late": ((NodeFail(time=1e-3, node=NODE),), LATE, 0.0),
}

NO_ROUTE = (
    "no fault-free route (0, 0, 0) -> (1, 0, 0) on torus (2, 2, 2) "
    "(failed links/nodes partition the network)"
)
EXHAUSTED = "retries exhausted"
RECV = "rank 1: blocked in recv(src=0, tag=0)"
EVENT_0 = "rank 0: blocked (event)"
EVENT_1 = "rank 1: blocked (event)"


def done(elapsed, t0, t1, events, **stats):
    return ("done", elapsed, [t0, t1] + [0.0] * 6, FaultStats(**stats), events)


def lost(attempts, time, reason, link=None):
    return ("lost", attempts, time, reason, link)


def hang(*blocked):
    return (
        "hang",
        f"deadlock: event queue ran dry with {len(blocked)} rank(s) still blocked\n"
        + "".join(f"  {line}\n" for line in blocked)
        + "  note: a fault injector dropped 1 message(s) during this run with no "
        "retransmission — this hang is likely a fault-kill, not an application "
        "deadlock (enable a ReliabilityPolicy to surface it as a FaultError instead)",
    )


#: (size, policy, fault) -> outcome
CASES = {
    ("eager", "none", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("eager", "none", "drop-1"): hang(RECV),
    ("eager", "none", "drop-2"): hang(RECV),
    ("eager", "none", "late-drop-1"): done(0.0020009, 9e-07, 0.0020009, 23),
    ("eager", "none", "late-drop-9"): done(0.0020009, 9e-07, 0.0020009, 23),
    ("eager", "none", "node-fail-recv-late"): done(
        0.0020009, 9e-07, 0.0020009, 23, failed_links=6, failed_nodes=1
    ),
    ("eager", "none", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("eager", "default", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("eager", "default", "drop-1"): done(
        2.5023529411764706e-05, 2.5023529411764706e-05, 2.2923529411764706e-05, 24,
        drops=1, retries=1,
    ),
    ("eager", "default", "drop-2"): done(
        5.866117647058824e-05, 5.866117647058824e-05, 5.656117647058824e-05, 25,
        drops=2, retries=2,
    ),
    ("eager", "default", "late-drop-1"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "default", "late-drop-9"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "default", "node-fail-recv-late"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24, failed_links=6, failed_nodes=1
    ),
    ("eager", "default", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("eager", "retries-0", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("eager", "retries-0", "drop-1"): lost(0, 9e-07, EXHAUSTED, LINK),
    ("eager", "retries-0", "drop-2"): lost(0, 9e-07, EXHAUSTED, LINK),
    ("eager", "retries-0", "late-drop-1"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "retries-0", "late-drop-9"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "retries-0", "node-fail-recv-late"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24, failed_links=6, failed_nodes=1
    ),
    ("eager", "retries-0", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("eager", "retries-1", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("eager", "retries-1", "drop-1"): done(
        2.5023529411764706e-05, 2.5023529411764706e-05, 2.2923529411764706e-05, 24,
        drops=1, retries=1,
    ),
    ("eager", "retries-1", "drop-2"): lost(1, 1.7718823529411767e-05, EXHAUSTED, LINK),
    ("eager", "retries-1", "late-drop-1"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "retries-1", "late-drop-9"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24
    ),
    ("eager", "retries-1", "node-fail-recv-late"): done(
        0.0020009, 8.204705882352942e-06, 0.0020009, 24, failed_links=6, failed_nodes=1
    ),
    ("eager", "retries-1", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("rendezvous", "none", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("rendezvous", "none", "drop-1"): hang(EVENT_0, RECV),
    ("rendezvous", "none", "drop-2"): hang(EVENT_0, RECV),
    ("rendezvous", "none", "late-drop-1"): hang(EVENT_0, EVENT_1),
    ("rendezvous", "none", "late-drop-9"): hang(EVENT_0, EVENT_1),
    # no policy, and the route is cut after the RTS arrived: both sides
    # fail with the sender-attributed error, as with a policy
    ("rendezvous", "none", "node-fail-recv-late"): lost(0, 0.002, NO_ROUTE),
    ("rendezvous", "none", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("rendezvous", "default", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("rendezvous", "default", "drop-1"): done(
        0.00018020235294117644, 0.00017930235294117645, 0.00018020235294117644, 28,
        drops=1, retries=1,
    ),
    ("rendezvous", "default", "drop-2"): done(
        0.00020420235294117646, 0.00020330235294117646, 0.00020420235294117646, 29,
        drops=2, retries=2,
    ),
    ("rendezvous", "default", "late-drop-1"): done(
        0.0027930117647058817, 0.002792111764705882, 0.0027930117647058817, 29,
        drops=1, retries=1,
    ),
    ("rendezvous", "default", "late-drop-9"): lost(
        3, 0.006407665882352941, EXHAUSTED, LINK
    ),
    ("rendezvous", "default", "node-fail-recv-late"): lost(0, 0.002006, NO_ROUTE),
    ("rendezvous", "default", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("rendezvous", "retries-0", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("rendezvous", "retries-0", "drop-1"): lost(0, 9e-07, EXHAUSTED, LINK),
    ("rendezvous", "retries-0", "drop-2"): lost(0, 9e-07, EXHAUSTED, LINK),
    ("rendezvous", "retries-0", "late-drop-1"): lost(0, 0.002006, EXHAUSTED, LINK),
    ("rendezvous", "retries-0", "late-drop-9"): lost(0, 0.002006, EXHAUSTED, LINK),
    ("rendezvous", "retries-0", "node-fail-recv-late"): lost(0, 0.002006, NO_ROUTE),
    ("rendezvous", "retries-0", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
    ("rendezvous", "retries-1", "node-fail"): lost(0, 9e-07, NO_ROUTE),
    ("rendezvous", "retries-1", "drop-1"): done(
        0.00018020235294117644, 0.00017930235294117645, 0.00018020235294117644, 28,
        drops=1, retries=1,
    ),
    ("rendezvous", "retries-1", "drop-2"): lost(1, 1.29e-05, EXHAUSTED, LINK),
    ("rendezvous", "retries-1", "late-drop-1"): done(
        0.0027930117647058817, 0.002792111764705882, 0.0027930117647058817, 29,
        drops=1, retries=1,
    ),
    ("rendezvous", "retries-1", "late-drop-9"): lost(
        1, 0.0026348094117647058, EXHAUSTED, LINK
    ),
    ("rendezvous", "retries-1", "node-fail-recv-late"): lost(0, 0.002006, NO_ROUTE),
    ("rendezvous", "retries-1", "node-fail-send-late"): lost(0, 0.0020009, NO_ROUTE),
}


def one_message(comm, nbytes, send_at, recv_at):
    if comm.rank == 0:
        yield from comm.compute(seconds=send_at)
        yield from comm.send(1, nbytes, tag=0)
    elif comm.rank == 1:
        yield from comm.compute(seconds=recv_at)
        yield from comm.recv(src=0, tag=0)
    return comm.now


def test_the_matrix_has_every_case():
    assert len(CASES) == len(SIZES) * len(POLICIES) * len(FAULTS)


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_loss_outcome(case):
    size, policy, fault = case
    events, send_at, recv_at = FAULTS[fault]
    nbytes = SIZES[size]
    cluster = Cluster(BGP, ranks=8, mode="SMP", reliability=POLICIES[policy])
    try:
        result = cluster.run(
            one_message, nbytes, send_at, recv_at,
            faults=FaultPlan(events), sanitize=True,
        )
    except FaultError as err:
        got = ("lost", err.attempts, err.time, err.reason, err.link)
        at = f" at failed link {LINK[0]}->{LINK[1]}" if err.link else ""
        assert (err.src, err.dst, err.tag, err.nbytes) == (0, 1, 0, nbytes)
        assert str(err) == (
            f"send 0->1 (tag=0, {nbytes} B) lost{at} after {err.attempts} "
            f"retransmission(s) at t={err.time:.6g}s ({err.reason})"
        )
        assert cluster.fault_injector.stats.fault_kills == 1
    except DeadlockError as err:
        got = ("hang", str(err))
        assert cluster.fault_injector.stats.fault_kills == 0
    else:
        got = (
            "done", result.elapsed, result.returns, result.faults,
            cluster.env.events_processed,
        )
    assert got == CASES[case]
