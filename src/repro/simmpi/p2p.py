"""Point-to-point message transport for the simulated MPI.

Implements MPI-like matching semantics (source/tag matching, FIFO per
pair, wildcards) over the link-level torus model:

* **Eager protocol** (payload <= eager threshold): the sender pays its
  CPU overhead, injects the message, and completes immediately; the
  payload is buffered at the receiver if no recv is posted yet.
* **Rendezvous protocol** (payload > threshold): an RTS control message
  travels to the receiver; the bulk data transfer starts only when the
  matching receive is posted *and* the RTS has arrived, after the
  machine's rendezvous handshake cost; the sender completes when the
  data has fully arrived (synchronous-send semantics).

Messages traverse the torus with cut-through routing: each directed
link serializes its own traffic (see ``SerialLink.book``), the head
advances one hop latency per router, and delivery happens when the tail
clears the last link.  Intra-node transfers bypass the network and move
at shared-memory bandwidth (paper Section I.A: "Optimizations in the
system software allow peer tasks on a Compute Node to communicate via
shared memory").

**Faults and reliability.**  When a :class:`repro.faults.FaultInjector`
is attached, messages can be lost to link failures and corruption
windows.  Without a :class:`ReliabilityPolicy` a lost message simply
never arrives (the receiver waits forever — the sanitizer reports the
resulting deadlock, annotated as a possible fault-kill).  With a
policy, the transport runs an ack/timeout/retransmit protocol: every
network send is acknowledged, a lost message times out and is resent
over a freshly computed route (failed links get routed around), and
exponential backoff spaces the attempts.  A sender that exhausts its
retries — or has no fault-free route at all — raises
:class:`repro.faults.FaultError` in the sending rank's program, so a
fault-kill is attributable to the component that caused it.

**Lookups.**  The transport reads each rank's node from a table built
once from :meth:`Mapping.node_coords`, and keeps the links of each
healthy dimension-order path it has booked, keyed by (source node,
destination node).  The path cache is healthy-only: it is consulted
only when no fault injector is attached, adaptive routing is off and
no torus link has failed.  A healthy dimension-order path depends only
on the torus shape, so an entry never goes stale and needs no
invalidation; derating changes the bandwidth of the very link objects
the cache holds.  Every other message is routed afresh by
:meth:`Torus3D.route` or :meth:`Torus3D.route_adaptive`, which keeps
fault detours (``Torus3D.detours``), drop attribution and
retransmission exactly as they were.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..faults.errors import FaultError
from ..simengine import Engine, Event, SerialLink
from ..topology.mapping import Mapping
from ..topology.torus import Coord, NoRouteError, Torus3D

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "ReliabilityPolicy",
    "Transport",
]

#: Wildcards, MPI-style.
ANY_SOURCE = -1
ANY_TAG = -1

#: Most healthy paths one transport caches.  The largest benchmark run
#: (a 4096-rank HALO exchange) books 4,096 distinct node pairs; past
#: the cap, new pairs are routed uncached.
PATH_CACHE_SIZE = 16384


def _booking_errors() -> Tuple[type, ...]:
    """What :meth:`Transport._book` raises at a sender: a fault-kill, or
    a dead rank under recovery.  An ``except`` clause evaluates this
    only when something was raised; ``repro.recovery`` imports this
    package, so its error is imported late."""
    from ..recovery.errors import RankFailedError

    return FaultError, RankFailedError


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Parameters of the ack/timeout/retransmit protocol.

    ``max_retries`` counts *retransmissions* (0 = detect the loss and
    give up immediately; the default allows three resends).  The first
    timeout is ``ack_timeout`` seconds (0 = derive one from the message
    size and link speed) and each subsequent attempt multiplies it by
    ``backoff``.
    """

    max_retries: int = 3
    backoff: float = 2.0
    ack_timeout: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.ack_timeout < 0:
            raise ValueError("ack_timeout must be >= 0")


@dataclass(slots=True)
class Message:
    """A delivered message as seen by the receiver."""

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Message {self.src}->{self.dst} tag={self.tag} {self.nbytes}B>"


@dataclass(slots=True)
class _Envelope:
    """Transport-internal: a message en route or awaiting a match."""

    msg: Message
    #: rendezvous: fires (for the sender) when the transfer completes
    sender_done: Optional[Event] = None
    #: rendezvous: the (source, destination) nodes, looked up at send time
    nodes: Optional[Tuple[Coord, Coord]] = None
    #: rendezvous: True once the RTS control message has arrived
    rts_arrived: bool = False
    #: rendezvous: the matched receive's completion event
    matched_recv: Optional[Event] = None
    #: rendezvous under recovery: the shrink generation at send time
    generation: int = 0


@dataclass(slots=True)
class _PostedRecv:
    src: int
    tag: int
    event: Event

    def matches(self, msg: Message) -> bool:
        return (self.src in (ANY_SOURCE, msg.src)) and (
            self.tag in (ANY_TAG, msg.tag)
        )


class _MatchQueue:
    """Per-rank unexpected-message queue + posted-receive queue.

    It only stores and matches; the transport pairs what it matches,
    so a queue holds no reference back to the transport.
    """

    __slots__ = ("unexpected", "posted")

    def __init__(self) -> None:
        self.unexpected: Deque[_Envelope] = deque()
        self.posted: Deque[_PostedRecv] = deque()

    def post_recv(self, pr: _PostedRecv) -> Optional[_Envelope]:
        """Take the first unexpected message ``pr`` matches, else post it."""
        for i, envl in enumerate(self.unexpected):
            if pr.matches(envl.msg):
                del self.unexpected[i]
                return envl
        self.posted.append(pr)
        return None

    def incoming(self, envelope: _Envelope) -> Optional[Event]:
        """Take the first posted receive ``envelope`` matches, else queue it."""
        for i, pr in enumerate(self.posted):
            if pr.matches(envelope.msg):
                del self.posted[i]
                return pr.event
        self.unexpected.append(envelope)
        return None


class Transport:
    """Moves messages between ranks over the partition's networks."""

    def __init__(
        self,
        env: Engine,
        torus: Torus3D,
        mapping: Mapping,
        machine,
        adaptive_routing: bool = False,
        ranks: Optional[int] = None,
        reliability: Optional[ReliabilityPolicy] = None,
    ) -> None:
        self.env = env
        self.torus = torus
        self.mapping = mapping
        self.machine = machine
        #: use the torus's adaptive (congestion-aware) routing per
        #: message instead of deterministic dimension order
        self.adaptive_routing = adaptive_routing
        #: communicator size for argument validation (None = unchecked)
        self.ranks = ranks
        #: retransmission policy; None = no acks, lost messages stay lost
        self.reliability = reliability
        #: the attached repro.faults.FaultInjector, if any
        self.fault_injector: Optional[Any] = None
        #: the attached repro.recovery.RecoveryRuntime, if any
        self.recovery: Optional[Any] = None
        self.queues: Dict[int, _MatchQueue] = {}
        #: total messages injected (stats)
        self.messages_sent = 0
        #: total payload bytes injected (stats)
        self.bytes_sent = 0
        #: supported observation hooks, called as
        #: ``hook(src, dst, nbytes, tag, t_start, t_end)`` once per
        #: completed send (``t_start`` = injection begins, ``t_end`` =
        #: the protocol's completion point).  This replaces the old
        #: practice of monkey-patching :meth:`send`; an empty list (the
        #: default) adds no per-message work.  :meth:`send` reads the
        #: list when it is called, so a hook sees the sends started
        #: after it was added.
        self._send_hooks: List[Callable[[int, int, int, int, float, float], None]] = []
        #: node of every rank the communicator (or the mapping) holds
        self._nodes: List[Coord] = [
            (x, y, z)
            for x, y, z in mapping.node_coords(
                range(mapping.size if ranks is None else ranks)
            ).tolist()
        ]
        #: (src node, dst node) -> links of the healthy dimension-order path
        self._paths: Dict[Tuple[Coord, Coord], Tuple[SerialLink, ...]] = {}

    # -- plumbing ---------------------------------------------------------
    def queue_of(self, rank: int) -> _MatchQueue:
        q = self.queues.get(rank)
        if q is None:
            q = self.queues[rank] = _MatchQueue()
        return q

    def _incoming(self, envelope: _Envelope) -> None:
        """An arrived message (or rendezvous RTS) is ready to match."""
        recv_event = self.queue_of(envelope.msg.dst).incoming(envelope)
        if recv_event is not None:
            self._pair(envelope, recv_event)

    def _pair(self, envelope: _Envelope, recv_event: Event) -> None:
        if envelope.sender_done is not None:
            envelope.matched_recv = recv_event
            self._rendezvous_matched(envelope)
        else:
            # An eager envelope is queued only once its arrival fired.
            recv_event.succeed(envelope.msg)

    def _node(self, rank: int) -> Coord:
        if 0 <= rank < len(self._nodes):
            return self._nodes[rank]
        return self.mapping.node_of(rank)  # raises outside the mapping

    def _healthy_path(self, a: Coord, b: Coord) -> Tuple[SerialLink, ...]:
        """Links of the dimension-order path ``a -> b`` (cached)."""
        path = self._paths.get((a, b))
        if path is None:
            links = self.torus.links
            path = tuple(links[key] for key in self.torus.route(a, b))
            if len(self._paths) < PATH_CACHE_SIZE:
                self._paths[(a, b)] = path
        return path

    def shm_bandwidth(self) -> float:
        """Intra-node copy bandwidth: ~half the node STREAM rate."""
        return self.machine.node.memory.node_stream / 2.0

    def _network_transit(
        self, a: Coord, b: Coord, nbytes: int
    ) -> Tuple[float, Optional[Tuple]]:
        """Book a route from node ``a`` to node ``b`` now; return
        ``(delay, lost_at_link)``.

        ``delay`` is the time until the message tail arrives at the
        destination (or dies).  ``lost_at_link`` is ``None`` for a
        clean delivery, else the directed link key where an injected
        fault killed the message — links past the loss point are not
        booked (the flits never reach them).  Raises
        :class:`~repro.topology.torus.NoRouteError` when failures have
        disconnected the pair.
        """
        mpi = self.machine.mpi
        injector = self.fault_injector
        head = self.env.now + mpi.latency
        tail = head
        if injector is None and not self.adaptive_routing and not self.torus.failed_links:
            size = float(nbytes)
            for link in self._healthy_path(a, b):
                head, tail = link.book(size, head)
            return tail - self.env.now, None
        if self.adaptive_routing:
            route = self.torus.route_adaptive(a, b, float(nbytes))
        else:
            route = self.torus.route(a, b)
        for key in route:
            head, tail = self.torus.links[key].book(float(nbytes), head)
            if injector is not None:
                reason = injector.lost_on(key, tail)
                if reason is not None:
                    injector.record_drop(key, reason)
                    return tail - self.env.now, key
        return tail - self.env.now, None

    def _retry_timeout(self, nbytes: int, attempt: int) -> float:
        """Deterministic ack-timeout before retransmission ``attempt``."""
        rel = self.reliability
        assert rel is not None
        base = rel.ack_timeout
        if base == 0.0:
            mpi = self.machine.mpi
            base = 4.0 * (
                mpi.latency + float(nbytes) / self.torus.spec.link_bandwidth
            )
        return base * rel.backoff**attempt

    def _shm_delivery_delay(self, nbytes: int) -> float:
        return 0.5 * self.machine.mpi.latency + nbytes / self.shm_bandwidth()

    def _book(
        self, a: Coord, b: Coord, nbytes: int, msg: Message, attempt: int = 0
    ) -> Tuple[float, Optional[Tuple]]:
        """:meth:`_network_transit` for one attempt at ``msg``.

        The transport's one conversion of a
        :class:`~repro.topology.torus.NoRouteError`: a pair that
        failures have cut apart raises a :class:`FaultError` attributed
        to ``msg``'s sender (one fault-kill).  Under recovery, a pair
        with a dead rank (its node died during the send overhead) raises
        :class:`~repro.recovery.RankFailedError` instead, and counts no
        kill.
        """
        try:
            return self._network_transit(a, b, nbytes)
        except NoRouteError as exc:
            self._check_dead(msg.src, msg.dst, "send")
            raise self._kill(msg, attempt, reason=str(exc)) from exc

    def _transit(self, a: Coord, b: Coord, nbytes: int, msg: Message):
        """Book ``nbytes`` for ``msg`` from node ``a`` to node ``b``
        until a copy gets through, and return that copy's delay.

        The one retransmit loop; the RTS, the eager payload and the
        bulk transfer all run it.  Without a policy a loss returns
        ``None``: nobody resends, so the loss is silent.  With one,
        each resend waits out its ack timeout and counts one retry, and
        running out of retries raises :class:`FaultError` (one
        fault-kill), as :meth:`_book` does for a pair with no route.
        """
        rel = self.reliability
        attempt = 0
        while True:
            delay, lost = self._book(a, b, nbytes, msg, attempt)
            if lost is None:
                return delay
            if rel is None:
                return None
            if attempt >= rel.max_retries:
                raise self._kill(msg, attempt, lost, "retries exhausted")
            yield self.env.timeout(self._retry_timeout(nbytes, attempt))
            attempt += 1
            # a loss implies an injector: it made the drop decision
            self.fault_injector.record_retry()

    def _kill(
        self, msg: Message, attempts: int, link: Optional[Tuple] = None, reason: str = ""
    ) -> FaultError:
        """Count one fault-kill and return the sender-attributed error."""
        if self.fault_injector is not None:
            self.fault_injector.record_kill()
        return FaultError(
            msg.src, msg.dst, msg.tag, msg.nbytes,
            link=link, attempts=attempts, time=self.env.now, reason=reason,
        )

    # -- arrivals ------------------------------------------------------------
    # The only methods that schedule a message's arrival, so a change to
    # when a message arrives (folding an event into another's delay) is
    # made here.
    def _schedule_eager_arrival(self, envelope: _Envelope, delay: float) -> None:
        self.env.timeout(delay, envelope.msg).callbacks.append(
            lambda _e: self._incoming(envelope)
        )

    def _schedule_rts_arrival(self, envelope: _Envelope, delay: float) -> None:
        self.env.timeout(delay).callbacks.append(
            lambda _e: self._rts_arrived(envelope)
        )

    def _deliver_rendezvous(self, envelope: _Envelope, delay: float) -> None:
        self.env.timeout(delay, envelope.msg).callbacks.append(
            lambda _e: self._complete_rendezvous(envelope)
        )

    # -- sends -------------------------------------------------------------
    def add_send_hook(
        self, hook: Callable[[int, int, int, int, float, float], None]
    ) -> None:
        """Register a send observation hook (see ``_send_hooks``)."""
        if hook not in self._send_hooks:
            self._send_hooks.append(hook)

    def _check_rank(self, value: int, what: str) -> None:
        if self.ranks is not None and not 0 <= value < self.ranks:
            raise ValueError(
                f"{what} rank {value} out of range for a communicator "
                f"of {self.ranks} rank(s) (valid: 0..{self.ranks - 1})"
            )

    def send(self, src: int, dst: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Blocking send.  Returns a generator; completes per protocol.

        Arguments are validated *here*, at the call site, so a bad rank
        or tag raises :class:`ValueError` immediately instead of
        surfacing later inside the event loop.
        """
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        if tag < 0:
            raise ValueError(f"tag must be >= 0, got {tag}")
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        self._check_dead(src, dst, "send")
        # the shrink generation the send is posted in (see _rts_arrived)
        generation = 0 if self.recovery is None else self.recovery.generation
        if self._send_hooks:
            return self._send_observed(src, dst, nbytes, tag, payload, generation)
        return self._send_impl(src, dst, nbytes, tag, payload, generation)

    def _check_dead(self, src: int, dst: int, op: str) -> None:
        """ULFM: touching a dead rank raises at the initiating peer."""
        recovery = self.recovery
        if recovery is None or not recovery.dead_ranks:
            return
        dead = recovery.dead_ranks
        if src in dead or dst in dead:
            from ..recovery.errors import RankFailedError

            peer = dst if dst in dead else src
            raise RankFailedError(
                dead, sim_time=self.env.now, op=op,
                rank=src if op == "send" else dst, peer=peer,
            )

    def _send_observed(
        self, src: int, dst: int, nbytes: int, tag: int, payload: Any, generation: int
    ):
        """:meth:`_send_impl`, then every send hook once at completion."""
        start = self.env.now
        yield from self._send_impl(src, dst, nbytes, tag, payload, generation)
        end = self.env.now
        for hook in self._send_hooks:
            hook(src, dst, nbytes, tag, start, end)

    def _send_impl(
        self, src: int, dst: int, nbytes: int, tag: int, payload: Any, generation: int
    ):
        mpi = self.machine.mpi
        self.messages_sent += 1
        self.bytes_sent += nbytes
        msg = Message(src=src, dst=dst, tag=tag, nbytes=nbytes, payload=payload)

        yield self.env.timeout(mpi.send_overhead)

        if src == dst:
            self._schedule_eager_arrival(_Envelope(msg), delay=0.0)
            return
        a, b = self._node(src), self._node(dst)
        if a == b:
            self._schedule_eager_arrival(_Envelope(msg), self._shm_delivery_delay(nbytes))
            return
        if nbytes <= mpi.eager_threshold:
            delay = yield from self._transit(a, b, nbytes, msg)
            if delay is not None:
                self._schedule_eager_arrival(_Envelope(msg), delay)
                if self.reliability is not None:
                    # Acked eager: the sender holds until the ack is back.
                    yield self.env.timeout(delay + mpi.latency)
            return

        # Rendezvous (network only): RTS control message first, then the
        # bulk transfer.
        done = Event(self.env)
        envl = _Envelope(msg, sender_done=done, nodes=(a, b), generation=generation)
        delay = yield from self._transit(a, b, 0, msg)
        if delay is not None:
            self._schedule_rts_arrival(envl, delay)
        elif self.recovery is not None:
            self.recovery.stranded.append(envl)
        # else the RTS died and nobody will resend it; the sender blocks
        # forever (or until a node failure's revoke releases it) — the
        # sanitizer reports the hang.
        yield done

    def _rts_arrived(self, envelope: _Envelope) -> None:
        envelope.rts_arrived = True
        recovery = self.recovery
        if recovery is not None and (
            envelope.msg.dst in recovery.dead_ranks
            or envelope.generation != recovery.generation
        ):
            # The receiver died, or a failure revoked the communicator,
            # while the RTS was in flight: fail the sender instead of
            # parking the envelope where no receive will match it.
            done = envelope.sender_done
            if done is not None and not done.triggered:
                from ..recovery.errors import RankFailedError

                msg = envelope.msg
                done.fail(
                    RankFailedError(
                        recovery.dead_ranks, sim_time=self.env.now,
                        op="send", rank=msg.src, peer=msg.dst,
                    )
                )
                done.defuse()
            return
        self._incoming(envelope)

    def _rendezvous_matched(self, envelope: _Envelope) -> None:
        """Both sides are ready (called by :meth:`_pair`).

        Rendezvous runs between nodes only: a send within a node goes
        eager over shared memory.
        """
        if not envelope.rts_arrived:  # pragma: no cover - defensive
            return
        if self.fault_injector is not None and self.reliability is not None:
            self.env.process(self._reliable_rendezvous_transfer(envelope))
            return
        a, b = envelope.nodes
        try:
            delay, lost = self._book(a, b, envelope.msg.nbytes, envelope.msg)
        except _booking_errors() as err:
            self._fail_rendezvous(envelope, err)
            return
        if lost is not None:
            # Transfer died in flight with nobody retransmitting: both
            # sides hang (fault-kill, flagged by the sanitizer) unless
            # a node failure's revoke releases them.
            if self.recovery is not None:
                self.recovery.stranded.append(envelope)
            return
        self._deliver_rendezvous(envelope, self.machine.mpi.rendezvous_overhead + delay)

    def _complete_rendezvous(self, envelope: _Envelope) -> None:
        """The bulk data has arrived: release the receiver and the sender."""
        recv = envelope.matched_recv
        assert recv is not None and envelope.sender_done is not None
        recv.succeed(envelope.msg)
        if not envelope.sender_done.triggered:
            envelope.sender_done.succeed()

    def _reliable_rendezvous_transfer(self, envelope: _Envelope):
        """Retransmitting bulk transfer (runs as its own process)."""
        yield self.env.timeout(self.machine.mpi.rendezvous_overhead)
        a, b = envelope.nodes
        msg = envelope.msg
        try:
            delay = yield from self._transit(a, b, msg.nbytes, msg)
        except _booking_errors() as err:
            self._fail_rendezvous(envelope, err)
            return
        yield self.env.timeout(delay)
        self._complete_rendezvous(envelope)

    def _fail_rendezvous(self, envelope: _Envelope, err: RuntimeError) -> None:
        """Kill both sides of a rendezvous with sender-side attribution.

        ``err`` is what :meth:`_book` raised: a :class:`FaultError` from
        :meth:`_kill`, which has counted the kill, or a dead rank's
        ``RankFailedError``.
        """
        recovery = self.recovery
        dead = recovery.dead_ranks if recovery is not None else ()
        if envelope.sender_done is not None and not envelope.sender_done.triggered:
            envelope.sender_done.fail(err)
            if envelope.msg.src in dead:
                envelope.sender_done.defuse()
        recv = envelope.matched_recv
        if recv is not None and not recv.triggered:
            recv.fail(err)
            if envelope.msg.dst in dead:
                recv.defuse()

    # -- receives ------------------------------------------------------------
    def post_recv(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Post a receive; returned event fires when the data has arrived.

        ``src`` may be :data:`ANY_SOURCE` and ``tag`` may be
        :data:`ANY_TAG`; anything else is validated immediately.
        """
        self._check_rank(dst, "receiver")
        if src != ANY_SOURCE:
            self._check_rank(src, "source")
        if tag != ANY_TAG and tag < 0:
            raise ValueError(f"tag must be >= 0 or ANY_TAG, got {tag}")
        if src != ANY_SOURCE:
            self._check_dead(src, dst, "recv")
        ev = Event(self.env)
        envelope = self.queue_of(dst).post_recv(_PostedRecv(src, tag, ev))
        if envelope is not None:
            self._pair(envelope, ev)
        return ev
