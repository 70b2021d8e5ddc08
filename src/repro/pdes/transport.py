"""The shard-aware MPI transport.

:class:`ShardTransport` subclasses the single-engine
:class:`~repro.simmpi.p2p.Transport` and changes exactly one thing:
what happens when a message's destination rank lives on another shard.
Every send runs the base implementation (same protocols, same link
bookings on this shard's torus replica); the subclass overrides only
the three methods that schedule an arrival, so a one-shard run *is*
the single-engine run and the two send paths cannot drift apart.

Cross-shard traffic becomes :class:`~repro.pdes.boundary.BoundaryEvent`
emissions, each timestamped with its exact effect time on the peer
engine:

* **Eager**: the route is booked on the *sending* replica (the sender
  owns the injection timing) and the arrival is shipped as an
  ``eager`` event at the booked tail time.
* **Rendezvous**: the RTS control message books its (zero-byte) route
  on the sending replica and ships as an ``rts`` event; the sender
  parks on its completion event.  The *receiving* shard books the bulk
  transfer on its replica at match time — exactly when the single
  engine would — delivers the payload locally, and ships a
  ``sender_done`` event releasing the parked sender at the same
  instant.

Every emission satisfies the conservative lookahead bound
``ts >= now + mpi.latency``: eager/RTS deliveries pay the full
injection latency, and the rendezvous completion pays the handshake
plus a full network transit.  Per-link bookings are recorded by the
shard runtime (it wraps the torus links' observers) so the merge can
rebuild one global link timeline and prove no cross-shard booking
conflicts occurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..simengine import Engine, Event
from ..simmpi.p2p import Message, Transport, _Envelope
from ..topology.mapping import Mapping
from ..topology.torus import Torus3D
from .boundary import BoundaryEvent, EAGER, RTS, SENDER_DONE
from .plan import ShardPlan

__all__ = ["ShardTransport"]


@dataclass(slots=True)
class _ShardEnvelope(_Envelope):
    """A rendezvous whose sender lives on another shard."""

    #: (send id, origin shard), to address the ``sender_done`` event
    pdes_origin: Optional[Tuple[Tuple[int, int], int]] = None


class ShardTransport(Transport):
    """Transport for one shard: local traffic as usual, remote as events."""

    def __init__(
        self,
        env: Engine,
        torus: Torus3D,
        mapping: Mapping,
        machine,
        plan: ShardPlan,
        shard_id: int,
        ranks: Optional[int] = None,
    ) -> None:
        super().__init__(env, torus, mapping, machine, ranks=ranks)
        self.plan = plan
        self.shard_id = shard_id
        #: boundary events emitted since the last drain (coordinator-owned)
        self.outbox: List[BoundaryEvent] = []
        #: rendezvous envelopes parked until the peer's ``sender_done``
        self._parked: Dict[Tuple[int, int], _Envelope] = {}
        self._seq = 0

    # -- helpers -----------------------------------------------------------
    def _is_local(self, rank: int) -> bool:
        return self.plan.rank_shards[rank] == self.shard_id

    def _emit(
        self,
        kind: str,
        ts: float,
        dst_shard: int,
        msg: Optional[Message] = None,
        send_id: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._seq += 1
        fields: Dict[str, Any] = {}
        if msg is not None:
            fields = dict(
                src=msg.src, dst=msg.dst, tag=msg.tag,
                nbytes=msg.nbytes, payload=msg.payload,
            )
        self.outbox.append(
            BoundaryEvent(
                kind=kind, ts=ts, src_shard=self.shard_id, dst_shard=dst_shard,
                seq=self._seq, send_id=send_id, **fields,
            )
        )

    def drain_outbox(self) -> List[BoundaryEvent]:
        out, self.outbox = self.outbox, []
        return out

    # -- arrivals ------------------------------------------------------------
    def _schedule_eager_arrival(self, envelope: _Envelope, delay: float) -> None:
        msg = envelope.msg
        if self._is_local(msg.dst):
            super()._schedule_eager_arrival(envelope, delay)
            return
        self._emit(EAGER, self.env.now + delay, self.plan.rank_shards[msg.dst], msg)

    def _schedule_rts_arrival(self, envelope: _Envelope, delay: float) -> None:
        msg = envelope.msg
        if self._is_local(msg.dst):
            super()._schedule_rts_arrival(envelope, delay)
            return
        # Ship the RTS and park the sender's envelope until the peer
        # reports the bulk transfer complete.
        send_id = (self.shard_id, self._seq + 1)  # the seq _emit assigns next
        self._emit(
            RTS, self.env.now + delay, self.plan.rank_shards[msg.dst], msg, send_id
        )
        self._parked[send_id] = envelope

    def _deliver_rendezvous(self, envelope: _Envelope, delay: float) -> None:
        if isinstance(envelope, _ShardEnvelope):
            send_id, origin_shard = envelope.pdes_origin
            self._emit(
                SENDER_DONE, self.env.now + delay, origin_shard, send_id=send_id
            )
        super()._deliver_rendezvous(envelope, delay)

    # -- incoming boundary events -------------------------------------------
    def inject(self, bev: BoundaryEvent) -> None:
        """Schedule one incoming boundary event at its exact sim time.

        Called by the shard runtime at the start of an advance window;
        the conservative synchronizer guarantees ``bev.ts >= env.now``.
        """
        delay = bev.ts - self.env.now
        if delay < 0:  # pragma: no cover - coordinator invariant
            raise AssertionError(
                f"boundary event in the past: ts={bev.ts} < now={self.env.now}"
            )
        if bev.kind == SENDER_DONE:
            done = self._parked.pop(bev.send_id).sender_done

            def _release(_e: Event) -> None:
                if not done.triggered:
                    done.succeed()

            self.env.timeout(delay).callbacks.append(_release)
            return
        msg = Message(
            src=bev.src, dst=bev.dst, tag=bev.tag, nbytes=bev.nbytes, payload=bev.payload
        )
        if bev.kind == EAGER:
            self._schedule_eager_arrival(_Envelope(msg), delay)
        elif bev.kind == RTS:
            envl = _ShardEnvelope(
                msg,
                sender_done=Event(self.env),
                nodes=(self._node(bev.src), self._node(bev.dst)),
                pdes_origin=(bev.send_id, bev.src_shard),
            )
            self._schedule_rts_arrival(envl, delay)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown boundary event kind {bev.kind!r}")
