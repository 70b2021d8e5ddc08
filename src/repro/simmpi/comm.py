"""The simulated cluster and per-rank communicator.

:class:`Cluster` assembles everything needed to run an MPI program on a
simulated machine: a node partition, the torus (with contended links),
the collective tree / barrier networks where the machine has them, a
process mapping, and the analytic :class:`~repro.simmpi.cost.CostModel`
sharing the same parameters.

A *program* is a generator function ``program(comm, *args)`` executed
once per rank; ``comm`` is a :class:`RankComm` whose operations are
yielded from::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024)
        elif comm.rank == 1:
            msg = yield from comm.recv(src=0)
        yield from comm.barrier()
        return comm.now

    cluster = Cluster(BGP, ranks=2, mode="VN")
    result = cluster.run(program)
    print(result.elapsed)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..machines.modes import Mode, ModeConfig, resolve_mode
from ..machines.specs import MachineSpec
from ..simengine import Engine, Event, Process
from ..topology.barrier import BarrierNetwork
from ..topology.mapping import Mapping
from ..topology.partition import allocate, Partition
from ..topology.torus import Torus3D
from ..topology.tree import TreeNetwork
from . import collectives as _algos
from .cost import CostModel
from .p2p import ANY_SOURCE, ANY_TAG, ReliabilityPolicy, Transport
from .reqs import Request

__all__ = [
    "Cluster",
    "RankComm",
    "ClusterResult",
    "ReliabilityPolicy",
    "ANY_SOURCE",
    "ANY_TAG",
]


@dataclass
class ClusterResult:
    """Outcome of one :meth:`Cluster.run`."""

    elapsed: float
    returns: List[Any]
    messages: int
    bytes_sent: int
    #: the run's :class:`~repro.obs.Tracer` when tracing was enabled
    #: (``Cluster.run(..., trace=True)`` or an ambient ``obs.tracing``
    #: context), else ``None``
    trace: Optional[Any] = None
    #: the run's :class:`~repro.faults.FaultStats` when a fault plan or
    #: injector was supplied to :meth:`Cluster.run`, else ``None``
    faults: Optional[Any] = None
    #: the run's :class:`~repro.recovery.RecoveryRuntime` when a
    #: recovery policy was supplied to :meth:`Cluster.run`, else
    #: ``None``; its ``times()`` give the clean/lost/rework/overhead
    #: decomposition of ``elapsed``
    recovery: Optional[Any] = None
    #: the run's :class:`~repro.perf.HostProfiler` when host
    #: self-profiling was enabled (``Cluster.run(..., profile=True)``
    #: or an ambient ``repro.perf.profiling`` context), else ``None``
    profile: Optional[Any] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ClusterResult elapsed={self.elapsed:.6g}s "
            f"messages={self.messages} bytes={self.bytes_sent}>"
        )


class _OpSync:
    """Rendezvous for one hardware-collective invocation."""

    __slots__ = ("remaining", "event", "kind")

    def __init__(self, env: Engine, n: int, kind: str) -> None:
        self.remaining = n
        self.event = Event(env)
        self.kind = kind


class Cluster:
    """A job: machine + mode + partition + networks + rank programs."""

    def __init__(
        self,
        machine: MachineSpec,
        ranks: int,
        mode: Mode | str = "SMP",
        mapping: str = "XYZT",
        env: Optional[Engine] = None,
        partition: Optional[Partition] = None,
        rng: Optional[np.random.Generator] = None,
        utilization: float = 0.0,
        adaptive_routing: bool = False,
        reliability: Optional[ReliabilityPolicy] = None,
    ) -> None:
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        self.machine = machine
        self.mode: ModeConfig = resolve_mode(machine, mode)
        self.ranks = ranks
        self.env = env if env is not None else Engine()
        nodes = self.mode.nodes_for_ranks(ranks)
        if partition is None:
            partition = allocate(machine, nodes, rng=rng, utilization=utilization)
        self.partition = partition
        self.nodes = nodes
        self.torus: Torus3D = partition.build_torus(self.env)
        self.tree: Optional[TreeNetwork] = (
            TreeNetwork(nodes, machine.tree, self.env)
            if machine.tree is not None
            else None
        )
        self.barrier_net: Optional[BarrierNetwork] = (
            BarrierNetwork(nodes, self.env) if machine.tree is not None else None
        )
        self.mapping = Mapping(
            mapping, partition.torus_shape, self.mode.tasks_per_node
        )
        if self.mapping.size < ranks:
            raise ValueError(
                f"mapping capacity {self.mapping.size} < {ranks} ranks "
                f"(shape {partition.torus_shape}, "
                f"{self.mode.tasks_per_node} tasks/node)"
            )
        self.transport = Transport(
            self.env, self.torus, self.mapping, machine,
            adaptive_routing=adaptive_routing,
            ranks=ranks,
            reliability=reliability,
        )
        #: analytic twin sharing the same partition (for cross-validation)
        self.cost = CostModel(machine, self.mode.mode, ranks, partition=partition)
        # Collective-synchronization state.
        self._op_counters: Dict[int, int] = {}
        self._op_syncs: Dict[int, _OpSync] = {}
        #: active simulation sanitizer, if this run enabled one
        self.sanitizer = None
        #: attached :class:`~repro.obs.Tracer`, or ``None`` (untraced);
        #: every span hook guards on this before doing any work
        self.tracer = None
        #: attached :class:`~repro.faults.FaultInjector`, or ``None``
        self.fault_injector = None
        #: attached :class:`~repro.recovery.RecoveryRuntime`, or
        #: ``None`` (node failures then hang their victims instead of
        #: raising :class:`~repro.recovery.RankFailedError`)
        self.recovery = None

    # -- running programs ---------------------------------------------------
    def run(
        self,
        program: Callable,
        *args: Any,
        sanitize: bool = False,
        trace: bool = False,
        faults: Optional[Any] = None,
        recovery: Optional[Any] = None,
        budget: Optional[Any] = None,
        profile: Any = False,
    ) -> ClusterResult:
        """Execute ``program(comm, *args)`` on every rank to completion.

        With ``sanitize=True`` the run is watched by the simulation
        sanitizer (:mod:`repro.lint.sanitizer`): deadlocks raise a
        :class:`~repro.lint.sanitizer.DeadlockError` naming the blocked
        ranks and wait cycle, and leaked ``Request`` objects or sends
        that nobody received raise at program exit.

        With ``trace=True`` a fresh :class:`~repro.obs.Tracer` is
        attached (unless one already is) and returned on
        ``ClusterResult.trace``; an ambient :func:`repro.obs.tracing`
        context enables the same without the flag.

        ``faults`` injects failures: pass a
        :class:`~repro.faults.FaultPlan` (an injector is built for it)
        or a ready :class:`~repro.faults.FaultInjector`.  The run's
        fault statistics come back on ``ClusterResult.faults``.

        ``recovery`` arms ULFM-style failure semantics: pass a
        :class:`~repro.recovery.RecoveryPolicy` (a runtime is built for
        it) or a ready :class:`~repro.recovery.RecoveryRuntime`.  Node
        failures then kill their ranks and *revoke* the communicator —
        surviving ranks see :class:`~repro.recovery.RankFailedError`
        and may ``comm.shrink()`` onto the survivors; without recovery
        a node failure silently hangs its communication partners.

        ``budget`` (a :class:`~repro.simengine.Budget`) bounds the run;
        exceeding it raises :class:`~repro.simengine.BudgetExceeded`
        enriched with a partial-result summary.

        ``profile`` enables *host-side* self-profiling: pass ``True``
        for a fresh :class:`~repro.perf.HostProfiler` (or pass one,
        e.g. ``HostProfiler(cprofile=True)`` for hotspots); it comes
        back on ``ClusterResult.profile`` with spawn/drive phase
        timings, per-step engine host cost, and — when the run is also
        traced — host spans on an extra Chrome-trace pid.  An ambient
        :func:`repro.perf.profiling` context enables the same without
        the flag.  Disabled profiling costs nothing: no hook is
        installed and no host clock is read.
        """
        if faults is not None and self.fault_injector is None:
            from ..faults import FaultInjector, FaultPlan

            injector = (
                FaultInjector(faults) if isinstance(faults, FaultPlan) else faults
            )
            injector.attach(self)
            self.fault_injector = injector
        if recovery is not None and self.recovery is None:
            from ..recovery import RecoveryPolicy, RecoveryRuntime

            runtime = (
                RecoveryRuntime(recovery)
                if isinstance(recovery, RecoveryPolicy)
                else recovery
            )
            runtime.attach(self)
        if self.tracer is None:
            from ..obs import active_tracer, Tracer

            ambient = active_tracer()
            if ambient is not None:
                ambient.attach(self)
            elif trace:
                Tracer().attach(self)
        prof = None
        ambient_prof = False
        if profile:
            from ..perf.profiler import HostProfiler

            prof = profile if isinstance(profile, HostProfiler) else HostProfiler()
        else:
            from ..perf.profiler import active_profiler

            prof = active_profiler()
            ambient_prof = prof is not None
        if prof is not None:
            prof.attach(self)
        san = None
        if sanitize:
            from ..lint.sanitizer import Sanitizer

            san = Sanitizer(self)
        self.sanitizer = san
        start = self.env.now
        # The transport counts for the cluster's lifetime; a result
        # reports only this run's share.
        sent0 = self.transport.messages_sent
        bytes0 = self.transport.bytes_sent
        try:
            procs: List[Process] = []
            if prof is not None:
                with prof.phase("spawn"):
                    for r in range(self.ranks):
                        comm = RankComm(self, r)
                        procs.append(self.env.process(program(comm, *args)))
            else:
                for r in range(self.ranks):
                    comm = RankComm(self, r)
                    procs.append(self.env.process(program(comm, *args)))
            if self.recovery is not None:
                self.recovery.begin_run(procs)
            done = self.env.all_of(procs)
            drive_phase = prof.phase("drive") if prof is not None else None
            if san is not None:
                san.attach(procs)
                try:
                    if drive_phase is not None:
                        with drive_phase:
                            self._drive(done, procs, budget)
                    else:
                        self._drive(done, procs, budget)
                finally:
                    san.detach()
            elif drive_phase is not None:
                with drive_phase:
                    self._drive(done, procs, budget)
            else:
                self._drive(done, procs, budget)
            if self.recovery is not None:
                self.recovery.finalize_success(self.env.now)
            result = ClusterResult(
                elapsed=self.env.now - start,
                returns=[p.value for p in procs],
                messages=self.transport.messages_sent - sent0,
                bytes_sent=self.transport.bytes_sent - bytes0,
                trace=self.tracer,
                faults=(
                    self.fault_injector.finalize()
                    if self.fault_injector is not None
                    else None
                ),
                recovery=self.recovery,
                profile=prof,
            )
            if san is not None:
                # Let in-flight deliveries land, then check for leaks.
                san.drain()
                san.finish()
            return result
        finally:
            if prof is not None:
                prof.detach()
                # An ambient profiler spans several runs; its owner
                # (e.g. `repro bench profile`) finalizes it once.
                if not ambient_prof:
                    prof.finalize()
            self.sanitizer = None

    def _drive(self, done: Event, procs: List[Process], budget: Optional[Any]) -> None:
        """Run the engine to ``done``, decorating budget overruns."""
        if budget is None:
            self.env.run(done)
            return
        from ..simengine import BudgetExceeded

        try:
            self.env.run(done, budget=budget)
        except BudgetExceeded as exc:
            alive = sum(1 for p in procs if p.is_alive)
            raise exc.with_detail(
                f"cluster partial result: {alive}/{self.ranks} rank(s) "
                f"still running, {self.transport.messages_sent} message(s) "
                f"and {self.transport.bytes_sent} B sent"
            ) from None

    # -- hardware-collective synchronisation ---------------------------------
    def _next_sync(self, rank: int, kind: str) -> _OpSync:
        """Count ``rank`` in at its next hardware collective.

        Returns the op's rendezvous with ``rank`` already counted: the
        rank that brings ``remaining`` to 0 starts the operation.  The
        last arrival also drops the entry, since no rank looks that op
        up again, so ``_op_syncs`` holds only ops still waiting for
        ranks.
        """
        recovery = self.recovery
        if recovery is not None and recovery.dead_ranks:
            # A world hardware collective can never complete once ranks
            # have died: the tree/barrier networks span the partition.
            from ..recovery.errors import RankFailedError

            raise RankFailedError(
                recovery.dead_ranks,
                sim_time=self.env.now,
                op=f"collective {kind}",
                rank=rank,
            )
        idx = self._op_counters.get(rank, 0)
        self._op_counters[rank] = idx + 1
        sync = self._op_syncs.get(idx)
        if sync is None:
            sync = self._op_syncs[idx] = _OpSync(self.env, self.ranks, kind)
        elif sync.kind != kind:
            raise RuntimeError(
                f"collective mismatch at op {idx}: rank {rank} called "
                f"{kind!r} but others called {sync.kind!r}"
            )
        sync.remaining -= 1
        if sync.remaining == 0:
            del self._op_syncs[idx]
        return sync


class _RankPhase:
    """Context manager behind :meth:`RankComm.phase`."""

    __slots__ = ("comm", "name", "_t0")

    def __init__(self, comm: "RankComm", name: str) -> None:
        self.comm = comm
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_RankPhase":
        if self.comm.cluster.tracer is not None:
            self._t0 = self.comm.env.now
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        tracer = self.comm.cluster.tracer
        if tracer is not None and exc_type is None:
            tracer.complete(
                self.comm.rank, self.name, self._t0, self.comm.env.now, cat="phase"
            )
        return False


class RankComm:
    """Per-rank communicator handle (the ``comm`` of a rank program)."""

    __slots__ = ("cluster", "rank", "env")

    def __init__(self, cluster: Cluster, rank: int) -> None:
        if not 0 <= rank < cluster.ranks:
            raise ValueError(f"rank {rank} outside [0, {cluster.ranks})")
        self.cluster = cluster
        self.rank = rank
        #: the cluster's engine (a cluster never swaps it)
        self.env: Engine = cluster.env

    # -- introspection -------------------------------------------------------
    @property
    def size(self) -> int:
        return self.cluster.ranks

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def machine(self) -> MachineSpec:
        return self.cluster.machine

    def node_coords(self) -> Tuple[int, int, int]:
        """Torus coordinates of the node hosting this rank."""
        return self.cluster.mapping.node_of(self.rank)

    # -- recovery gate ---------------------------------------------------------
    def _guard(self, op: str, peer: Optional[int] = None) -> None:
        """ULFM revocation check at operation entry.

        Once any rank has died, the world communicator is revoked:
        every new operation on it raises
        :class:`~repro.recovery.RankFailedError` (survivors must
        ``agree()``/``shrink()`` onto a live-rank communicator or be
        restarted from a checkpoint).  A no-op without recovery armed.
        """
        recovery = self.cluster.recovery
        if recovery is not None and recovery.dead_ranks:
            from ..recovery.errors import RankFailedError

            raise RankFailedError(
                recovery.dead_ranks,
                sim_time=self.env.now,
                op=op,
                rank=self.rank,
                peer=peer,
            )

    def _require_recovery(self, op: str):
        recovery = self.cluster.recovery
        if recovery is None:
            raise RuntimeError(
                f"comm.{op}() needs an armed recovery runtime — run under "
                "Cluster.run(recovery=RecoveryPolicy(...))"
            )
        return recovery

    # -- ULFM recovery collectives ---------------------------------------------
    def agree(self):
        """Agree on the failed-rank set with every other survivor.

        Generator; returns the agreed ``frozenset`` of dead world
        ranks.  The simulated analogue of ``MPIX_Comm_agree``: it
        completes only once every live rank has entered (survivors get
        there by catching :class:`~repro.recovery.RankFailedError`).
        """
        runtime = self._require_recovery("agree")
        dead, _resume = yield from runtime.agreement(self)
        return dead

    def shrink(self):
        """Build the deterministic live-rank sub-communicator.

        Generator; agrees on the failure set (see :meth:`agree`), pays
        one small software allreduce over the survivors as the
        agreement cost, and returns a
        :class:`~repro.simmpi.subcomm.SubComm` over the live ranks —
        the simulated analogue of ``MPIX_Comm_shrink``.
        """
        runtime = self._require_recovery("shrink")
        sub, _resume = yield from runtime.shrink(self)
        return sub

    # -- point-to-point --------------------------------------------------------
    def send(self, dst: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Blocking send (generator; drive with ``yield from``)."""
        self._guard("send", peer=dst)
        yield from self._do_send(dst, nbytes, tag, payload)

    def _do_send(self, dst: int, nbytes: int, tag: int, payload: Any):
        self._check_peer(dst)
        yield from self.cluster.transport.send(self.rank, dst, nbytes, tag, payload)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the :class:`Message`."""
        self._guard("recv", peer=None if src == ANY_SOURCE else src)
        msg = yield from self._do_recv(src, tag)
        return msg

    def _do_recv(self, src: int, tag: int):
        if src != ANY_SOURCE:
            self._check_peer(src)
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        ev = self.cluster.transport.post_recv(self.rank, src, tag)
        msg = yield ev
        yield self.env.timeout(self.machine.mpi.recv_overhead)
        if tracer is not None:
            tracer.complete(
                self.rank,
                "recv",
                t0,
                self.env.now,
                cat="p2p",
                args={"src": msg.src, "nbytes": msg.nbytes, "tag": msg.tag},
            )
        return msg

    def isend(self, dst: int, nbytes: int, tag: int = 0, payload: Any = None) -> Request:
        """Nonblocking send; completes at eager-injection/rendezvous end."""
        self._guard("isend", peer=dst)
        return self._do_isend(dst, nbytes, tag, payload)

    def _do_isend(self, dst: int, nbytes: int, tag: int, payload: Any) -> Request:
        self._check_peer(dst)
        proc = self.env.process(
            self.cluster.transport.send(self.rank, dst, nbytes, tag, payload)
        )
        return self._track(Request(kind="send", completion=proc, peer=dst, tag=tag))

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; posted immediately (matching order!)."""
        self._guard("irecv", peer=None if src == ANY_SOURCE else src)
        return self._do_irecv(src, tag)

    def _do_irecv(self, src: int, tag: int) -> Request:
        if src != ANY_SOURCE:
            self._check_peer(src)
        ev = self.cluster.transport.post_recv(self.rank, src, tag)
        return self._track(
            Request(
                kind="recv",
                completion=ev,
                overhead=self.machine.mpi.recv_overhead,
                peer=None if src == ANY_SOURCE else src,
                tag=None if tag == ANY_TAG else tag,
            )
        )

    def _track(self, req: Request) -> Request:
        san = self.cluster.sanitizer
        if san is not None:
            san.track_request(self.rank, req)
        return req

    def wait(self, req: Request):
        """Wait for one request; returns its result (Message for recvs)."""
        req._waited = True
        value = yield req.completion
        if req.overhead > 0:
            yield self.env.timeout(req.overhead)
        return value

    def waitall(self, reqs: List[Request]):
        """Wait for all requests; returns their results in order."""
        for r in reqs:
            r._waited = True
        values = yield self.env.all_of([r.completion for r in reqs])
        overhead = sum(r.overhead for r in reqs)
        if overhead > 0:
            yield self.env.timeout(overhead)
        return values

    def sendrecv(
        self,
        dst: int,
        send_bytes: int,
        src: int,
        tag: int = 0,
        recv_tag: Optional[int] = None,
    ):
        """Simultaneous send+receive (deadlock-free).

        Matches MPI_Sendrecv: the receive is posted before the send
        starts, both complete before returning.
        """
        rtag = tag if recv_tag is None else recv_tag
        req = self.irecv(src=src, tag=rtag)
        yield from self.send(dst, send_bytes, tag=tag)
        msg = yield from self.wait(req)
        return msg

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} outside [0, {self.size})")

    # -- phase annotation -----------------------------------------------------
    def phase(self, name: str):
        """Named application-phase span (``with comm.phase("baroclinic"):``).

        The ``with`` body may contain ``yield``/``yield from`` as usual;
        on exit the phase is recorded as one span on this rank's trace
        track.  Without an attached tracer this is a no-op — the paper's
        per-phase attribution (POP baroclinic/barotropic, CAM dynamics/
        physics) hangs off these markers.
        """
        return _RankPhase(self, name)

    # -- computation --------------------------------------------------------------
    def compute(self, flops: float = 0.0, bytes_moved: float = 0.0, seconds: float = 0.0):
        """Occupy this rank with computation.

        Either give raw work (``flops`` and/or ``bytes_moved``; a
        roofline picks the binding resource for the current mode) or an
        explicit duration in ``seconds``.
        """
        t = self.cluster.cost.compute_time(flops, bytes_moved) + seconds
        if t > 0:
            start = self.env.now
            yield self.env.timeout(t)
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.complete(self.rank, "compute", start, self.env.now, cat="compute")

    def _collective_span(
        self, tracer, name: str, t0: float, algorithm: str, nbytes: Optional[int] = None
    ) -> None:
        """Record one finished collective (caller guards ``tracer``)."""
        args: Dict[str, Any] = {"algorithm": algorithm}
        if nbytes is not None:
            args["nbytes"] = nbytes
        tracer.complete(
            self.rank, name, t0, self.env.now, cat="collective", args=args
        )

    # -- collectives -------------------------------------------------------------
    def barrier(self):
        """MPI_Barrier: hardware barrier network on BG, dissemination on XT."""
        cl = self.cluster
        tracer = cl.tracer
        t0 = self.env.now if tracer is not None else 0.0
        if cl.barrier_net is not None:
            alg = "hw-barrier"
            sync = cl._next_sync(self.rank, "barrier")
            if sync.remaining == 0:
                wait_ev = cl.barrier_net.wait()
                wait_ev.callbacks.append(lambda _e, s=sync: s.event.succeed())
            yield sync.event
        else:
            alg = "dissemination"
            yield from _algos.dissemination_barrier(self)
        if tracer is not None:
            self._collective_span(tracer, "barrier", t0, alg)

    def bcast(self, nbytes: int, root: int = 0, dtype: str = "byte"):
        """MPI_Bcast: tree-network broadcast on BG, binomial on XT."""
        cl = self.cluster
        tracer = cl.tracer
        t0 = self.env.now if tracer is not None else 0.0
        if cl.tree is not None:
            alg = "tree"
            mpi = self.machine.mpi
            yield self.env.timeout(mpi.send_overhead if self.rank == root else 0.0)
            sync = cl._next_sync(self.rank, "bcast")
            if sync.remaining == 0:
                dur = cl.tree.broadcast_time(nbytes)
                if cl.mode.tasks_per_node > 1:
                    dur += nbytes / cl.transport.shm_bandwidth()
                occ = cl.tree.occupy(dur)
                occ.callbacks.append(lambda _e, s=sync: s.event.succeed())
            yield sync.event
            yield self.env.timeout(mpi.recv_overhead)
        else:
            alg = "binomial"
            yield from _algos.binomial_bcast(self, nbytes, root)
        if tracer is not None:
            self._collective_span(tracer, "bcast", t0, alg, nbytes)

    def reduce(self, nbytes: int, root: int = 0, dtype: str = "float64"):
        """MPI_Reduce: tree network when the ALU supports the dtype."""
        cl = self.cluster
        tracer = cl.tracer
        t0 = self.env.now if tracer is not None else 0.0
        if cl.tree is not None and cl.tree.spec.supports_reduce(dtype):
            alg = "tree"
            yield from self._tree_reduction(nbytes, dtype, allreduce=False)
        else:
            alg = "binomial"
            yield from _algos.binomial_reduce(self, nbytes, root)
        if tracer is not None:
            self._collective_span(tracer, "reduce", t0, alg, nbytes)

    def allreduce(self, nbytes: int, dtype: str = "float64"):
        """MPI_Allreduce.

        BG + hardware dtype: tree reduce+broadcast (the fast
        double-precision path of paper Fig. 3a/b).  Otherwise software
        recursive doubling over the torus.
        """
        cl = self.cluster
        tracer = cl.tracer
        t0 = self.env.now if tracer is not None else 0.0
        if cl.tree is not None and cl.tree.spec.supports_reduce(dtype):
            alg = "tree"
            yield from self._tree_reduction(nbytes, dtype, allreduce=True)
        else:
            alg = (
                "recursive-doubling"
                if nbytes <= _algos.ALLREDUCE_RD_THRESHOLD
                else "rabenseifner"
            )
            yield from _algos.software_allreduce(self, nbytes)
        if tracer is not None:
            self._collective_span(tracer, "allreduce", t0, alg, nbytes)

    def _tree_reduction(self, nbytes: int, dtype: str, allreduce: bool):
        cl = self.cluster
        mpi = self.machine.mpi
        yield self.env.timeout(mpi.send_overhead)
        # Tasks sharing a node pre-combine their contributions in memory
        # (same cost formula as the analytic model).
        local = cl.cost._local_combine_time(nbytes)
        if local > 0:
            yield self.env.timeout(local)
        kind = "allreduce" if allreduce else "reduce"
        sync = cl._next_sync(self.rank, kind)
        if sync.remaining == 0:
            dur = (
                cl.tree.allreduce_time(nbytes, dtype)
                if allreduce
                else cl.tree.reduce_time(nbytes, dtype)
            )
            occ = cl.tree.occupy(dur)
            occ.callbacks.append(lambda _e, s=sync: s.event.succeed())
        yield sync.event
        yield self.env.timeout(mpi.recv_overhead)

    def allgather(self, nbytes_per_rank: int):
        """MPI_Allgather (ring algorithm on all machines)."""
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        yield from _algos.ring_allgather(self, nbytes_per_rank)
        if tracer is not None:
            self._collective_span(tracer, "allgather", t0, "ring", nbytes_per_rank)

    def reduce_scatter(self, nbytes_total: int):
        """MPI_Reduce_scatter (recursive halving)."""
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        yield from _algos.recursive_halving_reduce_scatter(self, nbytes_total)
        if tracer is not None:
            self._collective_span(
                tracer, "reduce_scatter", t0, "recursive-halving", nbytes_total
            )

    def gather(self, nbytes_per_rank: int, root: int = 0):
        """MPI_Gather (binomial tree; payloads grow toward the root)."""
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        yield from _algos.binomial_gather(self, nbytes_per_rank, root)
        if tracer is not None:
            self._collective_span(tracer, "gather", t0, "binomial", nbytes_per_rank)

    def scatter(self, nbytes_per_rank: int, root: int = 0):
        """MPI_Scatter (binomial tree; payloads shrink from the root)."""
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        yield from _algos.binomial_scatter(self, nbytes_per_rank, root)
        if tracer is not None:
            self._collective_span(tracer, "scatter", t0, "binomial", nbytes_per_rank)

    def alltoall(self, nbytes_per_pair: int):
        """MPI_Alltoall (no tree offload exists).

        Algorithm choice matches the analytic model: Bruck when its
        round structure is estimated cheaper (small payloads), pairwise
        exchange otherwise.
        """
        tracer = self.cluster.tracer
        t0 = self.env.now if tracer is not None else 0.0
        alg = "pairwise"
        p = self.size
        if p > 1:
            import math as _math

            cost = self.cluster.cost
            pairwise_est = (p - 1) * cost.p2p_time(nbytes_per_pair)
            bruck_est = _math.ceil(_math.log2(p)) * cost.p2p_time(
                nbytes_per_pair * p / 2.0
            )
            if bruck_est < pairwise_est:
                alg = "bruck"
        if alg == "bruck":
            yield from _algos.bruck_alltoall(self, nbytes_per_pair)
        else:
            yield from _algos.pairwise_alltoall(self, nbytes_per_pair)
        if tracer is not None:
            self._collective_span(tracer, "alltoall", t0, alg, nbytes_per_pair)
