"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into DES events against one running cluster.

The injector is the bridge between the *schedule* (the plan) and the
*mechanics* (torus fault state, transport drop decisions, tracer
telemetry):

* at attach time it schedules one engine event per planned fault; when
  the event fires the fault is applied to the torus (links fail, nodes
  fall off, bandwidth derates) and recorded as a tracer instant and
  metrics counter if the run is traced;
* the transport consults :meth:`FaultInjector.lost_on` while booking a
  route: a message whose tail would cross a link *after* that link's
  failure instant is lost, as are messages consumed by transient
  :class:`~repro.faults.plan.LinkDrop` corruption windows.  Because the
  plan is known up front, this "future knowledge" is exact and keeps
  the simulation single-pass and deterministic;
* drop/retry/reroute counters accumulate in :class:`FaultStats` (and,
  when traced, in the run's metrics registry as ``faults.*`` counters).

Everything is deterministic: fault times come from the plan, retry
backoffs are fixed formulas, and route detours use deterministic BFS —
two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..simengine import Engine
from .plan import FaultPlan, LinkDegrade, LinkDrop, LinkFail, NodeFail

__all__ = ["FaultInjector", "FaultStats"]

Coord = Tuple[int, int, int]
LinkRef = Tuple[Coord, Coord]

#: Chrome-trace pid hosting fault instants/counters (next to the
#: network pid defined in repro.obs.tracer).
FAULTS_PID = 1000002


@dataclass
class FaultStats:
    """Counters accumulated over one fault-injected run."""

    #: messages lost to failed links or corruption windows
    drops: int = 0
    #: retransmissions attempted by the MPI reliability protocol
    retries: int = 0
    #: messages that detoured around failed links (torus BFS fallback)
    reroutes: int = 0
    #: directed links taken out of service
    failed_links: int = 0
    #: nodes taken out of service
    failed_nodes: int = 0
    #: links currently or previously running derated
    degraded_links: int = 0
    #: senders that gave up (FaultError surfaced to the program)
    fault_kills: int = 0

    def summary(self) -> str:
        return (
            f"faults: {self.failed_links} link(s) down, "
            f"{self.failed_nodes} node(s) down, "
            f"{self.degraded_links} link(s) degraded | "
            f"{self.drops} drop(s), {self.retries} retransmission(s), "
            f"{self.reroutes} reroute(s), {self.fault_kills} fault-kill(s)"
        )


@dataclass
class _DropWindow:
    """Mutable state of one LinkDrop event (messages left to corrupt)."""

    time: float
    remaining: int


class FaultInjector:
    """Applies one plan to one cluster run (single use)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        #: the attached cluster, held weakly: the cluster holds this
        #: injector, so a strong reference back would keep a dropped
        #: cluster alive until a cyclic collection
        self._cluster: Optional["weakref.ReferenceType[Any]"] = None
        #: earliest permanent-failure instant per directed link
        self._fail_time: Dict[LinkRef, float] = {}
        #: transient corruption windows per directed link
        self._drop_windows: Dict[LinkRef, List[_DropWindow]] = {}
        self._attached = False

    @property
    def cluster(self) -> Optional[Any]:
        """The attached cluster, or ``None`` (never attached, or dropped)."""
        return self._cluster() if self._cluster is not None else None

    # -- wiring ------------------------------------------------------------
    def attach(self, cluster: Any) -> "FaultInjector":
        """Wire this injector into a cluster (once, before running)."""
        if self._attached:
            raise RuntimeError("a FaultInjector is single-use; make a new one")
        self._attached = True
        self._cluster = weakref.ref(cluster)
        cluster.transport.fault_injector = self
        torus = cluster.torus
        env: Engine = cluster.env
        for ev in self.plan:
            if isinstance(ev, (LinkFail, NodeFail)):
                self._index_failure(torus, ev)
            elif isinstance(ev, LinkDrop):
                a, b = ev.link
                self._drop_windows.setdefault((a, b), []).append(
                    _DropWindow(time=ev.time, remaining=ev.count)
                )
            env.timeout(max(0.0, ev.time - env.now)).callbacks.append(
                lambda _e, f=ev: self._apply(f)
            )
        return self

    def _index_failure(self, torus: Any, ev: Any) -> None:
        """Record the failure instant of every link the event kills."""
        if isinstance(ev, LinkFail):
            a, b = torus.link_key(*ev.link)
            keys = [(a, b), (b, a)] if ev.both_directions else [(a, b)]
        else:  # NodeFail
            keys = []
            for nbr in torus.neighbors(ev.node):
                keys.append((ev.node, nbr))
                keys.append((nbr, ev.node))
        for key in keys:
            t = self._fail_time.get(key)
            if t is None or ev.time < t:
                self._fail_time[key] = ev.time

    # -- applying faults ---------------------------------------------------
    def _apply(self, fault: Any) -> None:
        torus = self.cluster.torus
        if isinstance(fault, LinkFail):
            torus.fail_link(fault.link, both_directions=fault.both_directions)
            self.stats.failed_links += 2 if fault.both_directions else 1
            self._note("link-fail", {"link": _label(fault.link)})
        elif isinstance(fault, NodeFail):
            torus.fail_node(fault.node)
            self.stats.failed_nodes += 1
            self.stats.failed_links += 2 * len(torus.neighbors(fault.node))
            self._note("node-fail", {"node": str(fault.node)})
            recovery = getattr(self.cluster, "recovery", None)
            if recovery is not None:
                # ULFM semantics: kill the node's ranks and revoke the
                # communicator (see repro.recovery.runtime).
                recovery.on_node_failed(fault.node)
        elif isinstance(fault, LinkDegrade):
            torus.degrade_link(fault.link, fault.factor)
            self.stats.degraded_links += 1
            self._note(
                "link-degrade",
                {"link": _label(fault.link), "factor": fault.factor},
            )
            if fault.duration is not None:
                self.cluster.env.timeout(fault.duration).callbacks.append(
                    lambda _e, link=fault.link: self._restore(link)
                )
        elif isinstance(fault, LinkDrop):
            self._note(
                "link-drop-window",
                {"link": _label(fault.link), "count": fault.count},
            )

    def _restore(self, link: LinkRef) -> None:
        self.cluster.torus.restore_link(link)
        self._note("link-restore", {"link": _label(link)})

    # -- transport queries -------------------------------------------------
    def lost_on(self, key: LinkRef, tail_time: float) -> Optional[str]:
        """Why a message whose tail clears ``key`` at ``tail_time`` dies.

        Returns ``"link-failure"`` when the link's permanent failure
        lands before the tail clears it, ``"corruption"`` when a
        transient drop window consumes the message, else ``None``.
        Consulted at booking time; exact because the plan is known.
        """
        t = self._fail_time.get(key)
        if t is not None and tail_time > t:
            return "link-failure"
        windows = self._drop_windows.get(key)
        if windows:
            for w in windows:
                if tail_time >= w.time and w.remaining > 0:
                    w.remaining -= 1
                    return "corruption"
        return None

    # -- accounting --------------------------------------------------------
    def record_drop(self, key: Optional[LinkRef], reason: str) -> None:
        self.stats.drops += 1
        args = {"reason": reason}
        if key is not None:
            args["link"] = _label(key)
        self._note("message-drop", args, counter="faults.drops")

    def record_retry(self) -> None:
        self.stats.retries += 1
        self._count("faults.retries")

    def record_kill(self) -> None:
        self.stats.fault_kills += 1
        self._count("faults.kills")

    def finalize(self) -> FaultStats:
        """Fold in end-of-run statistics (torus detour count) and return."""
        if self.cluster is not None:
            self.stats.reroutes = self.cluster.torus.detours
        return self.stats

    # -- telemetry ---------------------------------------------------------
    def _tracer(self) -> Optional[Any]:
        return getattr(self.cluster, "tracer", None) if self.cluster else None

    def _note(self, name: str, args: Dict[str, Any], counter: str = "") -> None:
        tracer = self._tracer()
        if tracer is None:
            return
        tracer.instant(FAULTS_PID, name, self.cluster.env.now, cat="fault", args=args)
        tracer.metrics.counter(counter or f"faults.{name}").inc()
        tracer.set_process_name(FAULTS_PID, "fault-injector")

    def _count(self, name: str) -> None:
        tracer = self._tracer()
        if tracer is not None:
            tracer.metrics.counter(name).inc()


def _label(key: LinkRef) -> str:
    (ax, ay, az), (bx, by, bz) = key
    return f"({ax},{ay},{az})->({bx},{by},{bz})"
