"""Top-level entry point for sharded runs.

:func:`run` executes a named :mod:`~repro.pdes.scenarios` scenario at a
given shard count and returns canonical artifacts.  ``shards=1`` is the
*reference path*: a plain single-engine
:class:`~repro.simmpi.comm.Cluster` run, instrumented with the same
booking/send recorders and exported through the same canonicalizers —
so comparing a sharded run against it proves byte identity against the
real single-engine code path, not against the sharded machinery at
N=1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Tracer
from ..simmpi.comm import Cluster
from .backend import InlineBackend, ProcessBackend
from .errors import LinkConflictError
from .merge import (
    canonical_events_jsonl,
    canonical_metrics_json,
    canonical_trace_json,
    find_link_conflicts,
    merged_elapsed,
    merged_returns,
)
from .plan import ShardPlan
from .scenarios import get_scenario, PdesScenario
from .shard import record_link_bookings, ShardReport, ShardRuntime
from .sync import drive, PdesStats

__all__ = ["PdesResult", "run"]

BACKENDS = ("inline", "process")


@dataclass
class PdesResult:
    """Outcome of one :func:`run`: scalars, stats, canonical artifacts."""

    scenario: str
    shards: int
    backend: str
    ranks: int
    elapsed: float
    returns: List[Any]
    messages: int
    bytes_sent: int
    stats: PdesStats
    conflicts: List[str] = field(default_factory=list)
    #: canonical Chrome trace document (full text, trailing newline)
    trace_json: str = ""
    #: canonical metrics document (full text, trailing newline)
    metrics_json: str = ""
    #: canonical per-send event stream (full text)
    events_jsonl: str = ""
    reports: List[ShardReport] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        out = [
            f"== pdes run: {self.scenario} "
            f"(shards={self.shards}, backend={self.backend}) ==",
            f"  ranks                    {self.ranks}",
            f"  elapsed                  {self.elapsed * 1e3:.4f} ms",
            f"  messages                 {self.messages}",
            f"  bytes_sent               {self.bytes_sent}",
        ]
        out.extend(self.stats.summary_lines())
        return out


def _single_engine_reports(
    scenario: PdesScenario, ranks: int, args: Tuple[Any, ...], observe: bool
) -> List[ShardReport]:
    """Run the genuine single-engine path, frozen as a one-shard report."""
    cluster = Cluster(
        scenario.machine, ranks, mode=scenario.mode, mapping=scenario.mapping
    )
    tracer = Tracer().attach(cluster) if observe else None
    bookings: List[Tuple[str, float, float, float, float, float]] = []
    sends: List[Tuple[int, int, int, int, float, float]] = []
    if observe:
        record_link_bookings(cluster, bookings)
        cluster.transport.add_send_hook(
            lambda src, dst, nbytes, tag, start, end: sends.append(
                (src, dst, nbytes, tag, start, end)
            )
        )
    result = cluster.run(scenario.program, *args)
    registry = (
        tracer.metrics.to_dict()
        if tracer is not None
        else {"counters": {}, "gauges": {}, "histograms": {}}
    )
    return [
        ShardReport(
            shard_id=0,
            owned_ranks=tuple(range(ranks)),
            events=list(tracer.events) if tracer is not None else [],
            process_names=dict(tracer._process_names) if tracer is not None else {},
            thread_names=dict(tracer._thread_names) if tracer is not None else {},
            counters=registry["counters"],
            gauges=registry["gauges"],
            histograms=registry["histograms"],
            bookings=bookings,
            sends=sends,
            returns=dict(enumerate(result.returns)),
            done_at=result.elapsed,
            messages=result.messages,
            bytes_sent=result.bytes_sent,
        )
    ]


def run(
    scenario_name: str,
    shards: int = 1,
    backend: str = "inline",
    params: Optional[Dict[str, Any]] = None,
    strict_conflicts: bool = True,
    observe: bool = True,
) -> PdesResult:
    """Run a scenario sharded (or single-engine for ``shards=1``).

    ``observe=False`` runs bare: no tracer, no booking/send logs, no
    canonical artifacts, and — since the conflict validator needs the
    booking logs — no exactness certification.  Use it for benchmarks
    and large sweeps after identity has been proven for the scenario;
    per-message telemetry (and its cross-process pickling) otherwise
    dominates wall-clock at scale.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown pdes backend {backend!r}; known: {BACKENDS}")
    scenario = get_scenario(scenario_name)
    params = dict(params or {})
    ranks, args = scenario.resolve(params)
    stats = PdesStats(shards=shards, lookahead=scenario.machine.mpi.latency)

    if shards == 1:
        reports = _single_engine_reports(scenario, ranks, args, observe)
        backend = "single"
    else:
        plan = ShardPlan.build(
            scenario.machine, ranks, shards,
            mode=scenario.mode, mapping=scenario.mapping,
        )
        if backend == "process":
            be: Any = ProcessBackend(scenario.name, params, shards, observe=observe)
        else:
            be = InlineBackend(
                [
                    ShardRuntime(plan, shard_id, scenario.program, args, observe=observe)
                    for shard_id in range(shards)
                ]
            )
        try:
            drive(be, plan, stats)
            reports = be.reports()
        finally:
            be.close()

    conflicts = find_link_conflicts(reports) if observe else []
    stats.link_conflicts = len(conflicts)
    if conflicts and strict_conflicts:
        raise LinkConflictError(conflicts)
    return PdesResult(
        scenario=scenario.name,
        shards=shards,
        backend=backend,
        ranks=ranks,
        elapsed=merged_elapsed(reports),
        returns=merged_returns(reports, ranks),
        messages=sum(r.messages for r in reports),
        bytes_sent=sum(r.bytes_sent for r in reports),
        stats=stats,
        conflicts=conflicts,
        trace_json=canonical_trace_json(reports) if observe else "",
        metrics_json=canonical_metrics_json(reports) if observe else "",
        events_jsonl=canonical_events_jsonl(reports) if observe else "",
        reports=list(reports),
    )
