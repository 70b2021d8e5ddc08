"""The registered DES micro-benchmark suite.

Each benchmark is one *host-timed iteration* of a hot path the
simulator's wall-clock depends on: event-heap churn in the engine,
eager and rendezvous p2p in ``simmpi``, software and tree collectives,
torus routing, Chrome-trace export throughput, and the full-tree lint
pass (which carries the 5 s CI budget: ``repro bench run`` exits 1
when a benchmark's median exceeds its ``budget_s``).

A benchmark function performs the work once and returns a small
``meta`` dict of deterministic facts (sizes, counts — never times);
the harness (:mod:`repro.perf.harness`) times it around K repetitions
with warmup and folds the result into a ``BENCH_*.json`` snapshot.

Register new benchmarks with the :func:`benchmark` decorator; the name
becomes the stable metric key the compare gate tracks across commits,
so renaming one shows up as *missing* in ``repro bench compare``.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Benchmark",
    "benchmark",
    "benchmark_ids",
    "get_benchmark",
    "temporary_benchmark",
]


@dataclass(frozen=True)
class Benchmark:
    """One registered micro-benchmark."""

    name: str
    fn: Callable[[], Optional[Dict[str, Any]]]
    description: str = ""
    #: CI wall-time budget in seconds (None = unbudgeted)
    budget_s: Optional[float] = None
    #: per-benchmark compare tolerance overriding the global --fail-over
    threshold: Optional[float] = None
    #: deterministic workload facts merged into the snapshot meta
    meta: Dict[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, Benchmark] = {}


def benchmark(
    name: str,
    *,
    description: str = "",
    budget_s: Optional[float] = None,
    threshold: Optional[float] = None,
    **meta: Any,
) -> Callable[[Callable[[], Optional[Dict[str, Any]]]], Callable[[], Optional[Dict[str, Any]]]]:
    """Register ``fn`` as the micro-benchmark ``name``."""

    def deco(fn: Callable[[], Optional[Dict[str, Any]]]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = Benchmark(
            name=name,
            fn=fn,
            description=description or (fn.__doc__ or "").strip().splitlines()[0]
            if (description or fn.__doc__)
            else "",
            budget_s=budget_s,
            threshold=threshold,
            meta=dict(meta),
        )
        return fn

    return deco


def benchmark_ids() -> List[str]:
    """Registered benchmark names, sorted (the deterministic key order)."""
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {benchmark_ids()}"
        ) from None


@contextmanager
def temporary_benchmark(bench: Benchmark) -> Iterator[Benchmark]:
    """Register ``bench`` for the duration of a ``with`` block (tests)."""
    if bench.name in _REGISTRY:
        raise ValueError(f"benchmark {bench.name!r} already registered")
    _REGISTRY[bench.name] = bench
    try:
        yield bench
    finally:
        _REGISTRY.pop(bench.name, None)


# ---------------------------------------------------------------------------
# The built-in suite
# ---------------------------------------------------------------------------

_HEAP_PROCS = 64
_HEAP_TIMEOUTS = 400


@benchmark(
    "engine.heap_churn",
    description="event-heap push/pop churn: 64 interleaved timer processes",
    procs=_HEAP_PROCS,
    timeouts_per_proc=_HEAP_TIMEOUTS,
)
def _bench_heap_churn() -> Dict[str, Any]:
    from ..simengine import Engine, US

    env = Engine()

    def ticker(period: float):
        for _ in range(_HEAP_TIMEOUTS):
            yield env.timeout(period)

    for i in range(_HEAP_PROCS):
        # Co-prime-ish periods keep the heap ordering non-trivial.
        env.process(ticker((3 + (i * 7) % 11) * US))
    env.run()
    return {"events_processed": env.events_processed}


@benchmark(
    "simmpi.p2p_eager",
    description="two-node eager-protocol ping-pong (512 B x 200)",
    nbytes=512,
    repeats=200,
)
def _bench_p2p_eager() -> Dict[str, Any]:
    from ..kernels.pingpong import run_pingpong_des
    from ..machines import BGP

    r = run_pingpong_des(BGP, nbytes=512, repeats=200, mode="SMP")
    return {"machine": r.machine}


@benchmark(
    "simmpi.p2p_rendezvous",
    description="two-node rendezvous-protocol ping-pong (1 MiB x 40)",
    nbytes=1 << 20,
    repeats=40,
)
def _bench_p2p_rendezvous() -> Dict[str, Any]:
    from ..kernels.pingpong import run_pingpong_des
    from ..machines import BGP

    r = run_pingpong_des(BGP, nbytes=1 << 20, repeats=40, mode="SMP")
    return {"machine": r.machine}


def _collective_sweep(machine, ranks: int) -> int:
    from ..simmpi import Cluster

    sizes = [8, 512, 8192, 65536]

    def program(comm):
        for nbytes in sizes:
            yield from comm.allreduce(nbytes, dtype="float64")
            yield from comm.bcast(nbytes)
        yield from comm.barrier()
        return comm.now

    cluster = Cluster(machine, ranks=ranks, mode="SMP")
    result = cluster.run(program)
    return result.messages


@benchmark(
    "simmpi.collectives_software",
    description="software allreduce+bcast sweep, 16 ranks on XT4/QC",
    ranks=16,
)
def _bench_collectives_software() -> Dict[str, Any]:
    from ..machines import XT4_QC

    return {"messages": _collective_sweep(XT4_QC, 16)}


@benchmark(
    "simmpi.collectives_tree",
    description="tree-network allreduce+bcast sweep, 16 ranks on BG/P",
    ranks=16,
)
def _bench_collectives_tree() -> Dict[str, Any]:
    from ..machines import BGP

    return {"messages": _collective_sweep(BGP, 16)}


@benchmark(
    "topology.torus_route",
    description="dimension-order routing, all pairs from 32 sources on 8^3",
    shape=[8, 8, 8],
    sources=32,
)
def _bench_torus_route() -> Dict[str, Any]:
    from ..machines import BGP
    from ..topology.torus import Torus3D

    torus = Torus3D((8, 8, 8), BGP.torus)
    hops = 0
    sources = [(x, y, z) for x in (0, 2, 5, 7) for y in (0, 3) for z in (1, 4, 6, 7)]
    for src in sources:
        for dst in torus.nodes():
            hops += len(torus.route(src, dst))
    return {"routes": len(sources) * len(list(torus.nodes())), "hops": hops}


@benchmark(
    "obs.trace_export",
    description="Chrome-trace serialization + schema check, 30k events",
    events=30000,
)
def _bench_trace_export() -> Dict[str, Any]:
    from ..obs import chrome_trace, chrome_trace_json, validate_trace_events
    from ..obs.tracer import Tracer

    tracer = Tracer()
    tracer.set_process_name(0, "synthetic")
    for i in range(10000):
        t = i * 1e-6
        tracer.complete(0, "span", t, t + 5e-7, cat="bench", args={"i": i})
        tracer.instant(0, "tick", t, cat="bench")
        tracer.counter(0, "depth", t, {"events": i % 97})
    doc = chrome_trace(tracer)
    validate_trace_events(doc)
    text = chrome_trace_json(tracer)
    return {"events": len(doc["traceEvents"]), "json_bytes_floor": len(text) // (1 << 20)}


def _lint_tree() -> List[str]:
    """The lintable tree, from a source checkout (src [examples benchmarks])."""
    import repro

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    dirs = [root / "src"]
    dirs += [d for d in (root / "examples", root / "benchmarks") if d.is_dir()]
    return [str(d) for d in dirs]


#: CI budget for one full-tree lint pass, in seconds.
LINT_BUDGET_S = 5.0


@benchmark(
    "lint.full_tree",
    description="full-tree simlint pass (syntactic + flow analyses)",
    budget_s=LINT_BUDGET_S,
    threshold=1.0,
)
def _bench_lint_full_tree() -> Dict[str, Any]:
    from ..lint import lint_paths

    result = lint_paths(_lint_tree())
    if result.findings:
        raise AssertionError(
            "full-tree lint must be clean inside the benchmark:\n"
            + "\n".join(f.format() for f in result.findings)
        )
    return {"files": result.files_checked, "findings": 0}


@benchmark(
    "lint.syntactic_only",
    description="full-tree simlint pass with --no-flow (syntactic rules only)",
    budget_s=LINT_BUDGET_S,
    threshold=1.0,
)
def _bench_lint_syntactic() -> Dict[str, Any]:
    from ..lint import FLOW_RULE_IDS, lint_paths

    result = lint_paths(_lint_tree(), flow=False)
    flow_findings = [f for f in result.findings if f.rule in FLOW_RULE_IDS]
    if flow_findings:
        raise AssertionError("--no-flow pass must not emit flow findings")
    return {"files": result.files_checked}
