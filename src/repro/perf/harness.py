"""The benchmark runner: repetitions, warmup, budgets.

``run_benchmarks`` times registered micro-benchmarks
(:mod:`repro.perf.suite`) with K repetitions after a warmup, through
the sanctioned :mod:`repro.perf.hostclock` (or any ``clock=``, which
is how the tests time on a fake clock), and assembles a schema-valid
:class:`~repro.perf.snapshot.Snapshot` whose code fingerprint reuses
:func:`repro.campaign.cache.code_fingerprint` — the same identity the
campaign result cache keys on, so a snapshot is attributable to the
exact tree that produced it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .hostclock import host_counter
from .snapshot import BenchEntry, Snapshot
from .suite import Benchmark, benchmark_ids, get_benchmark

__all__ = ["run_benchmarks"]


def _time_one(
    bench: Benchmark,
    repeats: int,
    warmup: int,
    clock: Callable[[], float],
) -> BenchEntry:
    meta = dict(bench.meta)
    for _ in range(warmup):
        bench.fn()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = clock()
        out = bench.fn()
        samples.append(max(0.0, clock() - t0))
        if out:
            meta.update(out)
    return BenchEntry(
        name=bench.name,
        samples_s=samples,
        warmup=warmup,
        budget_s=bench.budget_s,
        threshold=bench.threshold,
        meta=meta,
    )


def run_benchmarks(
    names: Optional[Iterable[str]] = None,
    repeats: int = 3,
    warmup: int = 1,
    clock: Callable[[], float] = host_counter,
    progress: Optional[Callable[[str, BenchEntry], None]] = None,
) -> Snapshot:
    """Run (a subset of) the registered suite; returns the snapshot.

    ``names`` defaults to every registered benchmark, in sorted order —
    the metric-key set is therefore deterministic for a given tree,
    which is what lets CI ``cmp`` the key lists of two fresh runs.
    ``progress`` (if given) is called with each finished entry.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    from ..campaign.cache import code_fingerprint

    selected = sorted(names) if names is not None else benchmark_ids()
    entries: Dict[str, BenchEntry] = {}
    for name in selected:
        bench = get_benchmark(name)
        entry = _time_one(bench, repeats, warmup, clock)
        entries[name] = entry
        if progress is not None:
            progress(name, entry)
    return Snapshot(
        entries=entries,
        host=Snapshot.capture_host(),
        code_fingerprint=code_fingerprint(),
    )
