"""repro.perf — host-side performance observability.

Three pillars, all about the simulator's own *host* cost (the
complement of :mod:`repro.obs`, which observes *simulated* time):

* a benchmark harness (:mod:`repro.perf.suite`,
  :mod:`repro.perf.harness`) running the registered micro-benchmarks
  into schema-validated ``BENCH_<host>.json`` snapshots
  (:mod:`repro.perf.snapshot`);
* a self-profiler (:mod:`repro.perf.profiler`): one cProfile capture
  of any block, its self time rolled up by ``repro`` layer (outside
  code billed to its callers) plus the top-N hotspots, exported next
  to the simulated spans in the Chrome trace;
* a compare/gate engine (:mod:`repro.perf.compare`) with noise-aware
  tolerances, used by CI to fail PRs that regress against a committed
  baseline (``repro bench compare base.json new.json --fail-over 15%``).

:mod:`repro.perf.hostclock` is the single sanctioned host-time source:
the only module allowed to touch ``time.perf_counter`` under the
repo's determinism lint.
"""

from .compare import BenchDelta, compare_snapshots, Comparison, parse_percent
from .harness import run_benchmarks
from .hostclock import host_counter, host_counter_ns, HostClock
from .profiler import HOST_PID, HostProfiler
from .snapshot import (
    BenchEntry,
    host_fingerprint,
    load_snapshot,
    SCHEMA,
    Snapshot,
    snapshot_filename,
    SnapshotError,
    validate_snapshot,
)
from .suite import Benchmark, benchmark, benchmark_ids, get_benchmark

__all__ = [
    # hostclock
    "HostClock",
    "host_counter",
    "host_counter_ns",
    # snapshot
    "SCHEMA",
    "SnapshotError",
    "BenchEntry",
    "Snapshot",
    "host_fingerprint",
    "snapshot_filename",
    "validate_snapshot",
    "load_snapshot",
    # suite
    "Benchmark",
    "benchmark",
    "benchmark_ids",
    "get_benchmark",
    # harness
    "run_benchmarks",
    # profiler
    "HostProfiler",
    "HOST_PID",
    # compare
    "BenchDelta",
    "Comparison",
    "compare_snapshots",
    "parse_percent",
]
