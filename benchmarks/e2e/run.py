"""The end-to-end benchmark: one command, every metric, checked outputs.

Usage::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--out FILE]

For each workload (default: all four) the harness generates the inputs
from ``--seed``, then runs repetitions, each in a fresh child process
(``rep.py``), until ``--seconds`` of measurement are used.  It checks
every output, prints every metric by name with its unit, and ends
standard output with one JSON line::

    {"correct": true, "attempted": 26, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, as medians over the untraced repetitions.  With
``--trace 1`` the harness runs one untraced and one traced repetition
instead.  It writes the traced one's spans to
``benchmarks/e2e/out/<workload>.trace.json`` and prints a per-layer
table and the tracing overhead; the metrics are then the ``per_layer``
metrics.  When several workloads run, each metric name is prefixed with
its workload.  ``--out`` saves the full result, which ``compare.py``
reads.  The exit status is 0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
import workloads  # noqa: E402
from repro.perf.hostclock import host_counter  # noqa: E402

if pathlib.Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
    raise SystemExit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

#: Set-up samples per run: repetitions plus set-up-only children.
SETUP_SAMPLES = 5
#: A repetition that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
OUT_DIR = HERE / "out"


class RepError(RuntimeError):
    """A child repetition crashed, timed out or printed no result."""


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(task: Dict[str, Any], path: pathlib.Path) -> Dict[str, Any]:
    """Run ``rep.py`` on ``task`` in a fresh process group; its result."""
    path.write_text(json.dumps(task), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError(f"{task['workload']} repetition timed out after {CHILD_TIMEOUT_S:g} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(
            f"{task['workload']} repetition exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


class Outcome:
    """Checks of one workload run: what was attempted, what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def absorb(self, rep: Dict[str, Any]) -> None:
        self.attempted += rep["attempted"]
        self.failures += rep["failures"]


def check_digests(
    workload: str,
    seed: int,
    reps: List[Dict[str, Any]],
    expected: Dict[str, Any],
    outcome: Outcome,
) -> None:
    """Every repetition's digests equal the first one's and, where
    ``expected.json`` pins them (all paper artifacts; des at seed 0),
    the pinned ones."""
    pinned = expected.get(workload, {})
    if workload == "des":
        pinned = pinned.get(str(seed), {})
    first = reps[0]["digests"] if reps else {}
    for k, rep in enumerate(reps):
        for name, value in sorted(rep["digests"].items()):
            if k > 0:
                outcome.check(
                    value == first.get(name),
                    f"{workload}/{name}: repetition {k} differs from repetition 0",
                )
            if name in pinned:
                outcome.check(
                    value == pinned[name],
                    f"{workload}/{name}: digest {value[:12]} != expected {pinned[name][:12]}",
                )


def end_to_end(reps: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics: medians over untraced repetitions."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "throughput": statistics.median(r["work"] / r["work_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def details(workload: str, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Workload-specific measurements printed beside the metrics."""
    if not reps:
        return {}
    if workload == "des":
        return {"sim_msgs_per_s": statistics.median(r["detail"]["sim_msgs_per_s"] for r in reps)}
    if workload == "campaign":
        return {
            "jobs_per_s": statistics.median(r["detail"]["jobs_per_s"] for r in reps),
            "warm_jobs_per_s": statistics.median(r["detail"]["warm_jobs_per_s"] for r in reps),
            "hit_ratio": reps[0]["detail"]["hit_ratio"],
            "lookups": reps[0]["detail"]["lookups"],
        }
    if workload == "serve":
        turn = [t for r in reps for t in r["detail"]["turnaround_s"]]
        submit = [t for r in reps for t in r["detail"]["submit_s"]]
        again = [t for r in reps for t in r["detail"]["resubmit_s"]]
        return {
            "jobs_per_s": statistics.median(r["detail"]["jobs_per_s"] for r in reps),
            "turnaround_p50_s": statistics.median(turn),
            "turnaround_p95_s": percentile(turn, 95),
            "turnaround_n": len(turn),
            "submit_p50_s": statistics.median(submit),
            "submit_n": len(submit),
            "resubmit_p50_s": statistics.median(again),
            "resubmit_n": len(again),
        }
    return {}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: Dict[str, Any],
    work: pathlib.Path,
) -> Dict[str, Any]:
    """Repetitions, set-up samples, checks and metrics of one workload."""
    work.mkdir(parents=True)
    inputs = work / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(workload, seed)), encoding="utf-8")
    outcome = Outcome()
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    traced: Optional[Dict[str, Any]] = None
    trace_path = OUT_DIR / f"{workload}.trace.json"
    numbers = itertools.count()

    def child(kind: str, **extra: Any) -> Optional[Dict[str, Any]]:
        n = next(numbers)
        task = {
            "workload": workload,
            "inputs": str(inputs),
            "work": str(work / f"{kind}-{n}"),
            **extra,
        }
        try:
            return run_child(task, work / f"task-{n}.json")
        except RepError as exc:
            outcome.check(False, str(exc))
            return None

    start = host_counter()
    durations: List[float] = []
    while True:
        t0 = host_counter()
        rep = child("rep")
        if rep is None:
            break
        durations.append(host_counter() - t0)
        reps.append(rep)
        setups.append(rep["setup_s"])
        outcome.absorb(rep)
        elapsed = host_counter() - start
        if trace or elapsed + statistics.mean(durations) > seconds:
            break
    if trace and reps:
        traced = child("traced", traced=True, trace=str(trace_path))
        if traced is not None:
            outcome.absorb(traced)
    while reps and not trace and len(setups) < SETUP_SAMPLES:
        probe = child("setup", setup_only=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    check_digests(workload, seed, reps + ([traced] if traced else []), expected, outcome)

    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "attempted": max(1, outcome.attempted),
        "failures": outcome.failures,
        "detail": details(workload, reps),
        "samples": {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        },
        "digests": reps[0]["digests"] if reps else {},
    }
    if trace and traced is not None:
        result["metrics"] = traced["layers"]
        result["layer_table"] = traced["layer_table"]
        result["unwrapped"] = traced["unwrapped"]
        result["trace_file"] = str(trace_path)
        result["trace_events"] = traced["trace_events"]
        result["trace_overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
    elif reps and not trace:
        result["metrics"] = end_to_end(reps, setups)
    else:
        result["metrics"] = {}
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def metric_defs(bench: Dict[str, Any], trace: bool) -> List[Dict[str, Any]]:
    return bench["per_layer"] if trace else bench["end_to_end"]


def report(result: Dict[str, Any], bench: Dict[str, Any], trace: bool) -> None:
    w = result["workload"]
    failed = len(result["failures"])
    print(f"== {w} (seed {result['seed']}, {result['repetitions']} untraced repetition(s)) ==")
    values = result["metrics"]
    for m in metric_defs(bench, trace):
        if m["name"] in values:
            print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    if not trace and values:
        s = result["samples"]
        print(f"  (medians of {len(s['wall_s'])} repetition(s), {len(s['setup_s'])} set-up(s))")
    for name, value in result["detail"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {w}.{name:<29} {shown:>14}")
    print(
        f"  failed_frac {failed / result['attempted']:.6g} "
        f"({failed} failed / {result['attempted']} attempted)"
    )
    for message in result["failures"][:20]:
        print(f"  FAILED: {message}")
    if trace and "layer_table" in result:
        print(f"  per-layer host time of the traced repetition ({result['trace_file']}):")
        print(f"    {'layer':<30} {'count':>9} {'total s':>11} {'self s':>11}")
        rows = sorted(result["layer_table"].items(), key=lambda kv: -kv[1][2])
        for name, (count, total, self_s) in rows:
            print(f"    {name:<30} {int(count):>9} {total:>11.4f} {self_s:>11.4f}")
        print(
            f"  trace: {result['trace_events']} events; tracing overhead "
            f"{result['trace_overhead_s']:+.3f} s (traced minus untraced wall_s)"
        )
        if result["unwrapped"]:
            print(f"  not wrapped (absent in this tree): {', '.join(result['unwrapped'])}")


def summary_line(results: List[Dict[str, Any]], bench: Dict[str, Any], trace: bool) -> str:
    units = {m["name"]: m["unit"] for m in metric_defs(bench, trace)}
    metrics: Dict[str, Any] = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(len(r["failures"]) for r in results)
    return json.dumps(
        {
            "correct": failed == 0 and all(r["metrics"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics,
        },
        sort_keys=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, help="save the full result as JSON")
    args = parser.parse_args(argv)

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    chosen = names if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    results = []
    try:
        for w in chosen:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace), expected, work / w)
            report(result, bench, bool(args.trace))
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out is not None:
        doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "results": results}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    line = summary_line(results, bench, bool(args.trace))
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
