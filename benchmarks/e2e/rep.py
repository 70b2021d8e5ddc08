"""One benchmark repetition in a fresh process; ``run.py`` spawns it.

Usage: ``python3 benchmarks/e2e/rep.py TASK.json``.  The task names the
workload, its inputs file, a work directory and whether to trace.  The
last line of standard output is one JSON object with the repetition's
measurements, including ``peak_rss_mb``: the largest resident set of
this process and of every child it waited for.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    task = json.loads(pathlib.Path(argv[0]).read_text(encoding="utf-8"))
    if not task.get("traced"):
        result = workloads.run_task(task, tracing.NullRecorder())
    else:
        rec = tracing.Recorder()
        rec.install()
        try:
            result = workloads.run_task(task, rec)
        finally:
            rec.uninstall()
        trace = pathlib.Path(task["trace"])
        result["trace_events"] = rec.write_chrome_trace(trace, f"e2e {task['workload']}")
        result["layers"] = workloads.layer_metrics(rec)
        result["layer_table"] = rec.layer_table()
        result["unwrapped"] = rec.missing
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
