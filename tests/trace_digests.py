"""Model and engine digests of a traced run.

A traced run's Chrome trace and metrics JSON hold two kinds of record:

* the model's output: rank spans, link counters and every metric other
  than ``engine.*`` (``mpi.*``, ``net.*``, the link table, span totals);
* the engine's own bookkeeping: every trace record on ``ENGINE_PID``
  (the ``sim-engine`` name and its ``queue_depth`` counter track) and
  the ``engine.*`` metrics (events, processes spawned, finished and
  live, queue depth).

A change that schedules the same model with fewer events moves only the
second kind.  :func:`split_digests` hashes the two apart, so a pin can
say which one moved: the *model* digest covers the documents without
the engine's records, and the *engine* digest covers those records
alone.
"""

import hashlib
import json
from typing import Tuple

from repro.obs import chrome_trace, ENGINE_PID, metrics_dict

__all__ = ["split_digests"]

#: metric registry sections that hold named instruments
_INSTRUMENTS = ("counters", "gauges", "histograms")


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def split_digests(tracer) -> Tuple[str, str]:
    """``(model digest, engine digest)`` of one traced run."""
    trace = chrome_trace(tracer)
    model_events = []
    engine_events = []
    for ev in trace["traceEvents"]:
        (engine_events if ev.get("pid") == ENGINE_PID else model_events).append(ev)
    metrics = metrics_dict(tracer)
    engine_metrics = {}
    for section in _INSTRUMENTS:
        entries = metrics[section]
        engine_metrics[section] = {
            k: v for k, v in entries.items() if k.startswith("engine.")
        }
        metrics[section] = {
            k: v for k, v in entries.items() if not k.startswith("engine.")
        }
    model = {"trace": dict(trace, traceEvents=model_events), "metrics": metrics}
    engine = {"trace": engine_events, "metrics": engine_metrics}
    return _sha256(model), _sha256(engine)
