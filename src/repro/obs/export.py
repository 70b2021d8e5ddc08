"""Exporters for the observability layer.

Three output formats, all deterministic (two identical runs produce
byte-identical files):

* **Chrome trace** (``trace_events`` JSON) — open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  One pid per
  rank, span tracks for the rank program and the transport, counter
  tracks for the engine queue depth and every torus link.
* **Metrics JSON** — the flat counter/gauge/histogram registry plus
  the per-link telemetry table.
* **ASCII summary** — the top-N attribution table an analyst reads
  first (the HPC-Toolkit-style splits of the paper).

``validate_trace_events`` is the schema check the tests and CI run
against every exported trace.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "metrics_dict",
    "metrics_json",
    "write_metrics",
    "summary",
    "validate_trace_events",
]

#: Chrome trace event phases the exporter emits.
_KNOWN_PHASES = {"X", "i", "C", "M"}


def chrome_trace(tracer: Tracer) -> dict:
    """Assemble the full ``trace_events`` document."""
    return {
        "traceEvents": tracer.metadata_events() + list(tracer.events),
        "displayTimeUnit": "ms",
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Serialize deterministically (sorted keys, compact separators)."""
    return json.dumps(chrome_trace(tracer), sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(chrome_trace_json(tracer) + "\n")
    return path


def metrics_dict(tracer: Tracer) -> dict:
    """Metric registry + per-link telemetry, JSON-ready."""
    out = tracer.metrics.to_dict()
    out["links"] = tracer.link_table()
    out["spans"] = {
        name: {"count": int(c), "total_seconds": t}
        for name, (c, t) in sorted(tracer.span_totals.items())
    }
    return out


def metrics_json(tracer: Tracer) -> str:
    return json.dumps(metrics_dict(tracer), sort_keys=True, indent=2)


def write_metrics(tracer: Tracer, path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(metrics_json(tracer) + "\n")
    return path


def summary(tracer: Tracer, n: int = 10) -> str:
    """Top-N attribution digest: spans by total time, links by bytes.

    Host-side spans written by :meth:`repro.perf.HostProfiler.export`
    (``host:`` name prefix: per-layer self time and hotspots) measure
    wall-clock of the simulator itself, not simulated time — they are
    kept out of the simulated attribution and reported in their own
    section.
    """
    sim_totals = {
        name: ct
        for name, ct in tracer.span_totals.items()
        if not name.startswith("host:")
    }
    host_totals = {
        name: ct
        for name, ct in tracer.span_totals.items()
        if name.startswith("host:")
    }
    lines = ["== span attribution (by total time) =="]
    spans = sorted(sim_totals.items(), key=lambda kv: (-kv[1][1], kv[0]))[:n]
    if not spans:
        lines.append("  (no spans recorded)")
    for name, (count, total) in spans:
        lines.append(f"  {name:<16} {int(count):>7} x  {total:.6f} s")
    if host_totals:
        lines.append("== host-side cost (simulator wall time) ==")
        for name, (count, total) in sorted(
            host_totals.items(), key=lambda kv: (-kv[1][1], kv[0])
        )[:n]:
            lines.append(f"  {name:<32} {int(count):>7} x  {total:.6f} s")

    lines.append("== hottest links (by bytes) ==")
    links = sorted(
        tracer.link_table().items(), key=lambda kv: (-kv[1]["bytes"], kv[0])
    )[:n]
    if not links:
        lines.append("  (no link traffic recorded)")
    for label, row in links:
        lines.append(
            f"  {label:<24} {int(row['bytes']):>10} B  "
            f"{int(row['transfers'])} xfers  {int(row['stalls'])} stalls "
            f"({row['stall_seconds']:.6f} s stalled)"
        )

    counters = tracer.metrics.to_dict()["counters"]
    if counters:
        lines.append("== counters ==")
        for name, value in counters.items():
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<24} {shown}")
    return "\n".join(lines)


def validate_trace_events(doc: dict) -> None:
    """Validate a Chrome ``trace_events`` document; raise ``ValueError``.

    Checks the object form (``traceEvents`` list), the per-phase
    required fields, and that timestamps/durations are non-negative
    numbers — the contract Perfetto's importer relies on.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace must be an object with a 'traceEvents' list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        for field in ("name", "pid"):
            if field not in ev:
                raise ValueError(f"event {i} ({ph}) missing {field!r}")
        if ph == "M":
            if "args" not in ev or "name" not in ev["args"]:
                raise ValueError(f"metadata event {i} missing args.name")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"span event {i} has bad dur {dur!r}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            raise ValueError(f"counter event {i} missing args values")
