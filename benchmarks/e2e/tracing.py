"""Spans around layer calls, for the one traced repetition of a run.

A :class:`Recorder` wraps the public functions listed in ``WRAPS``,
each at the attribute its caller looks up (a class attribute for
methods, the caller's module global for functions), and records one
span per call: name, start, end, parent and operation id.  Spans stay
in memory and are written at exit as a Chrome trace through
``repro.obs``.  Functions that run more than ~100k times in one
repetition are aggregated as a call count plus total time instead.

A layer's *self* time is its span minus the time its child spans and
aggregated calls cover.  Untraced repetitions get a
:class:`NullRecorder`, which wraps nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pathlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.perf.hostclock import host_counter

__all__ = ["NullRecorder", "Recorder", "WRAPS"]

#: (module, attribute path, span name, aggregate instead of one span per call)
WRAPS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.topology.torus", "Torus3D.route", "topology.route", True),
    ("repro.topology.torus", "Torus3D.fail_link", "topology.fail_link", False),
    ("repro.topology.mapping", "Mapping.node_of", "topology.node_of", True),
    ("repro.halo.bench", "HaloBenchmark.time_analytic", "halo.time_analytic", False),
    ("repro.apps.pop.grid", "PopGrid.land_mask", "apps.pop.land_mask", False),
    ("repro.apps.pop.model", "imbalance", "apps.pop.imbalance", False),
    ("repro.simmpi.comm", "Cluster.__init__", "simmpi.cluster_init", False),
    ("repro.simmpi.comm", "Cluster.run", "simmpi.cluster_run", False),
    ("repro.campaign.cache", "ResultCache.get", "campaign.cache_get", False),
    ("repro.campaign.cache", "ResultCache.put", "campaign.cache_put", False),
    ("repro.campaign.runner", "write_manifest", "campaign.write_manifest", False),
)

#: Chrome-trace pid of the benchmark's own span track.
TRACE_PID = 1000010

_NULL = contextlib.nullcontext()


class NullRecorder:
    """The untraced stand-in: spans and counts cost one call each."""

    traced = False

    def span(self, name: str, op: Optional[str] = None) -> Any:
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Recorder:
    """In-memory spans, aggregated leaf calls and boundary counts."""

    traced = True

    def __init__(self) -> None:
        #: [name, start, end, self seconds, parent index (-1 = root), op id]
        self.spans: List[List[Any]] = []
        #: aggregated calls: name -> [calls, total seconds]
        self.leaves: Dict[str, List[float]] = {}
        #: counts read at layer boundaries (messages, events, cache hits, ...)
        self.counts: Dict[str, float] = {}
        #: wrap targets this tree does not have (reported, never fatal)
        self.missing: List[str] = []
        self._stack: List[List[Any]] = []  # open spans: [index, covered seconds]
        self._op = ""
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        outer_op = self._op
        if op is not None:
            self._op = op
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        start = host_counter()
        self.spans.append([name, start, start, 0.0, parent, self._op])
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            end = host_counter()
            _, covered = self._stack.pop()
            record = self.spans[index]
            record[2] = end
            record[3] = end - start - covered
            if self._stack:
                self._stack[-1][1] += end - start
            self._op = outer_op

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every ``WRAPS`` target present in this tree."""
        for module, path, name, aggregate in WRAPS:
            try:
                owner: Any = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if aggregate:
                wrapper = self._aggregated(original, name)
            elif name == "simmpi.cluster_run":
                wrapper = self._cluster_run(original)
            else:
                wrapper = self._spanned(original, name)
            setattr(owner, attr, functools.wraps(original)(wrapper))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _aggregated(self, fn: Callable, name: str) -> Callable:
        stats = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = host_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = host_counter() - t0
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _spanned(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _cluster_run(self, fn: Callable) -> Callable:
        """``Cluster.run`` plus the counts its result and engine carry."""

        def wrapper(cluster: Any, *args: Any, **kwargs: Any) -> Any:
            env = getattr(cluster, "env", None)
            before = getattr(env, "events_processed", 0)
            with self.span("simmpi.cluster_run"):
                result = fn(cluster, *args, **kwargs)
            self.count("simengine.events", getattr(env, "events_processed", 0) - before)
            self.count("simmpi.messages", getattr(result, "messages", 0))
            self.count("simmpi.bytes", getattr(result, "bytes_sent", 0))
            faults = getattr(result, "faults", None)
            if faults is not None:
                self.count("faults.retries", getattr(faults, "retries", 0))
                self.count("faults.reroutes", getattr(faults, "reroutes", 0))
            return result

        return wrapper

    # -- reporting --------------------------------------------------------
    def layer_table(self) -> Dict[str, List[float]]:
        """name -> [count, total seconds, self seconds]."""
        rows: Dict[str, List[float]] = {}
        for name, start, end, self_s, _parent, _op in self.spans:
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        for name, (calls, total) in self.leaves.items():
            if calls:
                rows[name] = [calls, total, total]
        return rows

    def durations(self, name: str, op: Optional[str] = None) -> List[float]:
        """Durations of the spans called ``name`` (within operation ``op``)."""
        return [
            end - start
            for n, start, end, _self, _parent, o in self.spans
            if n == name and (op is None or o == op)
        ]

    def write_chrome_trace(self, path: pathlib.Path, title: str) -> int:
        """Write the spans through ``repro.obs``; returns the event count.

        Raises ``ValueError`` when the document fails
        ``validate_trace_events``.
        """
        from repro.obs import Tracer, chrome_trace_json, validate_trace_events

        tracer = Tracer()
        tracer.set_process_name(TRACE_PID, title)
        origin = min((s[1] for s in self.spans), default=0.0)
        last = max((s[2] for s in self.spans), default=origin)
        for i, (name, start, end, self_s, parent, op) in enumerate(self.spans):
            tracer.complete(
                TRACE_PID,
                name,
                start - origin,
                end - origin,
                cat=name.split(".")[0],
                args={"id": i, "parent": parent, "op": op, "self_s": self_s},
            )
        for name, (calls, total) in sorted(self.leaves.items()):
            tracer.counter(
                TRACE_PID, name, last - origin, {"calls": calls, "total_s": total}
            )
        text = chrome_trace_json(tracer)
        doc = json.loads(text)
        validate_trace_events(doc)
        path.write_text(text + "\n", encoding="utf-8")
        return len(doc["traceEvents"])
