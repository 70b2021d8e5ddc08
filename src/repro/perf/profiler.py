"""Host self-profiler: where the simulator's own wall time goes, by layer.

``repro.obs`` observes *simulated* time; :class:`HostProfiler`
observes the **host** time of whatever runs inside it — a DES scenario,
an analytic artifact, a campaign job — with one stdlib ``cProfile``
capture::

    with HostProfiler(top=10) as prof:
        run_experiment("fig2")
    print(prof.report())

:meth:`HostProfiler.layers` rolls self time up by ``repro`` package
(``halo``, ``topology``, ``simengine``, ``simmpi``, ``obs``, ...; each
application under ``apps/`` is its own ``apps.<app>`` layer).  Code
outside ``repro`` — numpy, builtins, the import machinery — is no
layer of its own: its self time goes to the layers of its callers, in
proportion to the time each caller spent in it, and up through chains
of outside callers until a ``repro`` frame is reached.
Time that reaches no ``repro`` caller is reported as ``external``.

:meth:`HostProfiler.export` writes the layer table and the top-N
hotspots as ``host:`` spans on :data:`HOST_PID` of a tracer, laid out
as ranked bars from t=0; ``repro.obs.summary`` keeps them out of the
simulated attribution.  Host timings vary from run to run, so an
exported trace is not byte-identical; an unprofiled run records
nothing.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict
from typing import Any, Dict, List, Tuple

__all__ = ["HostProfiler", "HOST_PID"]

#: Synthetic Chrome-trace pid hosting the host-side cost tracks, after
#: obs's engine/network pids and the campaign, recovery and serve pids.
HOST_PID = 1000005

#: Thread ids within the host pid.
TID_LAYERS = 0
TID_HOTSPOTS = 1

#: ``.../repro/`` as the import system spelled it, which is how the
#: profiled code objects name their files; each file under it belongs
#: to a layer
_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep

#: Passes of the caller roll-up.  Each pass lifts outside time one
#: caller up; nested imports cycle through the import machinery and
#: reach their ``repro`` importers geometrically, so after 64 passes
#: about 1e-4 of a cold run's outside time is still in flight, and
#: is reported as ``external``.
_ROUNDS = 64

#: A cProfile key: ``(filename, line, function)``.
_Key = Tuple[str, int, str]


def _layer(filename: str) -> str:
    """The ``repro`` layer of a source file, or ``""`` outside ``repro``."""
    if not filename.startswith(_ROOT):
        return ""
    parts = filename[len(_ROOT):].split(os.sep)
    if parts[0] == "apps" and len(parts) > 2:
        return f"apps.{parts[1]}"
    if len(parts) > 1:
        return parts[0]
    # a top-level module: cli, or the package's __init__/__main__
    stem = parts[0][: -len(".py")]
    return "repro" if stem.startswith("__") else stem


class HostProfiler:
    """A ``cProfile`` capture of a ``with`` block, rolled up by layer.

    Parameters
    ----------
    top:
        How many hotspot rows :meth:`report` and :meth:`export` carry.

    Entering the block again adds to the same capture.  Read the
    results after the block: building them stops the capture.
    """

    def __init__(self, top: int = 10) -> None:
        self.top = top
        #: the raw capture, for ``pstats`` or any cProfile viewer
        self.profile = cProfile.Profile()

    def __enter__(self) -> "HostProfiler":
        self.profile.enable()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.profile.disable()

    def _stats(self) -> Dict[_Key, Any]:
        self.profile.create_stats()
        return self.profile.stats

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, largest first; they sum to the
        capture's total self time."""
        stats = self._stats()
        totals: Dict[str, float] = defaultdict(float)
        pending: Dict[_Key, float] = {}
        for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
            layer = _layer(key[0])
            if layer:
                totals[layer] += tt
            elif tt > 0:
                pending[key] = tt
        # A function's own self time splits by the self time each caller
        # saw (caller entry index 2); time passed up through it splits by
        # each caller's cumulative time in it (index 3).
        weight = 2
        for _ in range(_ROUNDS):
            if not pending:
                break
            lifted: Dict[_Key, float] = defaultdict(float)
            for key, seconds in pending.items():
                callers = [
                    (caller, entry[weight])
                    for caller, entry in stats[key][4].items()
                    if caller != key and entry[weight] > 0
                ]
                share = sum(w for _, w in callers)
                if share <= 0:
                    totals["external"] += seconds
                    continue
                for caller, w in callers:
                    part = seconds * w / share
                    layer = _layer(caller[0])
                    if layer:
                        totals[layer] += part
                    else:
                        lifted[caller] += part
            pending = lifted
            weight = 3
        if pending:
            totals["external"] += sum(pending.values())
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def hotspots(self) -> List[Tuple[str, float, float, int]]:
        """Top-N ``(where, self_s, cumulative_s, calls)`` by self time."""
        rows = [
            (f"{func} ({os.path.basename(filename)}:{line})", tt, ct, nc)
            for (filename, line, func), (_cc, nc, tt, ct, _callers)
            in self._stats().items()
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[: self.top]

    def report(self) -> str:
        """ASCII digest: the layer table, then the top-N hotspots."""
        layers = self.layers()
        total = sum(layers.values())
        lines = [
            f"== host self-profile: {total:.4f} s self time "
            "(cProfile, outside code billed to its callers) ==",
            f"  {'layer':<16} {'self s':>9} {'share':>7}",
        ]
        for layer, seconds in layers.items():
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {layer:<16} {seconds:9.4f} {share:7.1%}")
        rows = self.hotspots()
        lines.append(f"== top {len(rows)} hotspots (by self time) ==")
        for where, self_s, cumulative, calls in rows:
            lines.append(
                f"  {self_s:8.4f} s self  {cumulative:8.4f} s cum  "
                f"{calls:>8} calls  {where}"
            )
        return "\n".join(lines)

    def export(self, tracer: Any) -> None:
        """Write the layers and hotspots as ``host:`` spans on
        :data:`HOST_PID`, each track laid out as ranked bars from 0."""
        tracer.set_process_name(HOST_PID, "host self-profile")
        tracer.set_thread_name(HOST_PID, TID_LAYERS, "layers")
        tracer.set_thread_name(HOST_PID, TID_HOTSPOTS, "hotspots")
        cursor = 0.0
        for layer, seconds in self.layers().items():
            tracer.complete(
                HOST_PID, f"host:{layer}", cursor, cursor + seconds,
                cat="host.layer", tid=TID_LAYERS,
            )
            cursor += seconds
        cursor = 0.0
        for where, self_s, cumulative, calls in self.hotspots():
            tracer.complete(
                HOST_PID, f"host:{where}", cursor, cursor + self_s,
                cat="host.hotspot",
                args={"calls": calls, "cum_s": round(cumulative, 6)},
                tid=TID_HOTSPOTS,
            )
            cursor += self_s
