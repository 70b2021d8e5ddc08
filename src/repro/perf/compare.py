"""The compare/gate engine behind ``repro bench compare``.

Compares two ``BENCH_*.json`` snapshots benchmark-by-benchmark and
classifies each as ``ok`` / ``regression`` / ``improved`` / ``missing``
/ ``new``.  The gate is noise-aware: a benchmark regresses only when
its new median exceeds

    base_median * (1 + threshold) + noise_slack

where ``threshold`` is the larger of the global ``--fail-over`` and
the benchmark's own per-entry tolerance, and ``noise_slack`` is twice
the summed sample stddevs of both snapshots, capped at half the base
median — median-of-K plus the slack keeps one noisy repetition from
failing a PR, while the cap guarantees that a new median twice the
base median trips the gate (for any threshold below 50%) no matter how
jittery the samples are.  That is a promise about the two medians, not
about the code: a base median that itself ran slow can hide a genuine
2x slowdown of the code's true speed.

A benchmark present in the baseline but absent from the new snapshot
is a *failure* (``missing``): silently dropping a benchmark is how
regressions hide.  New benchmarks are informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .snapshot import Snapshot

__all__ = ["BenchDelta", "Comparison", "compare_snapshots", "parse_percent"]


def parse_percent(text: str) -> float:
    """Parse a tolerance: ``"15%"`` -> 0.15, ``"0.15"`` -> 0.15."""
    raw = text.strip()
    if raw.endswith("%"):
        value = float(raw[:-1]) / 100.0
    else:
        value = float(raw)
    if value < 0:
        raise ValueError(f"tolerance must be non-negative, got {text!r}")
    return value


@dataclass
class BenchDelta:
    """Verdict for one benchmark key across the two snapshots."""

    name: str
    status: str  # ok | regression | improved | missing | new
    base_median: Optional[float] = None
    new_median: Optional[float] = None
    #: relative change, new vs base (+0.5 = 50% slower); None when absent
    delta: Optional[float] = None
    #: the relative tolerance this benchmark was held to
    threshold: Optional[float] = None
    #: absolute noise slack (seconds) granted on top of the threshold
    noise_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")

    def format(self) -> str:
        if self.status == "missing":
            return f"  [FAIL] {self.name:<40} missing from new snapshot"
        if self.status == "new":
            return f"  [new ] {self.name:<40} {self.new_median:.6f}s (no baseline)"
        mark = {"ok": " ok ", "improved": "FAST", "regression": "FAIL"}[self.status]
        pct = 100.0 * (self.delta or 0.0)
        return (
            f"  [{mark}] {self.name:<40} {self.base_median:.6f}s -> "
            f"{self.new_median:.6f}s  ({pct:+.1f}%, "
            f"allowed +{100.0 * (self.threshold or 0.0):.0f}% "
            f"+ {self.noise_s * 1e3:.2f}ms noise)"
        )


@dataclass
class Comparison:
    """Outcome of one snapshot-vs-snapshot gate evaluation."""

    deltas: List[BenchDelta] = field(default_factory=list)
    fail_over: float = 0.15
    #: host fingerprints differed — timings are indicative, not exact
    cross_host: bool = False

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def missing(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status == "missing"]

    @property
    def ok(self) -> bool:
        return not any(d.failed for d in self.deltas)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [
            f"== bench compare (fail-over {100.0 * self.fail_over:.0f}%, "
            f"{len(self.deltas)} benchmark(s)) =="
        ]
        if self.cross_host:
            lines.append(
                "  note: snapshots come from different hosts — medians are "
                "not directly comparable; treat deltas as indicative"
            )
        lines += [d.format() for d in self.deltas]
        failed = [d for d in self.deltas if d.failed]
        if failed:
            lines.append(
                f"GATE: {len(failed)} failure(s): "
                + ", ".join(d.name for d in failed)
            )
        else:
            lines.append("GATE: ok")
        return "\n".join(lines)


#: Multiplier on the summed stddevs granted as absolute noise slack.
_NOISE_SIGMA = 2.0

#: Ceiling on the noise slack, as a fraction of the base median.  An
#: arbitrarily jittery benchmark must not become ungateable: a new
#: median twice the base median always clears threshold + cap (for a
#: threshold below 50%), however noisy the runs.  A slow base median
#: can still hide a 2x slowdown of the code itself.
_NOISE_CAP = 0.5


def compare_snapshots(
    base: Snapshot, new: Snapshot, fail_over: float = 0.15
) -> Comparison:
    """Evaluate ``new`` against the ``base`` snapshot."""
    if fail_over < 0:
        raise ValueError("fail_over must be non-negative")
    cmp = Comparison(
        fail_over=fail_over,
        cross_host=base.host.get("fingerprint") != new.host.get("fingerprint"),
    )
    names = sorted(set(base.entries) | set(new.entries))
    for name in names:
        a = base.entries.get(name)
        b = new.entries.get(name)
        if a is None:
            cmp.deltas.append(
                BenchDelta(name=name, status="new", new_median=b.median_s)
            )
            continue
        if b is None:
            cmp.deltas.append(
                BenchDelta(name=name, status="missing", base_median=a.median_s)
            )
            continue
        threshold = max(
            fail_over,
            a.threshold if a.threshold is not None else 0.0,
            b.threshold if b.threshold is not None else 0.0,
        )
        noise = min(
            _NOISE_SIGMA * (a.stddev_s + b.stddev_s),
            _NOISE_CAP * a.median_s,
        )
        delta = (
            (b.median_s - a.median_s) / a.median_s if a.median_s > 0 else 0.0
        )
        allowed = a.median_s * (1.0 + threshold) + noise
        floor = a.median_s * (1.0 - threshold) - noise
        if b.median_s > allowed:
            status = "regression"
        elif b.median_s < floor:
            status = "improved"
        else:
            status = "ok"
        cmp.deltas.append(
            BenchDelta(
                name=name,
                status=status,
                base_median=a.median_s,
                new_median=b.median_s,
                delta=delta,
                threshold=threshold,
                noise_s=noise,
            )
        )
    return cmp
