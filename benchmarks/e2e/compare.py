"""Compare benchmark results of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...

Each file is a ``run.py --out`` result.  Give at least ten runs of
each side per workload, made alternately (parent, change, change,
parent, ...); for each workload the i-th parent run pairs with the i-th
change run, in the order the files are given.  One row is printed per
workload and metric: both sides' medians and quartiles, the change in the
median, the pairs the change won, the bound, and a label:

* *improved*: the change wins at least 9 of every 10 pairs (ties count
  for neither side), there are at least 10 pairs, and the medians differ
  by more than the parent's own spread (its interquartile range);
* *regressed*: the change's median is worse than the parent's by more
  than the bound;
* *unresolved*: the parent's spread, as a share of its median, is wider
  than the bound, so "unchanged" cannot be told from noise.  This does
  not apply when every change run reads better (or every one worse)
  than every parent run;
* *unchanged*: everything else.

Bounds come from the ``end_to_end`` metrics of ``BENCHMARK.json``.  The
per-layer metrics and the workload details (``detail`` in the result
files) have no bound, so they compare with bound 0: a count must repeat
exactly, and a time is unresolved unless it wins outright.  The exit
status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["compare", "label", "load_rows"]

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9
#: Pairs needed before a gain may be claimed at all.
MIN_PAIRS = 10

#: Direction of the workload details (``detail`` in result files).
DETAIL_BETTER = {
    "sim_msgs_per_s": "higher",
    "jobs_per_s": "higher",
    "warm_jobs_per_s": "higher",
    "hit_ratio": "higher",
    "turnaround_p50_s": "lower",
    "turnaround_p95_s": "lower",
    "submit_p50_s": "lower",
    "resubmit_p50_s": "lower",
}


def load_rows(path: pathlib.Path) -> Dict[Tuple[str, str], float]:
    """(workload, metric) -> value for every number in one result file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    rows: Dict[Tuple[str, str], float] = {}
    for result in doc["results"]:
        w = result["workload"]
        for name, value in result["metrics"].items():
            rows[(w, name)] = float(value)
        for name, value in result["detail"].items():
            if name in DETAIL_BETTER:
                rows[(w, name)] = float(value)
        rows[(w, "failed")] = float(len(result["failures"]))
    return rows


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def label(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Medians, quartiles, wins and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # worse = positive
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    scale = abs(pm) if pm else 1.0
    worse_by = sign * (cm - pm) / scale
    spread = (p3 - p1) / scale
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (pm - cm) > p3 - p1
    ):
        verdict = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        verdict = "regressed"
    elif spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "label": verdict,
    }


def compare(
    parents: List[pathlib.Path], changes: List[pathlib.Path], bench: Dict[str, Any]
) -> List[Tuple[str, str, float, Dict[str, Any]]]:
    """One labelled row per (workload, metric) that both sides measured.

    A file may hold one workload or several; the values of one row pair
    up in the order their files were given.
    """
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        bounds[m["name"]] = (m["better"], 0.0)
    for name, better in DETAIL_BETTER.items():
        bounds.setdefault(name, (better, 0.0))
    bounds["failed"] = ("lower", 0.0)
    sides: List[Dict[Tuple[str, str], List[float]]] = []
    for paths in (parents, changes):
        values: Dict[Tuple[str, str], List[float]] = {}
        for path in paths:
            for key, value in load_rows(path).items():
                values.setdefault(key, []).append(value)
        sides.append(values)
    out = []
    for key in sorted(set(sides[0]) & set(sides[1])):
        parent, change = sides[0][key], sides[1][key]
        if len(parent) != len(change):
            raise ValueError(
                f"{key[0]} {key[1]}: {len(parent)} parent value(s) but "
                f"{len(change)} change value(s); they must pair up"
            )
        better, bound = bounds.get(key[1], ("lower", 0.0))
        out.append((key[0], key[1], bound, label(parent, change, better, bound)))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=pathlib.Path, required=True)
    parser.add_argument("--change", nargs="+", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        rows = compare(args.parent, args.change, bench)
    except ValueError as exc:
        parser.error(str(exc))
    if any(r["pairs"] < MIN_PAIRS for *_k, r in rows):
        print(f"note: fewer than {MIN_PAIRS} pairs; no gain can be claimed from them")
    print(
        f"{'workload':<9} {'metric':<32} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'worse by':>9} {'wins':>6} {'bound':>6}  label"
    )
    for w, name, bound, r in rows:
        parent = "{:.5g} [{:.5g}, {:.5g}]".format(*r["parent"])
        change = "{:.5g} [{:.5g}, {:.5g}]".format(*r["change"])
        print(
            f"{w:<9} {name:<32} {parent:<34} {change:<34} "
            f"{100 * r['worse_by']:>+8.2f}% {r['wins']:>3}/{r['pairs']:<2} "
            f"{bound:>6.0%}  {r['label']}"
        )
    return 1 if any(r["label"] == "regressed" for *_k, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
