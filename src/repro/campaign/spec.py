"""Declarative campaign specs and their deterministic job expansion.

A :class:`CampaignSpec` names *what* to (re)generate — experiments,
optional per-entry params, and optional sweep ``axes`` whose cartesian
product fans one entry out into many jobs.  :meth:`CampaignSpec.expand`
turns it into the flat, ordered, duplicate-free :class:`Job` list that
the runner, the cache, and the manifest all key off.  Expansion is a
pure function of the spec: same spec ⇒ same job ids in the same order,
on every machine, every run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.evaluation import experiment_ids, validate_experiment_params
from ..core.params import parse_params

__all__ = ["CampaignSpec", "Job", "SpecError", "canonical_params", "params_digest"]


class SpecError(ValueError):
    """A campaign spec that cannot be expanded into jobs."""


def canonical_params(params: Dict[str, Any]) -> str:
    """The canonical JSON form of a param dict: sorted keys, compact
    separators — insertion order never leaks into ids or cache keys."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def params_digest(params: Dict[str, Any], n: int = 8) -> str:
    """Short stable digest of a param dict (id suffix for swept jobs)."""
    return hashlib.sha256(canonical_params(params).encode()).hexdigest()[:n]


@dataclass(frozen=True)
class Job:
    """One addressable unit of campaign work: an experiment + params.

    ``job_id`` is the experiment id for parameter-free jobs and
    ``<experiment>-<digest8>`` otherwise, so default artifacts keep the
    classic ``repro run all`` names (``fig3.txt``) while swept variants
    get collision-free ones (``fig3-1a2b3c4d.txt``).  It is digested
    once per job and then cached on the instance; ``params`` is never
    mutated after construction.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: cheaper params to fall back to when the real job keeps failing
    #: on budget/timeout (graceful degradation); merged over ``params``,
    #: never part of the job id — the degraded artifact is still cached
    #: under its *own* content address.
    fallback: Optional[Dict[str, Any]] = None

    @cached_property
    def job_id(self) -> str:
        if not self.params:
            return self.experiment
        return f"{self.experiment}-{params_digest(self.params)}"

    @property
    def fallback_params(self) -> Optional[Dict[str, Any]]:
        """The full param dict a degraded run uses, or ``None``."""
        if self.fallback is None:
            return None
        return {**self.params, **self.fallback}

    @property
    def artifact_name(self) -> str:
        return f"{self.job_id}.txt"

    def describe(self) -> str:
        if not self.params:
            return self.experiment
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}({inner})"


def _coerce_params(raw: Any, where: str) -> Dict[str, Any]:
    """Accept params as a JSON object or as CLI-style key=value strings."""
    if raw is None:
        return {}
    if isinstance(raw, dict):
        return dict(raw)
    if isinstance(raw, (list, tuple)) and all(isinstance(p, str) for p in raw):
        try:
            return parse_params(list(raw))
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from None
    raise SpecError(
        f"{where}: 'params' must be an object or a list of key=value strings"
    )


@dataclass
class CampaignSpec:
    """A named list of campaign entries.

    Each entry is either a bare experiment id or a mapping::

        {"experiment": "fig6",
         "params": {"edge": 40},              # or ["edge=40"]
         "axes": {"edge": [30, 40, 50]}}      # cartesian fan-out

    ``axes`` values merge over ``params`` (an axis wins on name
    clashes), one job per point of the cartesian product, axis order as
    written, last axis fastest — identical to :class:`repro.core.Sweep`.
    """

    name: str = "campaign"
    entries: List[Dict[str, Any]] = field(default_factory=list)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_ids(
        cls,
        ids: Sequence[str],
        params: Optional[Dict[str, Any]] = None,
        name: str = "campaign",
    ) -> "CampaignSpec":
        """Spec over explicit experiment ids (``"all"`` ⇒ every one),
        with one shared param dict — the ``repro campaign run fig2
        fig3 --param k=v`` form."""
        expanded: List[str] = []
        for eid in ids:
            if eid == "all":
                expanded.extend(experiment_ids())
            else:
                expanded.append(eid)
        entries = [
            {"experiment": eid, **({"params": dict(params)} if params else {})}
            for eid in expanded
        ]
        return cls(name=name, entries=entries)

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path]) -> "CampaignSpec":
        """Load a JSON spec file (see ``docs/campaigns.md`` for the format)."""
        path = pathlib.Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(doc, name=path.stem)

    @classmethod
    def from_dict(cls, doc: Any, name: str = "campaign") -> "CampaignSpec":
        if isinstance(doc, list):
            doc = {"jobs": doc}
        if not isinstance(doc, dict):
            raise SpecError("campaign spec must be a JSON object or array")
        jobs = doc.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise SpecError("campaign spec needs a non-empty 'jobs' array")
        entries: List[Dict[str, Any]] = []
        for i, entry in enumerate(jobs):
            if isinstance(entry, str):
                entry = {"experiment": entry}
            if not isinstance(entry, dict) or "experiment" not in entry:
                raise SpecError(
                    f"jobs[{i}]: each entry is an experiment id or an object "
                    "with an 'experiment' key"
                )
            unknown = sorted(set(entry) - {"experiment", "params", "axes", "fallback"})
            if unknown:
                raise SpecError(f"jobs[{i}]: unknown key(s) {unknown}")
            entries.append(dict(entry))
        return cls(name=str(doc.get("name", name)), entries=entries)

    # -- expansion ----------------------------------------------------------
    def expand(self) -> List[Job]:
        """The deterministic job list: entry order, axes last-fastest.

        Every job is validated against the experiment registry (id and
        param names), and duplicate job ids are a :class:`SpecError` —
        jobs must be addressable, two identical jobs would race on one
        artifact.
        """
        if not self.entries:
            raise SpecError("campaign spec has no jobs")
        out: List[Job] = []
        seen: Dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            where = f"jobs[{i}]"
            eid = entry.get("experiment")
            if not isinstance(eid, str) or not eid:
                raise SpecError(f"{where}: 'experiment' must be an id string")
            base = _coerce_params(entry.get("params"), where)
            fallback: Optional[Dict[str, Any]] = None
            if entry.get("fallback") is not None:
                fallback = _coerce_params(entry.get("fallback"), f"{where}.fallback")
            axes = entry.get("axes") or {}
            if not isinstance(axes, dict):
                raise SpecError(f"{where}: 'axes' must map names to value lists")
            for axis, values in axes.items():
                if not isinstance(values, (list, tuple)) or not values:
                    raise SpecError(
                        f"{where}: axis {axis!r} needs a non-empty value list"
                    )
            names = list(axes)
            combos = (
                [dict(zip(names, c)) for c in product(*(list(axes[n]) for n in names))]
                if names
                else [{}]
            )
            for combo in combos:
                params = {**base, **combo}
                try:
                    validate_experiment_params(eid, params)
                    if fallback is not None:
                        validate_experiment_params(eid, {**params, **fallback})
                except KeyError as exc:
                    raise SpecError(f"{where}: {exc.args[0]}") from None
                job = Job(experiment=eid, params=params, fallback=fallback)
                dup = seen.get(job.job_id)
                if dup is not None:
                    raise SpecError(
                        f"{where}: duplicate job {job.job_id!r} "
                        f"(first defined by jobs[{dup}])"
                    )
                seen[job.job_id] = i
                out.append(job)
        return out

    # -- round-trip ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "jobs": [dict(e) for e in self.entries]}
