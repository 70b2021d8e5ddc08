"""Campaign bookkeeping on disk: campaign file, journal, manifest.

Three files, three roles:

* ``campaign.json`` — the expanded plan: spec + deterministic job
  list.  Written once at campaign start; a resume checks the stored
  plan still matches the requested spec.
* ``journal.jsonl`` — append-only; a job gains a JSON record when a
  pass settles it with a record different from its last one, and each
  record is flushed and fsync'd as it is appended.  This is what
  survives an interrupt: a resumed campaign reads the journal to know
  which jobs already completed.  The last record per job wins, so a
  record equal to the last one is never repeated.
* ``manifest.json`` — the run index rewritten after every campaign
  pass: ids, params, artifact paths, content digests, status.  This is
  the file CI diffs between runs (and what ``repro run all -o out/``
  emits), so it contains no wall-clock times — it is a pure function
  of the results.  One encoder renders it from per-record pieces
  (:func:`record_text` + :func:`manifest_text`), so a writer that keeps
  the pieces of unchanged records re-encodes only the ones that moved.

Crash consistency: the campaign file and manifest are written via
:func:`~repro.campaign.cache.atomic_write` (a kill mid-rewrite leaves
the previous version, never a torn one); journal appends self-heal a
torn tail (a record that died mid-write is newline-terminated before
the next append, so exactly the torn record is lost and nothing
else); and a manifest that *is* torn — hard kill, filesystem tear,
injected chaos — is recoverable by rebuilding from the journal
(:func:`rebuild_manifest_doc`) instead of dying on ``JSONDecodeError``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from .cache import atomic_write
from .spec import CampaignSpec, Job

__all__ = [
    "JobRecord",
    "append_journal",
    "read_journal",
    "write_campaign_file",
    "load_campaign_file",
    "manifest_doc",
    "record_text",
    "manifest_text",
    "write_manifest",
    "load_manifest",
    "rebuild_manifest_doc",
    "load_or_rebuild_manifest",
    "CAMPAIGN_FILE",
    "JOURNAL_FILE",
    "MANIFEST_FILE",
    "STATUSES",
]

CAMPAIGN_FILE = "campaign.json"
JOURNAL_FILE = "journal.jsonl"
MANIFEST_FILE = "manifest.json"

#: Every status a job record can carry.  ``done`` and ``degraded``
#: produced an artifact (``degraded`` via the job's analytic fallback);
#: ``quarantined`` is a poison job skipped after killing too many
#: workers; ``pending`` never ran this pass.  The last three are live
#: states only the campaign *service* snapshots (``repro serve``):
#: ``queued`` waits for a lease, ``leased`` is owned but not dispatched,
#: ``running`` is executing — ``repro campaign status`` on a serve
#: directory reports a campaign mid-flight.
STATUSES = (
    "done",
    "degraded",
    "failed",
    "quarantined",
    "pending",
    "queued",
    "leased",
    "running",
)


@dataclass
class JobRecord:
    """The durable outcome of one job attempt."""

    job_id: str
    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: one of :data:`STATUSES`
    status: str = "done"
    #: where the result came from: ``"cache"``, ``"computed"``, or
    #: ``"journal"`` (carried forward, e.g. a quarantined poison job)
    source: str = "computed"
    #: sha256 of the artifact text ("" for failures)
    digest: str = ""
    #: artifact path relative to the campaign directory ("" for failures)
    artifact: str = ""
    attempts: int = 1
    error: str = ""
    error_type: str = ""
    #: failure classification: ``"budget"``/``"fault"``/``"config"``/
    #: ``"transient"``/``"timeout"``/``"crash"``/``"interrupt"``/``"poison"``
    classification: str = ""
    #: seeded backoff delays (host seconds) applied before each retry —
    #: a pure function of (job id, attempt, seed), so identical across
    #: ``--jobs 1`` and ``--jobs N`` and safe to keep in the manifest
    backoff_s: List[float] = field(default_factory=list)
    #: the params the analytic fallback ran with (``degraded`` only)
    degraded_params: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the job produced an artifact (possibly degraded)."""
        return self.status in ("done", "degraded")

    def to_dict(self) -> Dict[str, Any]:
        """``dataclasses.asdict`` without its deep copy: the containers
        are fresh copies, their JSON values shared."""
        return {
            "job_id": self.job_id,
            "experiment": self.experiment,
            "params": dict(self.params),
            "status": self.status,
            "source": self.source,
            "digest": self.digest,
            "artifact": self.artifact,
            "attempts": self.attempts,
            "error": self.error,
            "error_type": self.error_type,
            "classification": self.classification,
            "backoff_s": list(self.backoff_s),
            "degraded_params": dict(self.degraded_params),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


# ---------------------------------------------------------------------------
# journal.jsonl
# ---------------------------------------------------------------------------
def _heal_torn_tail(fh) -> None:
    """Newline-terminate a torn final record so this append starts a
    fresh line.  Without this, a record appended after a mid-write
    crash would fuse with the torn tail and *both* would be lost;
    with it, exactly the record that never completed is dropped.
    (``fh`` must be readable — ``a+b``, not ``ab``.)"""
    fh.seek(0, os.SEEK_END)
    if fh.tell() == 0:
        return
    fh.seek(-1, os.SEEK_END)
    if fh.read(1) != b"\n":
        fh.write(b"\n")


def append_journal(path: Union[str, pathlib.Path], record: JobRecord) -> None:
    """Append one record and flush it to disk immediately."""
    line = json.dumps(record.to_dict(), sort_keys=True)
    with open(path, "a+b") as fh:
        _heal_torn_tail(fh)
        fh.write((line + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())


def read_journal(path: Union[str, pathlib.Path]) -> Dict[str, JobRecord]:
    """Latest record per job id; tolerates a torn trailing line."""
    out: Dict[str, JobRecord] = {}
    path = pathlib.Path(path)
    if not path.is_file():
        return out
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            record = JobRecord.from_dict(doc)
        except (json.JSONDecodeError, TypeError):
            continue  # torn write from an interrupt: ignore the tail
        if record.job_id:
            out[record.job_id] = record
    return out


# ---------------------------------------------------------------------------
# campaign.json
# ---------------------------------------------------------------------------
def write_campaign_file(
    path: Union[str, pathlib.Path], spec: CampaignSpec, jobs: List[Job]
) -> None:
    doc = {
        "spec": spec.to_dict(),
        "jobs": [
            {
                "id": j.job_id,
                "experiment": j.experiment,
                "params": j.params,
                **({"fallback": j.fallback} if j.fallback is not None else {}),
            }
            for j in jobs
        ],
    }
    atomic_write(pathlib.Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_campaign_file(path: Union[str, pathlib.Path]) -> Optional[Dict[str, Any]]:
    path = pathlib.Path(path)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8", errors="replace"))
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# manifest.json
# ---------------------------------------------------------------------------
def manifest_doc(
    records: List[JobRecord],
    name: str = "campaign",
    code_fingerprint: str = "",
) -> Dict[str, Any]:
    """The manifest as a document (what readers and the journal
    rebuild hand around; :func:`manifest_text` is its encoding)."""
    return {
        "name": name,
        "code_fingerprint": code_fingerprint,
        "jobs": [r.to_dict() for r in records],
    }


def record_text(record: JobRecord) -> str:
    """One record's piece of the manifest, indented for its place in
    the ``jobs`` list.  Re-indenting after the fact is exact: a JSON
    string never holds a raw newline, so every newline is layout."""
    return json.dumps(record.to_dict(), indent=2, sort_keys=True).replace(
        "\n", "\n    "
    )


def manifest_text(
    pieces: List[str], name: str = "campaign", code_fingerprint: str = ""
) -> str:
    """Assemble the manifest from :func:`record_text` pieces — the same
    bytes as ``json.dumps(manifest_doc(...), indent=2, sort_keys=True)``
    plus a trailing newline."""
    jobs = "[\n    " + ",\n    ".join(pieces) + "\n  ]" if pieces else "[]"
    return (
        f'{{\n  "code_fingerprint": {json.dumps(code_fingerprint)},\n'
        f'  "jobs": {jobs},\n'
        f'  "name": {json.dumps(name)}\n}}\n'
    )


def write_manifest(
    path: Union[str, pathlib.Path],
    records: List[JobRecord],
    name: str = "campaign",
    code_fingerprint: str = "",
) -> pathlib.Path:
    """Write the deterministic run index (shared with ``repro run all``)."""
    text = manifest_text(
        [record_text(r) for r in records], name=name, code_fingerprint=code_fingerprint
    )
    return atomic_write(pathlib.Path(path), text)


def load_manifest(path: Union[str, pathlib.Path]) -> Optional[Dict[str, Any]]:
    path = pathlib.Path(path)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8", errors="replace"))
    except json.JSONDecodeError:
        return None


def rebuild_manifest_doc(
    directory: Union[str, pathlib.Path],
) -> Optional[Dict[str, Any]]:
    """Reconstruct a manifest from the torn-tolerant journal.

    Used when ``manifest.json`` is missing or torn: the journal's last
    fsync'd record per finished job is its latest one, so everything
    except jobs still in flight at the crash comes back.  Plan order is
    restored from ``campaign.json`` when that file is readable; jobs
    planned but never journaled surface as ``pending``.
    """
    directory = pathlib.Path(directory)
    journal = read_journal(directory / JOURNAL_FILE)
    plan = load_campaign_file(directory / CAMPAIGN_FILE)
    if not journal and plan is None:
        return None
    records: List[JobRecord] = []
    seen: set = set()
    if plan is not None:
        for job in plan.get("jobs", []):
            job_id = job.get("id", "")
            if not job_id:
                continue
            seen.add(job_id)
            record = journal.get(job_id)
            if record is None:
                record = JobRecord(
                    job_id=job_id,
                    experiment=job.get("experiment", ""),
                    params=job.get("params", {}) or {},
                    status="pending",
                    source="",
                    attempts=0,
                )
            records.append(record)
    for job_id in sorted(set(journal) - seen):
        records.append(journal[job_id])
    name = "campaign"
    if plan is not None:
        name = str((plan.get("spec") or {}).get("name", name))
    doc = manifest_doc(records, name=name)
    doc["rebuilt_from_journal"] = True
    return doc


def load_or_rebuild_manifest(
    directory: Union[str, pathlib.Path],
) -> Optional[Dict[str, Any]]:
    """The manifest if readable, else the journal rebuild, else None."""
    directory = pathlib.Path(directory)
    doc = load_manifest(directory / MANIFEST_FILE)
    if doc is not None:
        return doc
    return rebuild_manifest_doc(directory)
