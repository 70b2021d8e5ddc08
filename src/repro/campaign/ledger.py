"""The campaign ledger: every durable write of one campaign directory.

Both front doors — the batch :class:`~repro.campaign.runner.CampaignRunner`
and the :class:`repro.serve.server.CampaignServer` service — persist a
finished job through the same writes:

* the artifact ``<job>.txt``, left untouched when it already holds the
  exact bytes (an all-hit rerun rewrites nothing, not even an mtime);
* the result-cache entry (:meth:`~repro.campaign.cache.ResultCache.put`);
* one ``journal.jsonl`` record; a batch pass skips one equal to the
  job's last durable record — the last record per job wins, so a
  repeat would change nothing;
* the ``manifest.json`` rewrite, once per pass (batch) or per sweep
  (service).

Whole files land through :func:`~repro.campaign.cache.atomic_write`,
journal records through the fsync'd, torn-tolerant append.  The cache,
journal and manifest writes run under the chaos write-fault hook in one
place, :meth:`Ledger._guarded`: an ``ioerr`` fails the write before it
starts, a ``torn`` one leaves a prefix of the intended bytes, and the
campaign goes on either way — a lost cache entry recomputes, a lost
journal record is still in the manifest, and a torn manifest rebuilds
from the journal.
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..chaos import (
    ChaosEvent,
    ChaosInjector,
    torn_cache_put,
    torn_journal_append,
    torn_text_write,
)
from .cache import ResultCache, artifact_text, atomic_write, text_digest
from .manifest import JOURNAL_FILE, MANIFEST_FILE, JobRecord, append_journal

__all__ = ["Ledger"]


def _ignore(*_: Any) -> None:
    pass


class Ledger:
    """Durable writes of one campaign directory, with chaos hooks.

    ``count(name)`` hears of ``write_errors`` (an absorbed ``OSError``)
    and ``journal_unchanged`` (a skipped append); ``note(event)`` hears
    of every write fault that fires.  ``injector`` may be installed
    later: the service compiles its chaos plan at the first submission.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        cache: Optional[ResultCache] = None,
        count: Callable[[str], None] = _ignore,
        note: Callable[[ChaosEvent], None] = _ignore,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.cache = cache
        self.injector: Optional[ChaosInjector] = None
        self._count = count
        self._note = note
        #: last durable journal record per job, for the skip-unchanged
        #: rule: the batch runner loads it from the journal each pass and
        #: every append that lands updates it.  ``None`` (the service,
        #: which settles a job once) appends every record.
        self.journaled: Optional[Dict[str, JobRecord]] = None

    def artifact(self, name: str, text: str) -> Tuple[str, bool]:
        """Write the artifact ``name`` unless it already holds these
        exact bytes; returns ``(digest, wrote)``."""
        payload = artifact_text(text)
        digest = text_digest(payload)
        path = self.directory / name
        try:
            if path.read_text(encoding="utf-8") == payload:
                return digest, False
        except (OSError, UnicodeDecodeError):
            pass
        atomic_write(path, payload)
        return digest, True

    def put_cache(self, job: Any, key: str, text: str) -> None:
        """Cache ``text`` under ``key`` for ``job`` (a campaign ``Job``
        or a service ``JobRow``: anything with ``job_id``, ``experiment``
        and ``params``)."""
        cache = self.cache
        meta = {"experiment": job.experiment, "params": job.params}
        self._guarded(
            "cache",
            job.job_id,
            lambda: cache.put(key, text, meta=meta),
            lambda: torn_cache_put(cache, key, text, meta=meta),
        )

    def append(self, record: JobRecord) -> None:
        """Journal ``record`` unless it equals the job's last durable
        record.  A skip touches no file, so no chaos write fault can
        fire on it; it is counted as ``journal_unchanged``."""
        journaled = self.journaled
        if journaled is not None and journaled.get(record.job_id) == record:
            self._count("journal_unchanged")
            return
        path = self.directory / JOURNAL_FILE
        landed = self._guarded(
            "journal",
            record.job_id,
            lambda: append_journal(path, record),
            lambda: torn_journal_append(path, record),
        )
        if landed and journaled is not None:
            journaled[record.job_id] = record

    def write_manifest(self, write: Callable[[pathlib.Path], Any]) -> bool:
        """Rewrite ``manifest.json`` with ``write(path)``; True when the
        whole manifest landed.  A torn fault leaves a prefix of what
        ``write`` wrote."""
        path = self.directory / MANIFEST_FILE

        def tear() -> None:
            write(path)
            torn_text_write(path, path.read_text(encoding="utf-8"))

        return self._guarded("manifest", "", lambda: write(path), tear)

    def _guarded(
        self, stream: str, job_id: str, write: Callable[[], Any], tear: Callable[[], Any]
    ) -> bool:
        """Run one write under the chaos write-fault hook; True when the
        whole write landed.  An ``OSError``, real or injected, is
        absorbed and counted: a campaign must survive its own disk
        hiccoughs."""
        injector = self.injector
        event = injector.write_fault(stream, job_id) if injector is not None else None
        try:
            if event is None:
                write()
                return True
            self._note(event)
            if event.kind == "ioerr":
                raise OSError(5, f"chaos: injected {stream} I/O error")
            tear()
        except OSError:
            self._count("write_errors")
        return False
