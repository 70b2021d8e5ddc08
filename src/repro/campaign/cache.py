"""Content-addressed on-disk cache of experiment results.

The key binds *everything* the rendered text depends on:

* the experiment id,
* the canonicalized params (sorted-key JSON — insertion order never
  changes the key),
* a fingerprint of the ``repro`` source tree (any ``.py`` edit under
  ``src/repro`` invalidates every key — models are code, so code *is*
  the input).

A hit returns the exact bytes that were stored, so a cached job's
artifact is guaranteed byte-identical to a recomputed one as long as
the code fingerprint matches.  Entries are JSON files written via
``os.replace`` so an interrupted run never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from functools import lru_cache
from typing import Any, Dict, Optional, Union

from .spec import canonical_params

__all__ = [
    "ResultCache",
    "artifact_text",
    "atomic_write",
    "cache_key",
    "code_fingerprint",
    "text_digest",
]


def artifact_text(text: str) -> str:
    """What an artifact file holds: the text plus one trailing newline.

    Every writer (``repro run -o``, campaigns, the service, the bench
    scripts) shapes artifacts this way, so their files ``cmp`` equal.
    """
    return text if text.endswith("\n") else text + "\n"


def text_digest(text: str) -> str:
    """sha256 of the artifact text (digest of what lands on disk)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write(path: pathlib.Path, text: str) -> pathlib.Path:
    """temp + ``os.replace``: readers see the old file or the new one,
    never a torn hybrid (modulo filesystem-level tearing, which the
    torn-tolerant readers and the journal rebuild cover).

    The one replace every campaign-directory write goes through: cache
    entries, artifacts, ``campaign.json``, ``manifest.json`` and
    ``server.json``.
    """
    tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Fingerprint of the installed ``repro`` package sources.

    sha256 over the sorted ``(relative path, file sha256)`` pairs of
    every ``.py`` file in the package — stable across processes and
    machines for the same tree, different the moment any model code
    changes.  Cached per process (one walk of ~100 small files).
    """
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        acc.update(path.relative_to(root).as_posix().encode())
        acc.update(b"\0")
        acc.update(hashlib.sha256(path.read_bytes()).digest())
        acc.update(b"\0")
    return acc.hexdigest()


def cache_key(
    experiment: str,
    params: Dict[str, Any],
    fingerprint: Optional[str] = None,
) -> str:
    """The content address of one job's result."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    payload = json.dumps(
        {
            "experiment": experiment,
            "params": canonical_params(params),
            "code": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """A directory of ``<key[:2]>/<key>.json`` result entries."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def entry_path(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives (it may not exist yet).

        Public so tooling that needs to manipulate the file itself —
        the chaos injector tearing a write, tests asserting on-disk
        layout — doesn't reach for the private ``_path``.
        """
        return self._path(key)

    def get(self, key: str) -> Optional[str]:
        """The cached artifact text, or ``None`` on a miss.

        A corrupt entry (torn write from a hard kill, stray file) is
        treated as a miss — the job recomputes and overwrites it.
        """
        path = self._path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            text = doc["text"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None
        if not isinstance(text, str) or doc.get("digest") != text_digest(text):
            return None
        return text

    def put(self, key: str, text: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Store atomically (:func:`atomic_write`)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta or {})
        doc["digest"] = text_digest(text)
        doc["text"] = text
        atomic_write(path, json.dumps(doc, sort_keys=True))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("??/*.json"):
            path.unlink()
            removed += 1
        for sub in self.root.glob("??"):
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed

    def prune_orphans(self, fingerprint: Optional[str] = None) -> int:
        """Delete entries the current code can never hit again.

        Every entry's filename *is* its content address, and the stored
        ``experiment``/``params`` meta lets that address be recomputed
        under the current code fingerprint.  An entry whose recomputed
        key no longer matches its filename was written by an older tree
        (or has torn/stray meta) — nothing will ever look it up, so it
        only accumulates.  Returns how many entries were removed.
        """
        if fingerprint is None:
            fingerprint = code_fingerprint()
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in sorted(self.root.glob("??/*.json")):
            key = path.stem
            keep = False
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                experiment = doc["experiment"]
                params = doc["params"]
                text = doc["text"]
                keep = (
                    isinstance(experiment, str)
                    and isinstance(params, dict)
                    and isinstance(text, str)
                    and doc.get("digest") == text_digest(text)
                    and cache_key(experiment, params, fingerprint) == key
                )
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                keep = False
            if not keep:
                path.unlink(missing_ok=True)
                removed += 1
        for sub in self.root.glob("??"):
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed
