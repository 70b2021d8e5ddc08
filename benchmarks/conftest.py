"""Shared fixtures for the figure/table regeneration benches.

Each bench regenerates one paper artifact under pytest-benchmark timing
and writes the rendered text to ``benchmarks/output/<id>.txt`` so the
reproduction is inspectable after a run.

Like ``tests/conftest.py``, puts ``src/`` on ``sys.path`` ahead of any
installed copy, so the bench scripts run identically standalone
(``python -m pytest benchmarks/bench_x.py``) and under the harness
(``repro bench run --scripts``) — no ``PYTHONPATH`` required.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Callable: save_artifact(experiment_id, text).

    Writes the same bytes as ``repro run <id> -o`` and campaigns do
    (text plus one trailing newline), so the files ``cmp`` equal.
    """
    from repro.campaign.cache import artifact_text

    def _save(experiment_id: str, text: str) -> pathlib.Path:
        path = artifact_dir / f"{experiment_id}.txt"
        path.write_text(artifact_text(text), encoding="utf-8")
        return path

    return _save
