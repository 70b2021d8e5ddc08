"""Golden artifacts: every paper artifact equals its committed file.

``benchmarks/output/<id>.txt`` pins each artifact byte for byte, in the
shape every artifact writer produces (text plus one trailing newline).
A deliberate output change refreshes the pin by rerunning the bench
scripts (``python -m pytest benchmarks/bench_<id>.py``), which shows up
as a reviewable ``.txt`` diff.
"""

import pathlib

import pytest

from repro.campaign.cache import artifact_text
from repro.core import experiment_ids, run_experiment

PINNED = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


@pytest.mark.parametrize("eid", experiment_ids())
def test_artifact_matches_pin(eid):
    pinned = (PINNED / f"{eid}.txt").read_text(encoding="utf-8")
    assert artifact_text(run_experiment(eid)) == pinned


def test_every_artifact_is_pinned():
    assert len(experiment_ids()) == 13
    pins = {p.stem for p in PINNED.glob("*.txt")} - {"bench_lint"}
    assert pins == set(experiment_ids())
