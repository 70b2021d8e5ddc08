"""Golden artifacts: every paper artifact equals its committed file.

``benchmarks/output/<id>.txt`` pins each artifact byte for byte, in the
shape every artifact writer produces (text plus one trailing newline).
A deliberate output change refreshes one pin with ``repro run <id> -o
benchmarks/output/``, which writes only ``<id>.txt`` and shows up as a
reviewable ``.txt`` diff; no other command writes there.
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
    pins = {p.stem for p in PINNED.glob("*.txt")}
    assert pins == set(experiment_ids())
