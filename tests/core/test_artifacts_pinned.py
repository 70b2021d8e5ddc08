"""Golden artifacts: every paper artifact equals its committed file.

``benchmarks/output/<id>.txt`` pins each artifact byte for byte, in the
shape every artifact writer produces (text plus one trailing newline).
A deliberate output change refreshes one pin with ``repro run <id> -o
benchmarks/output/``, which writes only ``<id>.txt`` and shows up as a
reviewable ``.txt`` diff; no other command writes there.
"""

import hashlib
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


#: sha256 of ``run_experiment``'s text at parameters other than the
#: defaults the files above pin.  The fig3 sizes sit on both sides of
#: ``ALLREDUCE_RD_THRESHOLD`` (2048 B), and each fig3 job covers both
#: machines and both dtypes; fig6 spans the campaign's edge range.
SWEPT_PINS = {
    ("fig3", 4, 64): "cbb8e1f5c6060b952595c05b32f882d8a28fcc2e3ca00d15c42d90534477e504",
    ("fig3", 4, 1024): "39ae0c6a0ba91f9c4db2a08ca2d5eb9e4c8a1e4429dc103e43b12dec63f49c48",
    ("fig3", 4, 8192): "4320ad43b11e3e9795db4fede090c7a19c18b7629bc790436d083d577e89a107",
    ("fig3", 2048, 64): "16f6ace722ef301bb851636a9e9e708272b7542b317512c356af73d10e993140",
    ("fig3", 2048, 1024): "f5d12678be3f401d6a229da57fa3b4362ac6b7800f3dd1c85f775effe7b8ebc7",
    ("fig3", 2048, 8192): "7c19aa70d6dd1ebd76dab40f8cc19238ea27c63ca92990d781b550ac5c8084c6",
    ("fig3", 2049, 64): "2fc62b08e8be6c26161336a80b6f68b948fc36a1cc95c4e28ec16af3efd87d90",
    ("fig3", 2049, 1024): "73b1b17c7dd0058bd5783ca283245a0831f6ceef6c803bc06220f9c3bf4eabed",
    ("fig3", 2049, 8192): "feb49730cca787c11de2feb020be5a238dbca2b90e89bbba5bf0b34e967252cd",
    ("fig3", 1048575, 64): "3a8b56ae19bad9c6b5ecc0acd06365868ddfe6595e225a692f3ebe1f7300e81f",
    ("fig3", 1048575, 1024): "0739a5aff27b84d04c7c47a2e6dc9b654cf5d22312a33947655531f40c83297b",
    ("fig3", 1048575, 8192): "665e454c3ee5e9da1789d598e4a084f17a22089caaccf269ce03d05a11f2af89",
    ("fig6", 8): "422311c9e409fa8d46736ca83ed6f2798a70d36e6c35304e5603d617e3364c79",
    ("fig6", 50): "9f2da1c86c0bcc68701ce3c86b83952971fc738f27322ca4fb47d5bb1135ba40",
    ("fig6", 4096): "05d2f42c9d934830e4b567aaec52cff255ff141b0de7cfc5da7f6cf29b56e4bf",
}


@pytest.mark.parametrize("case", list(SWEPT_PINS), ids=lambda c: "-".join(map(str, c)))
def test_swept_params_match_pin(case):
    eid, *values = case
    params = (
        {"nbytes": values[0], "processes": values[1]} if eid == "fig3" else {"edge": values[0]}
    )
    text = run_experiment(eid, **params)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEPT_PINS[case]
