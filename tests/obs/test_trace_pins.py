"""Golden traces: three DES scenarios export byte-identical documents.

The canonical Chrome trace and metrics JSON of the ``torus-ring``,
``allreduce`` and ``pop`` scenarios are pinned by sha256.  They cover
torus point-to-point (eager and rendezvous), software collectives and
an application replay, so a change to the transport, the engine or the
exporters that moves any span, counter or link statistic fails here.
A deliberate output change updates the digests below, and the diff of
``repro trace <id> -o ... --metrics ...`` against the old output
shows what moved.
"""

import hashlib

import pytest

from repro.obs import chrome_trace_json, metrics_json
from repro.obs.scenarios import run_scenario

#: scenario id -> (sha256 of chrome_trace_json, sha256 of metrics_json)
PINS = {
    "torus-ring": (
        "25e8fdd5a6a62c9c630e9573f670fca87ce356d337a59986d587ca5a15ee2f8a",
        "24f4ca4df518178ef3b815042de17d6d42beecfd049b2ed4332eec743e91e363",
    ),
    "allreduce": (
        "6bc9716ab2846ba004571f49834977c9c99b8a07f29ddd5db838602c077f01a2",
        "8210c96999a5b48cecd5027e478de32ae79d9ef3e5b2264d47e49051aef96ab3",
    ),
    "pop": (
        "10be95f4589938caf98bd8653d7656e8379fa1edb3aa96fd8e1f4be1f6b8573b",
        "b6534d053d04c795d2fe851761525a85a5fa43e9d02ab150ba2ed041d0e84d1f",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINS))
def test_scenario_trace_matches_pin(scenario):
    tracer, _line = run_scenario(scenario)
    trace_digest, metrics_digest = PINS[scenario]
    assert _sha256(chrome_trace_json(tracer)) == trace_digest
    assert _sha256(metrics_json(tracer)) == metrics_digest
