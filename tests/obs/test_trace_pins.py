"""Golden traces: three DES scenarios export byte-identical documents.

The canonical Chrome trace and metrics JSON of the ``torus-ring``,
``allreduce`` and ``pop`` scenarios are pinned by sha256.  They cover
torus point-to-point (eager and rendezvous), software collectives and
an application replay, so a change to the transport, the engine or the
exporters that moves any span, counter or link statistic fails here.
A deliberate output change updates the digests below, and the diff of
``repro trace <id> -o ... --metrics ...`` against the old output
shows what moved.

Each scenario also pins a model digest and an engine digest
(``tests/trace_digests.py``).  A change that runs the same model with
other engine bookkeeping, such as fewer events per message, must hold
the model digest; the whole-document and engine digests then re-pin in
a commit of their own, with the diff shown.
"""

import hashlib

import pytest

from repro.obs import chrome_trace_json, metrics_json
from repro.obs.scenarios import run_scenario
from tests.trace_digests import split_digests

#: scenario id -> (sha256 of chrome_trace_json, sha256 of metrics_json,
#: model digest, engine digest)
PINS = {
    "torus-ring": (
        "25e8fdd5a6a62c9c630e9573f670fca87ce356d337a59986d587ca5a15ee2f8a",
        "24f4ca4df518178ef3b815042de17d6d42beecfd049b2ed4332eec743e91e363",
        "007f53f607518a89db5cb94d2bbb8b455c79415102b4d24d94468c291ec07a53",
        "fbac47e0e0bd7071cebc3447a084e20fe6fa9c5c1eae59293e02fd465872a56a",
    ),
    "allreduce": (
        "6bc9716ab2846ba004571f49834977c9c99b8a07f29ddd5db838602c077f01a2",
        "8210c96999a5b48cecd5027e478de32ae79d9ef3e5b2264d47e49051aef96ab3",
        "566d0a7ffb2299d7b569199cf68217ab27bb20212b7a9e458384d60fd8edd474",
        "136afbae44920ac7ec5b152832f9df4057594c7714c0191c4bb1339bdb0c5325",
    ),
    "pop": (
        "10be95f4589938caf98bd8653d7656e8379fa1edb3aa96fd8e1f4be1f6b8573b",
        "b6534d053d04c795d2fe851761525a85a5fa43e9d02ab150ba2ed041d0e84d1f",
        "46f87530a5fc558deec307e7cda4e715b010806c0b42c29956cb0636ae81de37",
        "bb1e5f4061da5f9a7481a0093bd204326a1a8c8d736801f55f94164b22211fa1",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINS))
def test_scenario_trace_matches_pin(scenario):
    tracer, _line = run_scenario(scenario)
    trace_digest, metrics_digest, model_digest, engine_digest = PINS[scenario]
    assert _sha256(chrome_trace_json(tracer)) == trace_digest
    assert _sha256(metrics_json(tracer)) == metrics_digest
    assert split_digests(tracer) == (model_digest, engine_digest)


def _ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(src=left, tag=0)
    yield from comm.send(right, nbytes=4096, tag=0)
    yield from comm.wait(req)
    yield from comm.allreduce(8, dtype="float64")


@pytest.mark.parametrize("stride", [1, 7])
def test_engine_records_move_only_the_engine_digest(stride):
    """Sampling the queue depth at another stride changes only the
    engine's records: the model digest holds, the engine digest moves."""
    from repro.machines import BGP
    from repro.obs import Tracer
    from repro.simmpi import Cluster

    digests = {}
    for engine_stride in (64, stride):
        cluster = Cluster(BGP, ranks=8, mode="VN")
        tracer = Tracer(engine_stride=engine_stride).attach(cluster)
        cluster.run(_ring)
        digests[engine_stride] = split_digests(tracer)
    (model_a, engine_a), (model_b, engine_b) = digests[64], digests[stride]
    assert model_a == model_b
    assert engine_a != engine_b
