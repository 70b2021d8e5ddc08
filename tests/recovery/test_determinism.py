"""Recovery must not cost determinism.

The whole point of *simulated* fault tolerance is reproducible failure
experiments: the same fault plan against the same machine must produce
byte-identical Chrome traces run-to-run, whether recovery shrinks the
communicator or rewinds to a checkpoint.

Run 0 of each scenario is also pinned by the sha256 of its Chrome trace
and metrics JSON, so a refactor of the replays or the recovery driver
that moves any span, counter or segment fails here, not only a change
that makes two runs differ.  A deliberate output change updates
``PINS``.  Beside those, run 0's model and engine digests
(``tests/trace_digests.py``) tell a change in what the model did from
a change in the engine's own bookkeeping.
"""

import filecmp
import hashlib
import json

import pytest

from repro.obs import (
    chrome_trace_json,
    metrics_json,
    Tracer,
    tracing,
    write_chrome_trace,
)
from repro.obs.scenarios import run_scenario
from tests.trace_digests import split_digests

POP_PARAMS = dict(processes=8, steps=4)

#: scenario id -> (sha256 of chrome_trace_json, sha256 of metrics_json,
#: model digest, engine digest) of run 0 at ``processes=8, steps=4``
PINS = {
    "pop-shrink": (
        "97dc773d3abc7187dd53ea633f39b9d11cdddf1012af22ab4fc815d8939b2f8b",
        "3cc747c437e7bec696472f453741f5deb9dcc7197d28dce443aa2864ddb12c2e",
        "a030108cd3020504859bb269af5bef0dca3dc7e273d8ae463545f5b07cf6b312",
        "c201f71a7aa5fd1df3e6f56c5913c3888448bb4f168e7678fa5fb4689bcb64a0",
    ),
    "pop-restart": (
        "056214b00b2f05e5439035a47c03110419826c5a58cfcf2571438943d6ba11b5",
        "c4beff0d76d18eebe056f8fd4c8723ae83207076e14131b61557341719039673",
        "5adfe578478c7805728c68e63a59940dee2d074e9822f90f191307504f9d3f71",
        "dbfff2c70a38c9c36a4a6f4544a858f864897538701cb16cc4a7c77de44e8e34",
    ),
    "s3d-shrink": (
        "c940f022940b079d40bfe12f7b7f7af1a4e0d7cdf6bc128172f843fc5403afb3",
        "634d82ba29f96d930912b52ea630c26d6583f19321df51a1ada1bfef983ff97f",
        "3bdbdd5899483d1e3a8f498801cf9aaf032298210e34006a4bb9e80111fb2d06",
        "85278e2ed8f2a85f57d1c211371bdb0af008c3cec0a1375ac1fa189b20d107ff",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_twice(tmp_path, scenario_id, **params):
    paths = []
    lines = []
    for i in (0, 1):
        tracer, line = run_scenario(scenario_id, "recover", **params)
        if i == 0:
            assert (
                _sha256(chrome_trace_json(tracer)),
                _sha256(metrics_json(tracer)),
                *split_digests(tracer),
            ) == PINS[scenario_id], f"{scenario_id}: output moved off its pin"
        path = tmp_path / f"{scenario_id}-{i}.json"
        write_chrome_trace(tracer, path)
        paths.append(path)
        lines.append(line)
    return paths, lines


@pytest.mark.parametrize("scenario_id", ["pop-shrink", "pop-restart"])
def test_pop_recovery_traces_are_byte_identical(tmp_path, scenario_id):
    paths, lines = _run_twice(tmp_path, scenario_id, **POP_PARAMS)
    assert lines[0] == lines[1]
    assert filecmp.cmp(paths[0], paths[1], shallow=False), (
        f"{scenario_id}: repeated runs produced different traces"
    )
    assert paths[0].stat().st_size > 0


def test_pop_shrink_emits_recovery_telemetry(tmp_path):
    tracer, _line = run_scenario("pop-shrink", "recover", **POP_PARAMS)
    # Trace side: instant events in the dedicated "recovery" category.
    path = tmp_path / "telemetry.json"
    write_chrome_trace(tracer, path)
    events = json.loads(path.read_text())["traceEvents"]
    assert any(ev.get("cat") == "recovery" for ev in events)
    # Metrics side: the recovery.* counter family actually counted.
    counters = {
        name: c.value
        for name, c in tracer.metrics._counters.items()
        if name.startswith("recovery.")
    }
    assert counters.get("recovery.node_failures", 0) >= 1
    assert counters.get("recovery.shrinks", 0) >= 1
    assert counters.get("recovery.rank_kills", 0) >= 1


def test_s3d_shrink_trace_is_byte_identical(tmp_path):
    paths, lines = _run_twice(tmp_path, "s3d-shrink", processes=8, steps=4)
    assert lines[0] == lines[1]
    assert filecmp.cmp(paths[0], paths[1], shallow=False)


def test_direct_replay_double_run_identical(tmp_path):
    """Byte-identity also holds outside the scenario wrappers."""
    from repro.apps.pop import PopGrid, replay_steps
    from repro.faults import FaultPlan, NodeFail
    from repro.machines import BGP
    from repro.recovery import RecoveryPolicy
    from repro.simmpi import Cluster

    grid = PopGrid(nx=120, ny=80, levels=10)
    node = Cluster(BGP, ranks=8, mode="VN").mapping.node_of(4)

    paths = []
    for i in (0, 1):
        tracer = Tracer(engine_stride=64)
        with tracing(tracer):
            res = replay_steps(
                BGP, 8, grid, steps=4, mode="VN",
                faults=FaultPlan((NodeFail(time=0.01, node=node),)),
                recovery=RecoveryPolicy(mode="shrink"),
            )
        assert res.recovery is not None
        path = tmp_path / f"direct-{i}.json"
        write_chrome_trace(tracer, path)
        paths.append(path)
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
