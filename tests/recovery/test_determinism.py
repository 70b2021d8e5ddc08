"""Recovery must not cost determinism.

The whole point of *simulated* fault tolerance is reproducible failure
experiments: the same fault plan against the same machine must produce
byte-identical Chrome traces run-to-run, whether recovery shrinks the
communicator or rewinds to a checkpoint.
"""

import filecmp
import json

import pytest

from repro.obs import Tracer, tracing, write_chrome_trace
from repro.obs.scenarios import run_scenario

POP_PARAMS = dict(processes=8, steps=4)


def _run_twice(tmp_path, scenario_id, **params):
    paths = []
    lines = []
    for i in (0, 1):
        tracer, line = run_scenario(scenario_id, "recover", **params)
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
