"""Tracer behaviour: determinism, zero-cost-when-disabled, spans."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.machines import BGP, XT4_QC
from repro.obs import (
    active_tracer,
    chrome_trace_json,
    Tracer,
    tracing,
)
from repro.simmpi import Cluster


def _ring_program(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(src=left, tag=0)
    yield from comm.send(right, nbytes=4096, tag=0)
    yield from comm.wait(req)
    yield from comm.compute(seconds=1e-4)
    yield from comm.allreduce(8, dtype="float64")
    if comm.rank % 2 == 0:
        yield from comm.send(right, nbytes=64, tag=9)
    else:
        yield from comm.recv(src=left, tag=9)
    return comm.now


def _traced_run(machine=BGP, ranks=4, mode="VN"):
    cluster = Cluster(machine, ranks=ranks, mode=mode)
    result = cluster.run(_ring_program, trace=True)
    return cluster, result


# -- determinism -----------------------------------------------------------
def test_two_identical_runs_are_byte_identical():
    _, res_a = _traced_run()
    _, res_b = _traced_run()
    json_a = chrome_trace_json(res_a.trace)
    json_b = chrome_trace_json(res_b.trace)
    assert json_a == json_b
    assert json_a.encode() == json_b.encode()


# -- zero cost when disabled ----------------------------------------------
def test_untraced_run_attaches_nothing():
    cluster = Cluster(BGP, ranks=4, mode="VN")
    cluster.run(_ring_program)
    assert cluster.tracer is None
    assert cluster.env.obs is None
    assert cluster.transport._send_hooks == []
    assert all(link.observer is None for link in cluster.torus.links.values())


def test_disabled_tracer_records_nothing(monkeypatch):
    """With tracing off, no Tracer method may run at all."""
    for method in ("complete", "instant", "counter", "engine_step"):
        monkeypatch.setattr(
            Tracer,
            method,
            lambda self, *a, **k: pytest.fail(f"Tracer.{method} called"),
        )
    cluster = Cluster(BGP, ranks=4, mode="VN")
    res = cluster.run(_ring_program)
    assert res.trace is None


@pytest.mark.parametrize(
    "run",
    [
        "from repro.machines import BGP\n"
        "from repro.simmpi import Cluster\n"
        "def program(comm):\n"
        "    yield from comm.send((comm.rank + 1) % comm.size, nbytes=64)\n"
        "    yield from comm.recv()\n"
        "Cluster(BGP, ranks=2, mode='SMP').run(program)\n",
        "from repro.obs.scenarios import run_scenario\n"
        "run_scenario('torus-ring')\n",
    ],
    ids=["cluster-run", "run-scenario"],
)
def test_plain_run_loads_no_extra_packages(run):
    """Every Cluster.run imports repro.obs, and every scenario command
    looks its scenario up there; in a fresh interpreter neither may load
    the experiment registry, the campaign layer or the host-performance
    package."""
    script = "import sys\n" + run + "print('\\n'.join(sys.modules))\n"
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = proc.stdout.split()
    assert "repro.simmpi.comm" in loaded
    unwanted = ("repro.core", "repro.campaign", "repro.perf")
    assert [m for m in loaded if m.startswith(unwanted)] == []


# -- Cluster.run(trace=True) ----------------------------------------------
def test_trace_true_returns_tracer_on_result():
    cluster, res = _traced_run()
    assert isinstance(res.trace, Tracer)
    assert res.trace is cluster.tracer
    names = {ev["name"] for ev in res.trace.events}
    assert {"send", "recv", "compute", "allreduce"} <= names


def test_span_totals_count_per_rank_spans():
    _, res = _traced_run(ranks=4)
    totals = res.trace.span_totals
    assert totals["compute"][0] == 4
    assert totals["allreduce"][0] == 4
    assert totals["send"][0] == 6  # 4 ring sends + 2 eager exchange sends
    assert totals["recv"][0] == 2


def test_collective_spans_carry_algorithm_attribute():
    _, res = _traced_run(machine=XT4_QC, ranks=4, mode="SMP")
    allreduces = [ev for ev in res.trace.events if ev["name"] == "allreduce"]
    assert allreduces
    # 8-byte payload is under the recursive-doubling threshold
    assert all(ev["args"]["algorithm"] == "recursive-doubling" for ev in allreduces)
    assert all(ev["args"]["nbytes"] == 8 for ev in allreduces)


def test_bg_allreduce_uses_tree_network():
    _, res = _traced_run(machine=BGP, ranks=4, mode="VN")
    allreduces = [ev for ev in res.trace.events if ev["name"] == "allreduce"]
    assert allreduces
    assert all(ev["args"]["algorithm"] == "tree" for ev in allreduces)


def test_attach_is_idempotent():
    cluster = Cluster(BGP, ranks=2, mode="SMP")
    tracer = Tracer()
    tracer.attach(cluster)
    tracer.attach(cluster)
    assert cluster.transport._send_hooks == [tracer._on_send]


def test_engine_and_process_metrics():
    _, res = _traced_run()
    counters = res.trace.metrics.to_dict()["counters"]
    assert counters["engine.events"] > 0
    assert counters["engine.processes_spawned"] >= 4
    assert counters["engine.processes_spawned"] == counters["engine.processes_finished"]
    gauges = res.trace.metrics.to_dict()["gauges"]
    assert gauges["engine.processes_live"]["value"] == 0
    assert gauges["engine.processes_live"]["max"] >= 4


def test_engine_stride_samples_fewer_counter_tracks():
    def run(stride):
        cluster = Cluster(BGP, ranks=4, mode="VN")
        Tracer(engine_stride=stride).attach(cluster)
        cluster.run(_ring_program)
        return sum(
            1 for ev in cluster.tracer.events if ev["name"] == "queue_depth"
        )

    assert run(64) < run(1)
    with pytest.raises(ValueError):
        Tracer(engine_stride=0)


# -- ambient tracing -------------------------------------------------------
def test_ambient_tracer_attaches_to_inner_clusters():
    tracer = Tracer()
    assert active_tracer() is None
    with tracing(tracer):
        assert active_tracer() is tracer
        cluster = Cluster(BGP, ranks=2, mode="SMP")
        cluster.run(_ring_program)
        assert cluster.tracer is tracer
    assert active_tracer() is None
    assert tracer.span_totals["send"][0] == 3  # 2 ring sends + 1 eager exchange


# -- named application phases ---------------------------------------------
def test_phase_spans_recorded():
    def program(comm):
        with comm.phase("baroclinic"):
            yield from comm.compute(seconds=1e-4)
        with comm.phase("barotropic"):
            yield from comm.allreduce(8, dtype="float64")
        return comm.now

    cluster = Cluster(BGP, ranks=4, mode="VN")
    res = cluster.run(program, trace=True)
    phases = [ev for ev in res.trace.events if ev["cat"] == "phase"]
    assert {ev["name"] for ev in phases} == {"baroclinic", "barotropic"}
    assert len(phases) == 8  # 2 phases x 4 ranks
    for ev in phases:
        assert ev["dur"] > 0


def test_phase_without_tracer_is_noop():
    def program(comm):
        with comm.phase("quiet"):
            yield from comm.compute(seconds=1e-5)
        return comm.now

    cluster = Cluster(BGP, ranks=2, mode="SMP")
    cluster.run(program)
    assert cluster.tracer is None


def test_pop_replay_emits_named_phases():
    from repro.apps.pop.des_replay import replay_steps
    from repro.apps.pop.grid import PopGrid

    tracer = Tracer(engine_stride=64)
    with tracing(tracer):
        replay_steps(
            BGP,
            processes=4,
            grid=PopGrid(nx=120, ny=80, levels=10),
            steps=1,
            solver_iterations=2,
        )
    assert tracer.span_totals["baroclinic"][0] == 4
    assert tracer.span_totals["barotropic"][0] == 4
    assert tracer.span_totals["allreduce"][0] > 0
