"""The host self-profiler: a cProfile capture rolled up by layer."""

import os
import pstats

import pytest

from repro.core import run_experiment
from repro.machines import BGP
from repro.obs import chrome_trace, summary, validate_trace_events
from repro.perf import HOST_PID, HostProfiler
from repro.perf.profiler import _layer, _ROOT
from repro.simmpi import Cluster


def _program(comm):
    yield from comm.allreduce(4096, dtype="float64")
    return comm.now


def _run(ranks=16, **kwargs):
    cluster = Cluster(BGP, ranks=ranks, mode="SMP")
    return cluster, cluster.run(_program, **kwargs)


def _profiled(top=10, **kwargs):
    _run(**kwargs)  # warm-up: lazy imports
    with HostProfiler(top=top) as prof:
        _, result = _run(**kwargs)
    return prof, result


# -- zero cost when not profiling ----------------------------------------------


def test_unprofiled_run_attaches_nothing():
    cluster, result = _run()
    assert cluster.env.obs is None
    assert cluster.transport._send_hooks == []
    assert not hasattr(result, "profile")


def test_disabled_profiler_methods_never_run(monkeypatch):
    """A run outside a profiler block never touches HostProfiler."""
    for name in ("__init__", "__enter__", "layers", "export"):
        monkeypatch.setattr(
            HostProfiler, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} called")
        )
    _run()


# -- the layer roll-up --------------------------------------------------------


@pytest.mark.parametrize(
    "path, layer",
    [
        (("simmpi", "p2p.py"), "simmpi"),
        (("apps", "pop", "grid.py"), "apps.pop"),
        (("apps", "replay.py"), "apps"),
        (("cli.py",), "cli"),
        (("__init__.py",), "repro"),
    ],
)
def test_files_map_to_their_package_layer(path, layer):
    assert _layer(_ROOT + os.path.join(*path)) == layer


def test_files_outside_repro_have_no_layer():
    assert _layer(os.__file__) == ""
    assert _layer("~") == ""


def test_layer_rows_sum_to_the_total_self_time():
    prof, _ = _profiled()
    total = pstats.Stats(prof.profile).total_tt
    assert total > 0
    assert sum(prof.layers().values()) == pytest.approx(total, rel=1e-9)


def test_des_allreduce_shows_the_engine_and_transport_layers():
    prof, _ = _profiled()
    layers = prof.layers()
    assert layers["simengine"] > 0 and layers["simmpi"] > 0
    assert list(layers.values()) == sorted(layers.values(), reverse=True)


def test_fig2_time_lands_in_halo_and_topology():
    """numpy does fig2's link loads; its time belongs to its callers."""
    run_experiment("fig2")  # warm-up: imports
    with HostProfiler() as prof:
        run_experiment("fig2")
    layers = prof.layers()
    assert list(layers)[:2] == ["halo", "topology"]
    assert not [name for name in layers if "numpy" in name]


def test_time_that_reaches_no_repro_caller_is_external():
    with HostProfiler() as prof:
        sorted(range(200_000), key=lambda i: -i)
    assert next(iter(prof.layers())) == "external"


def test_ambient_profiling_context_spans_multiple_runs():
    """Every run inside the block is captured, and a second block adds
    to the same capture."""
    prof = HostProfiler()
    with prof:
        _run()
        _run()
    with prof:
        _run()
    calls = {
        func: nc
        for (filename, _line, func), (_cc, nc, *_rest) in pstats.Stats(
            prof.profile
        ).stats.items()
        if _layer(filename) == "simmpi"
    }
    assert calls["run"] == 3


# -- report and trace export ---------------------------------------------------


def test_cprofile_hotspots_land_in_report_and_trace():
    prof, result = _profiled(top=4, trace=True)
    rows = prof.hotspots()
    assert len(rows) == 4
    where, self_s, cumulative, calls = rows[0]
    assert cumulative >= self_s > 0 and calls >= 1
    assert [r[1] for r in rows] == sorted((r[1] for r in rows), reverse=True)
    text = prof.report()
    table, hotspots = text.split("== top 4 hotspots (by self time) ==")
    assert "host self-profile" in table
    assert "simengine" in table and "simmpi" in table
    assert where in hotspots
    prof.export(result.trace)
    doc = chrome_trace(result.trace)
    validate_trace_events(doc)
    spans = [
        e for e in doc["traceEvents"] if e.get("pid") == HOST_PID and e["ph"] == "X"
    ]
    layers = [e["name"] for e in spans if e["cat"] == "host.layer"]
    assert layers == [f"host:{name}" for name in prof.layers()]
    hot = [e for e in spans if e["cat"] == "host.hotspot"]
    assert [e["name"] for e in hot] == [f"host:{r[0]}" for r in rows]


def test_summary_separates_host_cost_from_sim_attribution():
    prof, result = _profiled(trace=True)
    prof.export(result.trace)
    text = summary(result.trace)
    sim_section, host_section = text.split("== host-side cost (simulator wall time) ==")
    assert "host:" not in sim_section
    assert "host:simmpi" in host_section
