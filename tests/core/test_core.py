"""Evaluation core: metrics, reports, sweeps, registry, validation."""

import pytest

from repro.core import (
    build_table2,
    CLAIMS,
    crossover_point,
    experiment_ids,
    Figure,
    format_table,
    parallel_efficiency,
    relative_factor,
    run_experiment,
    speedup,
    Sweep,
    TABLE2_ROWS,
    validate_all,
    weak_scaling_efficiency,
)
from repro.machines import BGP, XT4_QC


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_speedup():
    assert speedup(10.0, 2.0) == 5.0
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)


def test_parallel_efficiency():
    assert parallel_efficiency(10.0, 8, 2.5, 32) == pytest.approx(1.0)
    assert parallel_efficiency(10.0, 8, 5.0, 32) == pytest.approx(0.5)


def test_weak_scaling_efficiency():
    assert weak_scaling_efficiency(2.0, 2.5) == pytest.approx(0.8)


def test_relative_factor():
    assert relative_factor(9.0, 3.0) == 3.0
    with pytest.raises(ValueError):
        relative_factor(1.0, 0.0)


def test_crossover_point():
    xs = [1, 2, 3, 4]
    ya = [0, 1, 4, 9]
    yb = [2, 2, 2, 2]
    x = crossover_point(xs, ya, yb)
    assert 2 < x < 3
    assert crossover_point([1, 2], [0, 0], [1, 1]) is None
    with pytest.raises(ValueError):
        crossover_point([1], [1], [1])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def test_format_table_aligns():
    txt = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.14159]], title="T")
    lines = txt.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert len({len(ln) for ln in lines[2:]}) <= 2  # consistent width


def test_format_table_rejects_ragged():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_figure_render():
    fig = Figure("My figure", "x", "y").add("curve", [(1, 2.0), (10, 20.0)])
    text = fig.render()
    assert "My figure" in text and "curve" in text
    assert fig.series[0].xs == [1, 10]
    assert fig.series[0].ys == [2.0, 20.0]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def test_sweep_cartesian():
    pts = Sweep().add_axis("a", [1, 2]).add_axis("b", [10, 20]).run(
        lambda a, b: a * b
    )
    assert len(pts) == 4
    assert {p.value for p in pts} == {10, 20, 40}


def test_sweep_isolates_failures():
    def maybe_fail(a):
        if a == 2:
            raise RuntimeError("nope")
        return a

    pts = Sweep().add_axis("a", [1, 2, 3]).run(maybe_fail)
    good = Sweep.successes(pts)
    assert [p.value for p in good] == [1, 3]
    assert any("nope" in p.error for p in pts)


def test_sweep_validation():
    with pytest.raises(ValueError):
        Sweep().run(lambda: 1)
    with pytest.raises(ValueError):
        Sweep().add_axis("a", [])


# ---------------------------------------------------------------------------
# HPCC table 2
# ---------------------------------------------------------------------------
def test_table2_builds_both_columns():
    for processes in (1024, 4096):
        cols = build_table2([BGP, XT4_QC], processes=processes)
        assert set(cols) == {"BG/P", "XT4/QC"}
        b, x = cols["BG/P"], cols["XT4/QC"]
        # Paper Table 2 relationships: the BG/P's lower clock rate ...
        assert b.dgemm_single_gflops < x.dgemm_single_gflops
        # ... higher STREAM bandwidth and less of a decline under load ...
        assert b.stream_ep_gbs > x.stream_ep_gbs
        assert (b.stream_ep_gbs / b.stream_single_gbs) > (
            x.stream_ep_gbs / x.stream_single_gbs
        )
        # ... low-latency network against the XT's high bandwidth.
        assert b.pingpong_latency_us < x.pingpong_latency_us
        assert b.ring_latency_us < x.ring_latency_us
        assert b.pingpong_bandwidth_gbs < x.pingpong_bandwidth_gbs
        assert b.ring_bandwidth_gbs < x.ring_bandwidth_gbs
        assert b.hpl_tflops < x.hpl_tflops


def test_table2_row_count():
    assert len(TABLE2_ROWS) == 16


# ---------------------------------------------------------------------------
# validation + registry
# ---------------------------------------------------------------------------
def test_all_paper_claims_hold():
    """The ten qualitative findings of the paper all hold in the models."""
    assert validate_all(raise_on_failure=False) == []


def test_claims_have_unique_ids():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids)) == 10


def test_registry_lists_all_artifacts():
    ids = experiment_ids()
    assert {"table1", "table2", "table3", "top500"} <= set(ids)
    assert {f"fig{i}" for i in range(1, 9)} <= set(ids)


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("fig99")


@pytest.mark.parametrize("eid", ["table1", "table3", "top500", "fig6"])
def test_cheap_experiments_render(eid):
    text = run_experiment(eid)
    assert len(text) > 100
