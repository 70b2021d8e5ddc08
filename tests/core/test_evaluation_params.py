"""Direct coverage for ``run_experiment`` parameter handling.

The campaign layer addresses every job as ``(experiment, params)``, so
the registry's param passthrough and error messages are contract now.
"""

import pytest

from repro.core.evaluation import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
    validate_experiment_params,
)


def test_unknown_experiment_message_lists_known_ids():
    with pytest.raises(KeyError) as exc:
        run_experiment("fig99")
    message = exc.value.args[0]
    assert "unknown experiment 'fig99'" in message
    for eid in experiment_ids():
        assert eid in message


def test_unknown_param_message_names_supported():
    with pytest.raises(KeyError) as exc:
        run_experiment("fig6", bogus=1)
    message = exc.value.args[0]
    assert "does not take parameter(s) ['bogus']" in message
    assert "supported: ['edge']" in message


def test_paramfree_experiment_reports_none_supported():
    with pytest.raises(KeyError) as exc:
        run_experiment("table1", edge=40)
    assert "supported: none" in exc.value.args[0]


def test_param_forwarding_into_fig6_backend():
    default = run_experiment("fig6")
    assert "50^3 points/rank" in default
    swept = run_experiment("fig6", edge=40)
    assert "40^3 points/rank" in swept
    # A different per-rank subgrid is a genuinely different weak-scaling
    # study, not just a retitled one.
    assert swept != default
    # And the default param produces the exact registry output.
    assert run_experiment("fig6", edge=50) == default


def test_param_forwarding_into_fig3_backend():
    default = run_experiment("fig3")
    assert "32KB" in default
    swept = run_experiment("fig3", nbytes=65536)
    assert "64KB" in swept and swept != default


def test_validate_experiment_params_matches_run_experiment():
    # fail-fast validation (used by campaign spec expansion) raises the
    # same messages run_experiment would
    with pytest.raises(KeyError, match="unknown experiment"):
        validate_experiment_params("nope", {})
    with pytest.raises(KeyError, match="does not take parameter"):
        validate_experiment_params("fig6", {"bogus": 1})
    validate_experiment_params("fig6", {"edge": 40})  # no raise
    assert set(EXPERIMENTS) == set(experiment_ids())


def test_checked_entry_reads_each_signature_once(monkeypatch):
    """A campaign spec checks every job against its function; the
    signature is read on the first check only, and a later unknown
    parameter still gets the full message."""
    import inspect

    from repro.params import checked_entry

    def experiment(edge=50, nbytes=8):
        return ""

    calls = []
    signature = inspect.signature
    monkeypatch.setattr(inspect, "signature", lambda fn: calls.append(fn) or signature(fn))
    table = {"exp": experiment}
    for edge in range(5):
        assert checked_entry(table, "exp", {"edge": edge}, "experiment") is experiment
    with pytest.raises(KeyError) as exc:
        checked_entry(table, "exp", {"bogus": 1}, "experiment")
    assert exc.value.args[0] == (
        "experiment 'exp' does not take parameter(s) ['bogus']; "
        "supported: ['edge', 'nbytes']"
    )
    assert calls == [experiment]
