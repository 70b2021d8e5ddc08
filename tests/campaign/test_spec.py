"""CampaignSpec expansion: deterministic, validated, addressable."""

import json

import pytest

from repro.campaign import CampaignSpec, Job, SpecError, params_digest
from repro.core.evaluation import experiment_ids


def test_from_ids_expands_all():
    spec = CampaignSpec.from_ids(["all"])
    jobs = spec.expand()
    assert [j.job_id for j in jobs] == experiment_ids()
    assert all(j.params == {} for j in jobs)


def test_job_ids_stable_and_param_order_free():
    a = Job("fig6", {"edge": 40})
    b = Job("fig6", dict([("edge", 40)]))
    assert a.job_id == b.job_id == f"fig6-{params_digest({'edge': 40})}"
    assert a.artifact_name == f"{a.job_id}.txt"
    assert Job("fig6").job_id == "fig6"  # param-free keeps the classic name


def test_axes_expand_last_fastest():
    spec = CampaignSpec.from_dict(
        {"jobs": [{"experiment": "fig3", "axes": {"nbytes": [16384, 32768], "processes": [4096, 8192]}}]}
    )
    jobs = spec.expand()
    assert [j.params for j in jobs] == [
        {"nbytes": 16384, "processes": 4096},
        {"nbytes": 16384, "processes": 8192},
        {"nbytes": 32768, "processes": 4096},
        {"nbytes": 32768, "processes": 8192},
    ]
    # expansion is a pure function of the spec
    assert [j.job_id for j in jobs] == [j.job_id for j in spec.expand()]


def test_axes_merge_over_params():
    spec = CampaignSpec.from_dict(
        {"jobs": [{"experiment": "fig3", "params": {"processes": 4096}, "axes": {"nbytes": [1024]}}]}
    )
    (job,) = spec.expand()
    assert job.params == {"processes": 4096, "nbytes": 1024}


def test_string_shorthand_and_named_spec(tmp_path):
    path = tmp_path / "night.json"
    path.write_text(json.dumps({"name": "nightly", "jobs": ["table1", "top500"]}))
    spec = CampaignSpec.from_file(path)
    assert spec.name == "nightly"
    assert [j.job_id for j in spec.expand()] == ["table1", "top500"]


def test_params_accept_cli_key_value_strings():
    spec = CampaignSpec.from_dict({"jobs": [{"experiment": "fig6", "params": ["edge=40"]}]})
    (job,) = spec.expand()
    assert job.params == {"edge": 40} and isinstance(job.params["edge"], int)


def test_params_share_the_canonical_parser_error():
    from repro.params import parse_params

    with pytest.raises(ValueError) as canonical:
        parse_params(["edge=forty"])
    with pytest.raises(SpecError) as via_spec:
        CampaignSpec.from_dict(
            {"jobs": [{"experiment": "fig6", "params": ["edge=forty"]}]}
        ).expand()
    # single error-message path: the spec loader surfaces the same text
    assert str(canonical.value) in str(via_spec.value)


def test_unknown_experiment_and_param_fail_fast():
    with pytest.raises(SpecError, match="unknown experiment 'nope'"):
        CampaignSpec.from_dict({"jobs": ["nope"]}).expand()
    with pytest.raises(SpecError, match=r"does not take parameter\(s\) \['bogus'\]"):
        CampaignSpec.from_dict(
            {"jobs": [{"experiment": "fig6", "params": {"bogus": 1}}]}
        ).expand()


def test_duplicate_jobs_rejected():
    with pytest.raises(SpecError, match="duplicate job 'table1'"):
        CampaignSpec.from_dict({"jobs": ["table1", "table1"]}).expand()


def test_malformed_specs_rejected(tmp_path):
    with pytest.raises(SpecError, match="non-empty 'jobs' array"):
        CampaignSpec.from_dict({"jobs": []})
    with pytest.raises(SpecError, match="unknown key"):
        CampaignSpec.from_dict({"jobs": [{"experiment": "table1", "axis": {}}]})
    with pytest.raises(SpecError, match="non-empty value list"):
        CampaignSpec.from_dict(
            {"jobs": [{"experiment": "fig6", "axes": {"edge": []}}]}
        ).expand()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecError, match="not valid JSON"):
        CampaignSpec.from_file(bad)
