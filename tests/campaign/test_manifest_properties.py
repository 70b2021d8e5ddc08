"""The manifest encoder against the one-shot ``json.dumps`` reference.

``record_text`` + ``manifest_text`` build the manifest from per-record
pieces so a writer can keep the pieces of unchanged records.  The bytes
must equal ``json.dumps(manifest_doc(...), indent=2, sort_keys=True)``
plus a newline — the encoding every earlier manifest was written with.
That reference lives here, in the tests, only.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.campaign.manifest import (
    JobRecord,
    manifest_doc,
    manifest_text,
    record_text,
    STATUSES,
    write_manifest,
)


def reference_text(records, name="campaign", code_fingerprint=""):
    doc = manifest_doc(records, name=name, code_fingerprint=code_fingerprint)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Unicode, quotes, backslashes, newlines and control characters.
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ["", 'a "quoted"\nline', "back\\slash", "tab\tand\r\n", "☃ é 日本", "\x00\x1f"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | texts
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
params = st.dictionaries(texts, json_values, max_size=4)

records = st.builds(
    JobRecord,
    job_id=texts,
    experiment=texts,
    params=params,
    status=st.sampled_from(STATUSES),
    source=st.sampled_from(["cache", "computed", "journal", ""]),
    digest=texts,
    artifact=texts,
    attempts=st.integers(0, 9),
    error=texts,
    error_type=texts,
    classification=texts,
    backoff_s=st.lists(st.floats(0, 10, allow_nan=False), max_size=3),
    degraded_params=params,
)
#: none, one, or many records
record_lists = st.one_of(
    st.just([]), st.lists(records, min_size=1, max_size=1), st.lists(records, max_size=6)
)


@settings(max_examples=100, deadline=None)
@given(record_lists, texts, texts)
def test_assembled_manifest_equals_the_reference_encoding(recs, name, fingerprint):
    pieces = [record_text(r) for r in recs]
    assert manifest_text(pieces, name=name, code_fingerprint=fingerprint) == reference_text(
        recs, name=name, code_fingerprint=fingerprint
    )


def test_empty_manifest_renders_an_empty_jobs_list():
    assert manifest_text([], name="n", code_fingerprint="f") == (
        '{\n  "code_fingerprint": "f",\n  "jobs": [],\n  "name": "n"\n}\n'
    )
    assert manifest_text([]) == reference_text([])


@settings(max_examples=50, deadline=None)
@given(records)
def test_to_dict_equals_asdict(record):
    assert record.to_dict() == dataclasses.asdict(record)


@settings(max_examples=25, deadline=None)
@given(records)
def test_to_dict_containers_are_fresh_copies(record):
    before = dataclasses.asdict(record)
    doc = record.to_dict()
    doc["params"]["added"] = 1
    doc["backoff_s"].append(99.0)
    doc["degraded_params"]["added"] = 1
    doc["job_id"] = "changed"
    assert dataclasses.asdict(record) == before


@settings(max_examples=10, deadline=None)
@given(record_lists)
def test_write_manifest_writes_the_reference_bytes(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    write_manifest(path, recs, name="camp", code_fingerprint="abc123")
    assert path.read_text(encoding="utf-8") == reference_text(
        recs, name="camp", code_fingerprint="abc123"
    )
