"""pdes suite configuration: opt-in sanitized runs.

Mirrors ``tests/simmpi/conftest.py``: ``REPRO_SANITIZE=1`` forces the
simulation sanitizer onto every ``Cluster.run`` — the byte-identity
tests still pass because the sanitizer leaves canonical artifacts
untouched, and the reference (single-engine) path is exercised with it
armed.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _sanitize_when_requested(request):
    if os.environ.get("REPRO_SANITIZE"):
        request.getfixturevalue("sanitize_runs")
