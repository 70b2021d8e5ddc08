"""apps suite configuration: opt-in sanitized runs.

Mirrors ``tests/simmpi/conftest.py``: ``REPRO_SANITIZE=1`` forces the
simulation sanitizer onto every ``Cluster.run``, so a replay's step
loop that leaks an isend/irecv request or leaves a send unreceived
fails at program exit.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _sanitize_when_requested(request):
    if os.environ.get("REPRO_SANITIZE"):
        request.getfixturevalue("sanitize_runs")
