"""Test-suite configuration.

Makes a bare ``python -m pytest`` work from a checkout by putting
``src/`` on ``sys.path`` ahead of any installed copy, and provides the
``sanitize_runs`` fixture that turns the simulation sanitizer on for
every ``Cluster.run`` inside a test (see ``docs/linting.md``).

Setting ``REPRO_SANITIZE=1`` applies that fixture to every test of the
suite, wherever it lives: CI does this so deadlocks and request leaks
introduced by new code fail loudly.  Tests that deliberately break a
sanitizer invariant, or test the unsanitized path, opt out with
``@pytest.mark.no_sanitize``.
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)


@pytest.fixture
def sanitize_runs(monkeypatch):
    """Force every ``Cluster.run`` in this test to use ``sanitize=True``.

    Deadlocks then raise :class:`repro.lint.DeadlockError` with the rank
    wait-graph, and leaked requests / unreceived sends raise at program
    exit.  ``REPRO_SANITIZE=1`` turns it on for every test.
    """
    from repro.lint import force_sanitize

    force_sanitize(monkeypatch)


@pytest.fixture(autouse=True)
def _sanitize_when_requested(request):
    if os.environ.get("REPRO_SANITIZE") and "no_sanitize" not in request.keywords:
        request.getfixturevalue("sanitize_runs")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_sanitize: skip the REPRO_SANITIZE autouse sanitizer"
    )
