"""Pytest configuration for the test suite.

Registers hypothesis profiles: ``ci`` (deterministic, bounded example
counts — selected automatically when ``CI`` is set) and ``dev`` (more
examples, random exploration).  Override with
``HYPOTHESIS_PROFILE=dev|ci``.  Tests that pin ``@settings(...)``
explicitly keep their own values.

Also provides ``staging_pools``, a fixture recording every staging pool
built while it is active, for end-of-run slot-conservation checks.
"""

import os

import pytest

from repro.shmem.staging import StagingPool

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    pass
else:
    settings.register_profile(
        "ci",
        max_examples=25,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=75, deadline=None)
    _default = "ci" if os.environ.get("CI") else "dev"
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", _default))


@pytest.fixture
def staging_pools(monkeypatch):
    """Every :class:`StagingPool` built while active."""
    made = []
    init = StagingPool.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(StagingPool, "__init__", record)
    return made
