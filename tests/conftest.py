"""Fixtures shared by every test package."""

from collections import Counter, defaultdict

import pytest

from repro.sim.network import Service


@pytest.fixture
def rpc_counts(monkeypatch):
    """Count every ``Service.request`` call: ``rpc_counts[service]`` is a
    :class:`Counter` of the methods requested from that service."""
    counts = defaultdict(Counter)
    request = Service.request

    def counted(self, src, method, *args, **kwargs):
        counts[self][method] += 1
        return request(self, src, method, *args, **kwargs)

    monkeypatch.setattr(Service, "request", counted)
    return counts
