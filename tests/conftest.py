from collections import OrderedDict

import pytest

from lisscheb import nodes


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh, empty per-spec cache (Γ sets, node sets) for one test."""
    monkeypatch.setattr(nodes, "_cache", OrderedDict())
    monkeypatch.setattr(nodes, "_cache_bytes", 0)
