"""Fixtures shared across test modules."""

import pytest

from repro.cluster import router as router_mod


@pytest.fixture
def no_hedges(monkeypatch):
    """Routers in the test never fire a backup: the hedge budget is zero."""
    monkeypatch.setattr(router_mod, "HEDGE_BUDGET", 0.0)
    monkeypatch.setattr(router_mod, "HEDGE_BUDGET_BURST", 0)
