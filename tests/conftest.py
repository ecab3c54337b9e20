"""Fixtures shared across test modules."""

import pytest

from repro.cluster import router as router_mod


@pytest.fixture
def no_hedges(monkeypatch):
    """Routers in the test never fire a backup: the hedge budget is zero."""
    monkeypatch.setattr(router_mod, "HEDGE_BUDGET", 0.0)
    monkeypatch.setattr(router_mod, "HEDGE_BUDGET_BURST", 0)


@pytest.fixture(scope="session")
def chaos_report():
    """One small soak with every fault family, shared by the files that
    read its report (the soak takes seconds; its report is read-only)."""
    from repro.cluster.chaos import ChaosConfig, run_chaos

    return run_chaos(ChaosConfig(requests=400, seed=0, kills=2))
