"""Fixtures shared by the test modules."""

import pytest

from pnormtest import test_engine


@pytest.fixture
def fixed_critical(monkeypatch):
    """Fixes the Monte-Carlo critical value of ``invert_confidence_set`` at
    3.0; calling the fixture's value with another number fixes that one."""

    def fix(value: float = 3.0) -> float:
        monkeypatch.setattr(test_engine, "mc_pnorm_quantile", lambda *args, **kwargs: value)
        return value

    fix()
    return fix
