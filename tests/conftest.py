import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def forbid_draws(monkeypatch):
    """Make any random stream fail: both the block path and substream
    build numpy's SeedSequence and Philox."""

    def no_draw(*args, **kwargs):
        raise AssertionError("a realization was drawn")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    monkeypatch.setattr(np.random, "Philox", no_draw)
