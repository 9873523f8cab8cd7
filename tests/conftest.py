import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: package-level acceptance checks")
    config.addinivalue_line(
        "markers", "invariance: verdicts, margins and certificates under "
        "the symmetries of the problem")
    config.addinivalue_line(
        "markers", "census: seeded families that check the referee's and "
        "the engine's shortcuts against their full readings")
