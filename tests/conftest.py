"""Fixtures shared across test modules."""

import pytest

from kummergauss.sigma import build_sigma


@pytest.fixture(scope="session")
def frames():
    """The symbolic order-16 frames at levels 3, 5 and 7, built once per
    session, so that each level's ``cleared_ricci`` is computed once."""
    return {level: build_sigma(level) for level in (3, 5, 7)}
