"""Fixtures shared by the test modules."""

import pytest

from signpoly import simplex


@pytest.fixture
def lp_counts():
    """The simplex kernel's own counts of its work from the start of the
    test on (``simplex._Counts``)."""
    with simplex._counting() as counts:
        yield counts
