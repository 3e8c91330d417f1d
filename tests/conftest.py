"""Fixtures shared by the test modules."""

import pytest

from signpoly._counts import _counting


@pytest.fixture
def counts():
    """The library's own counts of its work from the start of the test
    on (``signpoly._counts._Counts``)."""
    with _counting() as counts:
        yield counts
