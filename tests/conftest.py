"""Fixtures and helpers shared by the test modules."""

import tracemalloc

import pytest

from gridfree import build_base


@pytest.fixture(scope="session")
def base1009():
    """build_base(1009): m = 254,268 edges, about 3.6 MB of edge body."""
    return build_base(1009)


def traced_peak(fn, *args):
    """fn(*args) and the peak of tracemalloc's traced memory during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
