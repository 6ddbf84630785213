"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def low_recursion_limit():
    """Run a test with the recursion limit far below the formula depths
    it uses, so a walker that takes a frame per level fails fast."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield
    sys.setrecursionlimit(saved)
