"""Fixtures shared by the test modules."""

import pytest

from chebauth import chaotic


@pytest.fixture
def cold_memo():
    """The kernel's memo of squaring chains, emptied before and after the test."""
    chaotic._tables.clear()
    yield chaotic._tables
    chaotic._tables.clear()

