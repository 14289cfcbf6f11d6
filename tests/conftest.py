"""Fixtures shared by the test modules."""

import pytest

from chebauth import chaotic
from chebauth.primitives import BitString


@pytest.fixture
def cold_memo():
    """The kernel's memo of squaring chains, emptied before and after the test."""
    chaotic._tables.clear()
    yield chaotic._tables
    chaotic._tables.clear()


@pytest.fixture
def bitstrings_built(monkeypatch):
    """The BitStrings constructed during the test, counted as the benchmark's tracer counts them."""
    built = []
    original = BitString.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(BitString, "__post_init__", counting)
    return built
