"""Fixtures shared by the test modules, and the one hypothesis profile.

Every property and model test draws the same examples on every run: the
seed comes from the test's source, no example database is read or written,
and no example has a deadline, since timing would make a pass depend on the
host. A test's own settings name only how much it draws.
"""

import pytest
from hypothesis import settings

from chebauth import chaotic

settings.register_profile("chebauth", deadline=None, derandomize=True, database=None)
settings.load_profile("chebauth")


@pytest.fixture
def cold_memo():
    """The kernel's memo of squaring chains, emptied before and after the test."""
    chaotic._tables.clear()
    yield chaotic._tables
    chaotic._tables.clear()
