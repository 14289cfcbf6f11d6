"""Only primitives builds a Timestamp.

The clock holds the time as a Timestamp and hands out every stamp a login
uses: now() for a message's send time, advance() for its delivery, and
after() for a time the login must be able to reach before it draws. No other
module of src/chebauth calls Timestamp(...) or imports it under another
name, so the tick rule (an int in [0, 2^64), never moving backwards) has
one home.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebauth"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "primitives.py")


def timestamp_builds(source: str) -> list[str]:
    """Each call of Timestamp, bare or as an attribute, and each renaming import of it in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Timestamp":
                found.append((node.lineno, "Timestamp()"))
        elif isinstance(node, ast.alias) and node.name == "Timestamp" and node.asname:
            found.append((node.lineno, f"Timestamp as {node.asname}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_but_primitives_builds_a_timestamp(path):
    assert timestamp_builds(path.read_text(encoding="utf-8")) == []


def test_checker_finds_calls_and_renamed_imports():
    source = (
        "from .primitives import LogicalClock, Timestamp\n"
        "from .primitives import Timestamp as Stamp\n"
        "import chebauth.primitives as p\n"
        "Timestamp(clock.now().ticks + 2)\n"
        "p.Timestamp(0)\n"
        "isinstance(t, Timestamp) and {Timestamp: str}\n"
        "clock.after(2 * delay)\n"
        "events = [ChannelEvent(m1, stamp(Timestamp(1).ticks))]\n"
    )
    assert timestamp_builds(source) == [
        "Timestamp as Stamp (line 2)", "Timestamp() (line 4)", "Timestamp() (line 5)", "Timestamp() (line 8)",
    ]
