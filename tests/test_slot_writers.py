"""Only _value writes a frozen value's slots.

Frozen types refuse setattr; the one way past that guard is the ``_fill``
that ``_value`` compiles per class, storing through each slot descriptor's
``__set__``. No other module of src/chebauth may name ``_set``,
``object.__setattr__`` or a descriptor's ``__set__``, so a new bypass cannot
slip in beside it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebauth"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "_value.py")


def slot_writes(source: str) -> list[str]:
    """Each place source names _set, __setattr__ or __set__, as "name (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_set":
            found.append(f"_set (line {node.lineno})")
        elif isinstance(node, ast.alias) and "_set" in (node.name, node.asname):
            found.append(f"_set (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__"):
            found.append(f"{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_but_value_writes_slots(path):
    assert slot_writes(path.read_text(encoding="utf-8")) == []


def test_checker_finds_each_bypass():
    source = (
        "from ._value import _set\n"
        "from ._value import _set as write\n"
        "_set(card, 'im1', b'')\n"
        "object.__setattr__(card, 'im1', b'')\n"
        "SmartCard.__dict__['im1'].__set__(card, b'')\n"
        "card._fill(b'', b'', b'', b'')\n"
        "card.settle = setattr\n"
    )
    assert slot_writes(source) == [
        "_set (line 1)", "_set (line 2)", "_set (line 3)", "__setattr__ (line 4)", "__set__ (line 5)",
    ]
