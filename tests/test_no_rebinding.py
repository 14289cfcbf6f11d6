"""No module of src/chebauth rebinds a name outside its own scope.

A `global` or `nonlocal` statement lets a call change state that the next
call reads, so a result can depend on what ran before it. The guess
predicate takes its per-victim constants as an argument instead; the
kernel's table memo is a dict filled in place, which rebinds nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebauth"
MODULES = sorted(PACKAGE.glob("*.py"))


def rebindings(source: str) -> list[str]:
    """Each global or nonlocal statement in source, with the names it declares."""
    found = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Global, ast.Nonlocal))]
    return [f"{type(node).__name__.lower()} {', '.join(node.names)} (line {node.lineno})"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_rebinds_outer_names(path):
    assert rebindings(path.read_text(encoding="utf-8")) == []


def test_checker_finds_global_and_nonlocal():
    source = (
        "_memo = (None, None)\n"
        "def scan(card):\n"
        "    global _memo, _count\n"
        "    _memo = (card,)\n"
        "def outer():\n"
        "    total = 0\n"
        "    def inner():\n"
        "        nonlocal total\n"
        "    return {'global': total}\n"
        "_tables[key] = 'global _x'\n"
    )
    assert rebindings(source) == ["global _memo, _count (line 3)", "nonlocal total (line 8)"]
