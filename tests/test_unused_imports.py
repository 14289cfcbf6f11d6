"""Every name a module of src/chebauth or of the test suite imports is used in that module.

Deleting code or rewriting call sites tends to leave imports behind; this
finds them with the standard library's ast instead of a linter. The package
__init__ is exempt, because its imports are the re-exported public API, and
so is any import line marked ``# noqa: F401``, which keeps a binding on
purpose (a module imported for its side effect, say).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebauth"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, as "name (line n)"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=[path.name for path in TEST_MODULES])
def test_every_test_module_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_reports_unused_names_and_honours_noqa():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from sys import (\n"
        "    argv,\n"
        "    path,\n"
        ")\n"
        "print(argv, xml.dom)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "osp (line 2)", "path (line 7)"]
