"""Rules on the source of src/chebauth, each checked by an ast finder, and why they hold:

- no_rebinding: a ``global`` or ``nonlocal`` statement lets a call change
  state that the next call reads, so a result can depend on what ran before
  it; the guess predicate takes its per-victim constants as an argument
  instead. The kernel's table memo is a dict filled in place: no rebinding.
- slot_writes: frozen types refuse setattr; the one way past that guard is
  the ``_fill`` that ``_value`` compiles per class, storing through each slot
  descriptor's ``__set__``. Naming ``_set``, ``object.__setattr__`` or a
  ``__set__`` elsewhere would slip a new bypass in beside it.
- timestamp_builds: the clock holds the time as a Timestamp and hands out
  every stamp a login uses: now() for a message's send time, advance() for
  its delivery, and after() for a time the login must be able to reach
  before it draws. Built only in primitives, the tick rule (an int in
  [0, 2^64), never moving backwards) has one home.
- unused_imports: deleting code or rewriting call sites tends to leave
  imports behind, in the package, the tests and perfbench alike. The package
  __init__ is exempt, because its imports are the re-exported public API, and
  so is any import line marked ``# noqa: F401``, which keeps a binding on
  purpose (a module imported for its side effect, say).
- bitstring_uses: bit strings are plain bytes everywhere. The public adapters
  take and return bytes of the requested width and count nothing, so only
  primitives names them or BitString, and the package root re-exports none
  of them. Adversary keeps its import of hash_h for the tracer's tests.
- parameters: card and server share one Params, which checks the prime, the
  width and the window when it is built. A public protocol function that took
  a ``prime``, ``width`` or ``delta_t`` would compute with a value that never
  went through that check, as the card-side calls once did with ``prime=9``
  or ``delta_t=-1``. Only server_setup and user_login_start take ``params``:
  the login context carries it to the M2 check, where a second Params could
  disagree with the one the login started with.
"""

import ast
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
          for folder in (ROOT / "src" / "chebauth", ROOT / "tests", ROOT / "perfbench")
          for path in sorted(folder.glob("*.py"))}
ADAPTERS = {"hash_h", "hash_H", "xor", "concat"}
KEPT_IMPORTS = {"chebauth/adversary.py": {"hash_h"}}  # perfbench/test_bench_tracer.py reads adversary.hash_h
CHECKED_BY_PARAMS = ("prime", "width", "delta_t")


def report(found) -> list[str]:
    """(line, what) pairs as "what (line n)", in line order."""
    return [f"{what} (line {line})" for line, what in sorted(found)]


def called(node: ast.Call):
    """The name a call calls, bare or as an attribute; None for any other callee."""
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def no_rebinding(source: str) -> list[str]:
    """Each global or nonlocal statement in source, with the names it declares."""
    return report((node.lineno, f"{type(node).__name__.lower()} {', '.join(node.names)}")
                  for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Global, ast.Nonlocal)))


def slot_writes(source: str) -> list[str]:
    """Each place source names _set, __setattr__ or __set__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "_set"
                or isinstance(node, ast.alias) and "_set" in (node.name, node.asname)):
            found.append((node.lineno, "_set"))
        elif isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__"):
            found.append((node.lineno, node.attr))
    return report(found)


def timestamp_builds(source: str) -> list[str]:
    """Each call of Timestamp, bare or as an attribute, and each renaming import of it in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and called(node) == "Timestamp":
            found.append((node.lineno, "Timestamp()"))
        elif isinstance(node, ast.alias) and node.name == "Timestamp" and node.asname:
            found.append((node.lineno, f"Timestamp as {node.asname}"))
    return report(found)


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {alias.asname or alias.name.split(".")[0]: alias.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                if not any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno))}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return report((line, name) for name, line in imported.items() if name not in used)


def bitstring_uses(source: str, kept=frozenset()) -> list[str]:
    """Each naming of BitString and each import or call of an adapter in source, bar imports of kept."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in (ADAPTERS | {"BitString"}) - kept:
            found.append((node.lineno, f"import {node.name}"))
        elif isinstance(node, ast.Name) and node.id == "BitString":
            found.append((node.lineno, "BitString"))
        elif isinstance(node, ast.Attribute) and node.attr == "BitString":
            found.append((node.lineno, ".BitString"))
        elif isinstance(node, ast.Call) and called(node) in ADAPTERS:
            found.append((node.lineno, f"{called(node)}()"))
    return report(found)


def parameters(source: str, names=CHECKED_BY_PARAMS) -> list[str]:
    """Each parameter in names of a public module-level function, as "function(name)"."""
    return [f"{node.name}({argument.arg})" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
            for argument in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                             node.args.vararg, node.args.kwarg)
            if argument is not None and argument.arg in names]


def params_takers(source: str) -> list[str]:
    """The public module-level functions with a parameter named params."""
    return [found.removesuffix("(params)") for found in parameters(source, ("params",))]


PACKAGE = {name for name in SOURCE if name.startswith("chebauth/")}
HOLDS = {  # rule -> the modules it holds for
    no_rebinding: PACKAGE,
    slot_writes: PACKAGE - {"chebauth/_value.py"},
    timestamp_builds: PACKAGE - {"chebauth/primitives.py"},
    unused_imports: SOURCE.keys() - {"chebauth/__init__.py"},
    bitstring_uses: PACKAGE - {"chebauth/primitives.py"},
    parameters: {"chebauth/protocol.py"},
}
CASES = [(rule, name, []) for rule, names in HOLDS.items() for name in sorted(names)]
CASES.append((params_takers, "chebauth/protocol.py", ["server_setup", "user_login_start"]))


@pytest.mark.parametrize("rule, name, expected", CASES, ids=[f"{rule.__name__}-{name}" for rule, name, _ in CASES])
def test_module_keeps_rule(rule, name, expected):
    if rule is bitstring_uses:
        rule = partial(bitstring_uses, kept=KEPT_IMPORTS.get(name, frozenset()))
    assert rule(SOURCE[name]) == expected


BITSTRING_SNIPPET = (
    "from .primitives import BitString, hash_h  # noqa: F401\n"
    "import chebauth.primitives as p\n"
    "x = p.BitString(b'a')\n"
    "y = p.xor(a, b)\n"
    "z = concat([a])\n"
    "hash_H\n"
    "from . import xor as exclusive_or, hash_H\n"
)


@pytest.mark.parametrize("finder, source, expected", [
    pytest.param(no_rebinding, (
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
    ), ["global _memo, _count (line 3)", "nonlocal total (line 8)"], id="no_rebinding"),
    pytest.param(slot_writes, (
        "from ._value import _set\n"
        "from ._value import _set as write\n"
        "_set(card, 'im1', b'')\n"
        "object.__setattr__(card, 'im1', b'')\n"
        "SmartCard.__dict__['im1'].__set__(card, b'')\n"
        "card._fill(b'', b'', b'', b'')\n"
        "card.settle = setattr\n"
    ), ["_set (line 1)", "_set (line 2)", "_set (line 3)", "__setattr__ (line 4)", "__set__ (line 5)"],
        id="slot_writes"),
    pytest.param(timestamp_builds, (
        "from .primitives import LogicalClock, Timestamp\n"
        "from .primitives import Timestamp as Stamp\n"
        "import chebauth.primitives as p\n"
        "Timestamp(clock.now().ticks + 2)\n"
        "p.Timestamp(0)\n"
        "isinstance(t, Timestamp) and {Timestamp: str}\n"
        "clock.after(2 * delay)\n"
        "events = [ChannelEvent(m1, stamp(Timestamp(1).ticks))]\n"
    ), ["Timestamp as Stamp (line 2)", "Timestamp() (line 4)", "Timestamp() (line 5)", "Timestamp() (line 8)"],
        id="timestamp_builds"),
    pytest.param(unused_imports, (
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from sys import (\n"
        "    argv,\n"
        "    path,\n"
        ")\n"
        "print(argv, xml.dom)\n"
    ), ["os (line 1)", "osp (line 2)", "path (line 7)"], id="unused_imports"),
    pytest.param(bitstring_uses, BITSTRING_SNIPPET, [
        "import BitString (line 1)", "import hash_h (line 1)", ".BitString (line 3)", "xor() (line 4)",
        "concat() (line 5)", "import hash_H (line 7)", "import xor (line 7)",
    ], id="bitstring_uses"),
    pytest.param(partial(bitstring_uses, kept={"hash_h"}), BITSTRING_SNIPPET, [
        "import BitString (line 1)", ".BitString (line 3)", "xor() (line 4)",
        "concat() (line 5)", "import hash_H (line 7)", "import xor (line 7)",
    ], id="bitstring_uses-kept"),
    pytest.param(bitstring_uses, "isinstance(x, BitString)\n", ["BitString (line 1)"], id="bitstring_uses-name"),
    pytest.param(parameters, (
        "def server_setup(seed, width=256, prime=7, delta_t=5): pass\n"
        "def user_login_start(card, *, prime): pass\n"
        "def user_handle_response(card, delta_t, /, **width): pass\n"
        "def _private(prime): pass\n"
        "def fine(params, p, window): pass\n"
        "class Params:\n"
        "    def __init__(self, p, width, delta_t): pass\n"
    ), [
        "server_setup(width)", "server_setup(prime)", "server_setup(delta_t)",
        "user_login_start(prime)", "user_handle_response(delta_t)", "user_handle_response(width)",
    ], id="parameters"),
    pytest.param(params_takers, (
        "def server_setup(seed, params=None): pass\n"
        "def user_handle_response(ctx, m2, clock, *, params): pass\n"
        "def run(**params): pass\n"
        "def _private(params): pass\n"
        "def fine(ctx, parameters): pass\n"
        "class Params:\n"
        "    def replace(self, params): pass\n"
    ), ["server_setup", "user_handle_response", "run"], id="params_takers"),
])
def test_finder_on_snippet(finder, source, expected):
    assert finder(source) == expected
