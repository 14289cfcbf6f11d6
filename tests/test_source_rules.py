"""Rules on the source of src/chebauth and the tests, and why they hold.

Most are checked by an ast finder; the two on what chebauth.protocol's
public functions take are read from their signatures:

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
- shim_uses: the package keeps ExtractedCard, Transcript, BitString,
  _cheb_pure and the adapters hash_h, hash_H, xor and concat only for
  perfbench. Only the modules that define one name them, bar the hash_h
  that adversary keeps bound, and of the tests only test_shims.py and
  test_values.py's table of every value type, so deleting the shims touches
  those two; the rest tests what runs.
- parameters: card and server share one Params, which checks the prime, the
  width and the window when it is built. A public protocol function that took
  a ``prime``, ``width`` or ``delta_t`` would compute with a value that never
  went through that check, as the card-side calls once did with ``prime=9``
  or ``delta_t=-1``. Only server_setup and user_login_start take ``params``:
  the login context carries it to the M2 check, where a second Params could
  disagree with the one the login started with.
- counters: a login's cost is a constant of how it ended, so the login
  phases count nothing and run_login_session books each party's cost, the
  only function to take ``user_counts`` and ``server_counts``. Only
  registration and change_password, one exit each, take ``counts``; a
  counts parameter on a login phase would let counting creep back into it.
- cost_literals: protocol.COSTS states what each exit and each offline
  guess costs, once. Every tally books an entry of it, and no other module
  writes an op count as a literal, in a dict display or in an OpCounts
  call, so that no second statement of a cost can disagree with it.
- type_refusals: _value._require, at the bottom of the import graph so that
  chaotic can import it too, states the rule for an argument of the wrong
  class once, its check of the exact class and its message, "ticks must be
  an int, got bool" or "counts must be an OpCounts, got dict". A
  ``TypeError`` written out as "... must be a ..." or "... must be an ..."
  in another function would be a second copy of the rule that could drift
  from it. Dictionary.__init__ accepts two classes, a tuple or a list "of
  passwords", and scan_target any instance of SmartCard, because perfbench's
  guess-scan passes it an ExtractedCard (ROADMAP item 1 deletes that class);
  both keep their inline check.
- newer_syntax: pyproject's requires-python lets the package install, and
  the tests and perfbench run, on Python 3.10, while they are written on one
  newer interpreter, which would parse a grammar 3.10 refuses (an
  ``except*`` block, say). ``ast.parse`` with ``feature_version`` at that
  floor refuses it, in every module of the package, the tests and
  perfbench. The check is best effort: it reads grammar only, not library
  calls newer than the floor.
"""

import ast
import re
from pathlib import Path

import pytest

from chebauth import protocol

from helpers import public_parameters

ROOT = Path(__file__).resolve().parent.parent
SOURCE = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
          for folder in (ROOT / "src" / "chebauth", ROOT / "tests", ROOT / "perfbench")
          for path in sorted(folder.glob("*.py"))}
SHIMS = {"ExtractedCard", "Transcript", "BitString", "_cheb_pure", "cheb_eval_int"}
ADAPTERS = {"hash_h", "hash_H", "xor", "concat"}
ADAPTER_HOMES = {"primitives", "chebauth.primitives", "adversary", "chebauth.adversary"}  # the modules binding one
CHECKED_BY_PARAMS = ("prime", "width", "delta_t")
COUNTERS = ("counts", "user_counts", "server_counts")
FLOOR = tuple(int(part) for part in re.search(  # pyproject's oldest Python, as (major, minor)
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups())


def report(found) -> list[str]:
    """(line, what) pairs as "what (line n)", in line order."""
    return [f"{what} (line {line})" for line, what in sorted(found)]


def name_of(node: ast.expr):
    """The name an expression ends in, bare or as an attribute; None for any other expression."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


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
        if isinstance(node, ast.Call) and name_of(node.func) == "Timestamp":
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


def shim_uses(source: str) -> list[str]:
    """Each naming of a shim, and each import or call of an adapter from a module that binds one, in source.

    A shim counts bare, as an attribute and in an import, also as a module.
    An adapter counts imported from primitives or adversary, and called
    under the name that import gave it or on a name bound to either module,
    so reference_scheme's own xor stays free.
    """
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {"primitives", "adversary"} | {alias.asname for node in imports for alias in node.names
                                             if alias.asname and alias.name in ADAPTER_HOMES}
    adapters, found = set(), []
    for node in imports:
        from_home = getattr(node, "module", None) in ADAPTER_HOMES
        adapters |= {alias.asname or alias.name for alias in node.names if from_home and alias.name in ADAPTERS}
        found += [(alias.lineno, f"import {alias.name}") for alias in node.names
                  if (SHIMS | ADAPTERS if from_home else SHIMS).intersection(alias.name.split("."))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in SHIMS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in SHIMS:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in adapters
                or isinstance(node.func, ast.Attribute) and node.func.attr in ADAPTERS
                and name_of(node.func.value) in modules):
            found.append((node.lineno, f"{name_of(node.func)}()"))
    return report(found)


def cost_literals(source: str) -> list[str]:
    """Each tally call that books anything but an entry of COSTS, and each count written as a literal.

    A count is written as a literal in a dict display whose "hash" value is a
    number, and in an OpCounts call with a number anywhere in its arguments.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name_of(node.func) == "tally" and not (
                len(node.args) == 2 and isinstance(node.args[1], ast.Subscript)
                and name_of(node.args[1].value) == "COSTS"):
            found.append((node.lineno, "tally()"))
        elif isinstance(node, ast.Dict) and any(isinstance(key, ast.Constant) and key.value == "hash"
                                                and isinstance(value, ast.Constant)
                                                for key, value in zip(node.keys, node.values)):
            found.append((node.lineno, "{'hash': literal}"))
        elif isinstance(node, ast.Call) and name_of(node.func) == "OpCounts" and any(
                isinstance(part, ast.Constant) and type(part.value) in (int, float)
                for argument in (*node.args, *(keyword.value for keyword in node.keywords))
                for part in ast.walk(argument)):
            found.append((node.lineno, "OpCounts(literal)"))
    return report(found)


def type_refusals(source: str) -> list[str]:
    """Each raise of a TypeError whose message says "must be a" or "must be an", by the function it is in, bar _require.

    The function is named with its classes, as "Dictionary.__init__"; the
    message is read from the call's source, so an f-string counts.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and name_of(node.exc.func) == "TypeError"
              and scope != "_require" and re.search(r"\bmust be an? ", ast.unparse(node.exc))):
            found.append((node.lineno, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), "")
    return report(found)


def newer_syntax(source: str) -> list[str]:
    """The first error that the grammar of FLOOR finds in source, if any."""
    try:
        ast.parse(source, feature_version=FLOOR)
    except SyntaxError as error:
        return report([(error.lineno, error.msg)])
    return []


def protocol_parameters(names) -> list[str]:
    """Each parameter in names of a public function that chebauth.protocol defines, as "function(name)"."""
    return [f"{function.__name__}({parameter.name})" for function, parameter in public_parameters(protocol)
            if parameter.name in names]


PACKAGE = {name for name in SOURCE if name.startswith("chebauth/")}
TESTS = {name for name in SOURCE if name.startswith("tests/")}
HOLDS = {  # rule -> the modules it holds for
    no_rebinding: PACKAGE,
    slot_writes: PACKAGE - {"chebauth/_value.py"},
    timestamp_builds: PACKAGE - {"chebauth/primitives.py"},
    unused_imports: SOURCE.keys() - {"chebauth/__init__.py"},
    shim_uses: (PACKAGE - {"chebauth/primitives.py", "chebauth/_cheb_pure.py"}
                | TESTS - {"tests/test_shims.py", "tests/test_values.py"}),
    cost_literals: PACKAGE,
    type_refusals: PACKAGE,
    newer_syntax: SOURCE.keys(),
}
# (rule, module) -> the reports the module may make: perfbench/tracer.py wraps
# hash_h under every module name bound to it, adversary's among them, and
# adversary's two inline class checks are the ones the docstring names
KEPT = {(shim_uses, "chebauth/adversary.py"): {"import hash_h"},
        (type_refusals, "chebauth/adversary.py"): {"Dictionary.__init__", "scan_target"}}
CASES = [(rule, name, []) for rule, names in HOLDS.items() for name in sorted(names)]


@pytest.mark.parametrize("rule, name, expected", CASES, ids=[f"{rule.__name__}-{name}" for rule, name, _ in CASES])
def test_module_keeps_rule(rule, name, expected):
    kept = KEPT.get((rule, name), set())
    assert [found for found in rule(SOURCE[name]) if found.split(" (line")[0] not in kept] == expected


@pytest.mark.parametrize("names, expected", [
    pytest.param(CHECKED_BY_PARAMS, [], id="parameters"),
    pytest.param(("params",), ["server_setup(params)", "user_login_start(params)"], id="params_takers"),
    pytest.param(COUNTERS, ["registration(counts)", "change_password(counts)", "run_login_session(user_counts)",
                            "run_login_session(server_counts)"], id="counters"),
])
def test_protocol_functions_take(names, expected):
    assert protocol_parameters(names) == expected


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
    pytest.param(shim_uses, (
        "isinstance(x, BitString)\n"
        "card = ExtractedCard(*fields)\n"
        "Transcript.from_events(events)\n"
        "_cheb_pure = cheb_eval_int\n"
        "extracted = scan_target(card, m1)\n"
    ), ["BitString (line 1)", "ExtractedCard (line 2)", "Transcript (line 3)", "_cheb_pure (line 4)",
        "cheb_eval_int (line 4)"], id="shim_uses-name"),
    pytest.param(shim_uses, (
        "adversary.ExtractedCard.from_card(card)\n"
        "chebauth._cheb_pure.cheb_eval_int(n, x, p)\n"
        "p.BitString(b'a')\n"
        "session.events[0].message\n"
    ), [".ExtractedCard (line 1)", "._cheb_pure (line 2)", ".cheb_eval_int (line 2)", ".BitString (line 3)"],
        id="shim_uses-attribute"),
    pytest.param(shim_uses, (
        "from chebauth.adversary import ExtractedCard as Copy, scan_target\n"
        "from chebauth import _cheb_pure\n"
        "import chebauth._cheb_pure as kernel\n"
        "from .primitives import (\n"
        "    h_digest,\n"
        "    hash_h as h,\n"
        ")\n"
        "from reference_scheme import h, xor\n"
        "from chebauth.primitives import concat, xor_bytes  # noqa: F401\n"
        "from chebauth.adversary import hash_h, scan_target\n"
    ), ["import ExtractedCard (line 1)", "import _cheb_pure (line 2)", "import chebauth._cheb_pure (line 3)",
        "import hash_h (line 6)", "import concat (line 9)", "import hash_h (line 10)"], id="shim_uses-import"),
    pytest.param(shim_uses, (
        "import chebauth.primitives as p\n"
        "from chebauth import primitives, adversary\n"
        "from .adversary import hash_h as h\n"
        "p.xor(a, b)\n"
        "primitives.concat([a])\n"
        "chebauth.primitives.hash_H(a, b, c)\n"
        "adversary.hash_h(x) + chebauth.adversary.hash_h(x)\n"
        "h(x) + ref.xor(a, b) + xor(a, b) + p.h_digest(32, a)\n"
    ), ["import hash_h (line 3)", "xor() (line 4)", "concat() (line 5)", "hash_H() (line 6)", "hash_h() (line 7)",
        "hash_h() (line 7)", "h() (line 8)"], id="shim_uses-call"),
    pytest.param(cost_literals, (
        "tally(counts, 5, 4, 0)\n"
        "primitives.tally(counts, cost)\n"
        "tally(counts, COSTS['registration'])\n"
        "tally(server_counts, COSTS[result.reason.value])\n"
        "WASTED = {'hash': 6, 'xor': 4, 'cheb': 1}\n"
        "{'hash': self.n_hash, 'xor': self.n_xor}\n"
        "OpCounts(n_hash=3 * guesses, n_xor=2 * guesses)\n"
        "primitives.OpCounts(0, 0, 1) + OpCounts(*(guesses * n for n in COSTS['guess'])) + OpCounts()\n"
    ), ["tally() (line 1)", "tally() (line 2)", "{'hash': literal} (line 5)", "OpCounts(literal) (line 7)",
        "OpCounts(literal) (line 8)"], id="cost_literals"),
    pytest.param(newer_syntax, (
        "match event:\n"
        "    case [message, *rest] if (n := len(rest)):\n"
        "        pass\n"
        "try:\n"
        "    scan()\n"
        "except* ValueError:\n"
        "    pass\n"
    ), ["Exception groups are only supported in Python 3.11 and greater (line 7)"], id="newer_syntax"),
    pytest.param(type_refusals, (
        "class Timestamp(Frozen):\n"
        "    def __init__(self, ticks: int):\n"
        "        if type(ticks) is not int:\n"
        "            raise TypeError(f'ticks must be an int, got {type(ticks).__name__}')\n"
        "def run(delay):\n"
        "    raise TypeError('delay must be a bool')\n"
        "raise TypeError(f'seed must be an int, got {seed!r}')\n"
    ), ["Timestamp.__init__ (line 4)", "run (line 6)", "<module> (line 7)"], id="type_refusals-inline"),
    pytest.param(type_refusals, (
        "def _require(value, cls: type, name: str):\n"
        "    if type(value) is not cls:\n"
        "        raise TypeError(f\"{name} must be {'an' if cls is int else 'a'} {cls.__name__}\")\n"
        "class Timestamp(Frozen):\n"
        "    def __init__(self, ticks: int):\n"
        "        _require(ticks, int, 'ticks')\n"
        "        raise ValueError(f'ticks must be in [0, 2**64), got {ticks}')\n"
        "def as_bytes(value, name):\n"
        "    raise TypeError(f'{name} must be str or bytes-like, got {type(value).__name__}')\n"
        "def cheb_eval(n, x):\n"
        "    raise TypeError(f'cheb_eval takes an int and a FieldElement: {names}')\n"
    ), [], id="type_refusals-require"),
])
def test_finder_on_snippet(finder, source, expected):
    assert finder(source) == expected
