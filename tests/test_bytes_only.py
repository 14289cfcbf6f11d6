"""Bit strings are plain bytes everywhere; BitString is only a shell.

Outside primitives no module of the package names BitString or calls the
public adapters hash_h, hash_H, xor and concat, which take and return bytes
of the requested width and count nothing. Running every CLI command and an
offline guess builds no BitString, counted by replacing its construction
hook as the benchmark's tracer does.
"""

import ast
import inspect
from pathlib import Path

import pytest

from chebauth import adversary, cli, primitives
from chebauth.adversary import Dictionary, ExtractedCard, offline_guess
from chebauth.chaotic import FieldElement
from chebauth.primitives import BitString, OpCounts, Timestamp, concat, hash_H, hash_h, xor
from chebauth.protocol import run_login_session

from helpers import make_fixture

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebauth"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "primitives.py")
ADAPTERS = {"hash_h", "hash_H", "xor", "concat"}


def bitstring_uses(source: str) -> list[str]:
    """Each naming of BitString and each call of an adapter in source, as "what (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name == "BitString":
            found.append((node.lineno, "import BitString"))
        elif isinstance(node, ast.Name) and node.id == "BitString":
            found.append((node.lineno, "BitString"))
        elif isinstance(node, ast.Attribute) and node.attr == "BitString":
            found.append((node.lineno, ".BitString"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ADAPTERS:
                found.append((node.lineno, f"{name}()"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_but_primitives_uses_bitstring_or_the_adapters(path):
    assert bitstring_uses(path.read_text(encoding="utf-8")) == []


def test_checker_finds_names_imports_and_calls():
    source = (
        "from .primitives import BitString, hash_h  # noqa: F401\n"
        "import chebauth.primitives as p\n"
        "x = p.BitString(b'a')\n"
        "y = p.xor(a, b)\n"
        "z = concat([a])\n"
        "hash_H\n"
    )
    assert bitstring_uses(source) == [
        "import BitString (line 1)", ".BitString (line 3)", "xor() (line 4)", "concat() (line 5)",
    ]


def test_bitstring_is_only_its_fields_and_construction_hook():
    (cls,) = [node for node in ast.parse(inspect.getsource(primitives)).body
              if isinstance(node, ast.ClassDef) and node.name == "BitString"]
    defined = []
    for node in cls.body[1:]:  # after the docstring
        defined += [node.name] if isinstance(node, ast.FunctionDef) else [t.id for t in node.targets]
    assert defined == ["__slots__", "__match_args__", "__init__", "__post_init__"]
    assert BitString.__match_args__ == BitString.__slots__ == ("data",)


def test_adapters_are_their_own_functions():
    # the tracer wraps every module binding that is the original function, so
    # an alias of a bytes form would trace the protocol's own calls
    assert {hash_h, hash_H, xor, concat}.isdisjoint(
        {primitives.h_digest, primitives.H_digest, primitives.xor_bytes})
    assert adversary.hash_h is hash_h


@pytest.mark.parametrize("width", range(8, 257, 8))
def test_adapters_return_exact_bytes_of_the_width(width):
    n = width // 8
    a, b = bytes(range(n)), bytearray(range(255, 255 - n, -1))
    e = FieldElement(5, 101)
    results = [hash_h(b"payload", width), hash_h(bytearray(b"payload"), width),
               hash_H(e, e, e, width), xor(a, b), xor(b, a), concat([a]), concat([b])]
    assert [type(result) for result in results] == [bytes] * len(results)
    assert [len(result) for result in results] == [n] * len(results)
    assert concat([b"id", a, e, Timestamp(3)]) == b"id" + a + e.to_bytes() + Timestamp(3).to_bytes()


def test_cli_commands_and_offline_guess_build_no_bitstring(tmp_path, bitstrings_built):
    words = tmp_path / "words.txt"
    words.write_text("hunter2\nsunrise77\n", encoding="utf-8")
    for argv in (["honest-run"], ["guess-attack", "--dict", str(words)], ["wrong-login-demo"], ["dos-demo"]):
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0, argv
    fx = make_fixture(90)
    session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
    report = offline_guess(ExtractedCard.from_card(fx.card), session.events[0].message,
                           Dictionary((b"decoy", fx.password)))
    assert report.recovered == fx.password and report.counts == OpCounts(6, 4, 0)
    assert bitstrings_built == []
    BitString(b"x")  # the counter itself works
    assert len(bitstrings_built) == 1
