"""The README's Python examples run against the package as it is, its CLI section names exactly the CLI's
options, and every test module and test it names exists."""

import argparse
import ast
import re
from pathlib import Path

from chebauth.cli import build_parser

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_options():
    """Every --option of build_parser() and its subcommands, --help aside."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {
        option
        for command in (parser, *subparsers.choices.values())
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_readme_names_every_cli_option():
    options = cli_options()
    assert "--dict" in options and "--new-password" in options
    readme = README.read_text(encoding="utf-8")
    missing = sorted(option for option in options if not re.search(rf"(?<![\w-]){option}(?![\w-])", readme))
    assert missing == []


def cli_section_options(readme):
    """Every --option named in the README's CLI section, up to its Library section."""
    section = readme[readme.index("\n## CLI\n"):readme.index("\n## Library\n")]
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))


def test_readme_cli_section_names_no_stale_option():
    named = cli_section_options(README.read_text(encoding="utf-8"))
    assert "--out" in named and "--correct-old-password" in named
    assert sorted(named - cli_options()) == []


def test_stale_option_check_catches_a_fixture_mention():
    readme = README.read_text(encoding="utf-8")
    stale = readme.replace("\n## Library\n", "\nCommon flags: `--fixture FILE`.\n\n## Library\n", 1)
    assert sorted(cli_section_options(stale) - cli_options()) == ["--fixture"]


def dangling_tests(readme: str) -> list[str]:
    """Each tests/<module>.py or tests/<module>.py::<class>::<test> that readme names and the tests lack."""
    missing = []
    for named in sorted(set(re.findall(r"tests/\w+\.py(?:::\w+)*", readme))):
        module, *path = named.split("::")
        file = TESTS.parent / module
        scope = ast.parse(file.read_text(encoding="utf-8")) if file.exists() else None
        for name in path:
            scope = next((node for node in getattr(scope, "body", ()) if getattr(node, "name", None) == name), None)
        if scope is None:
            missing.append(named)
    return missing


def test_readme_names_no_dangling_test():
    assert dangling_tests(README.read_text(encoding="utf-8")) == []


def test_dangling_test_check_catches_a_gone_module_and_test():
    named = ("`tests/test_refusals.py`, `tests/test_gone.py`, `tests/test_chaotic.py::test_gone`,"
             " `tests/test_chaotic.py::TestPrimality::test_composite_rejected_by_a_witness[psi12]`"
             " and `tests/test_chaotic.py::TestPrimality::test_gone`")
    assert dangling_tests(named) == ["tests/test_chaotic.py::TestPrimality::test_gone",
                                     "tests/test_chaotic.py::test_gone", "tests/test_gone.py"]
