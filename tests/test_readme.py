"""The README's Python examples run against the package as it is, and it names every CLI option."""

import argparse
import re
from pathlib import Path

from chebauth.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_names_every_cli_option():
    parser = build_parser()
    subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    options = {
        option
        for command in (parser, *subparsers.choices.values())
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert "--dict" in options and "--new-password" in options
    readme = README.read_text(encoding="utf-8")
    missing = sorted(option for option in options if not re.search(rf"(?<![\w-]){option}(?![\w-])", readme))
    assert missing == []
