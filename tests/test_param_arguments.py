"""No protocol function takes the prime, the width or the window on its own.

Card and server share one Params, which checks all three when it is built.
A public function of chebauth.protocol that took a parameter named
``prime``, ``width`` or ``delta_t`` would compute with a value that never
went through that check, as the card-side calls once did with ``prime=9``
or ``delta_t=-1``. Only server_setup and user_login_start take ``params``:
the login context carries it to the M2 check, where a second Params could
disagree with the one the login started with.
"""

import ast
from pathlib import Path

PROTOCOL = Path(__file__).resolve().parent.parent / "src" / "chebauth" / "protocol.py"
CHECKED_BY_PARAMS = ("prime", "width", "delta_t")
TAKE_PARAMS = ["server_setup", "user_login_start"]


def parameters(source: str, names) -> list[str]:
    """Each parameter in names of a public module-level function, as "function(name)"."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            arguments = node.args
            for argument in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                             arguments.vararg, arguments.kwarg):
                if argument is not None and argument.arg in names:
                    found.append(f"{node.name}({argument.arg})")
    return found


def unchecked_parameters(source: str) -> list[str]:
    """Each parameter of a public module-level function named as a Params field."""
    return parameters(source, CHECKED_BY_PARAMS)


def params_takers(source: str) -> list[str]:
    """The public module-level functions with a parameter named params."""
    return [found.removesuffix("(params)") for found in parameters(source, ("params",))]


def test_no_public_protocol_function_takes_prime_width_or_delta_t():
    assert unchecked_parameters(PROTOCOL.read_text(encoding="utf-8")) == []


def test_only_server_setup_and_user_login_start_take_params():
    assert params_takers(PROTOCOL.read_text(encoding="utf-8")) == TAKE_PARAMS


def test_checker_finds_each_parameter():
    source = (
        "def server_setup(seed, width=256, prime=7, delta_t=5): pass\n"
        "def user_login_start(card, *, prime): pass\n"
        "def user_handle_response(card, delta_t, /, **width): pass\n"
        "def _private(prime): pass\n"
        "def fine(params, p, window): pass\n"
        "class Params:\n"
        "    def __init__(self, p, width, delta_t): pass\n"
    )
    assert unchecked_parameters(source) == [
        "server_setup(width)", "server_setup(prime)", "server_setup(delta_t)",
        "user_login_start(prime)", "user_handle_response(delta_t)", "user_handle_response(width)",
    ]


def test_params_checker_finds_each_taker():
    source = (
        "def server_setup(seed, params=None): pass\n"
        "def user_handle_response(ctx, m2, clock, *, params): pass\n"
        "def run(**params): pass\n"
        "def _private(params): pass\n"
        "def fine(ctx, parameters): pass\n"
        "class Params:\n"
        "    def replace(self, params): pass\n"
    )
    assert params_takers(source) == ["server_setup", "user_handle_response", "run"]
