"""Benchmark-side tracing of calls into chebauth's public functions.

A wrapper replaces a function under every name that refers to it in any
loaded ``chebauth`` module, because modules bind imported names at import
time: ``hash_h`` is looked up in ``chebauth.protocol`` and
``chebauth.adversary``, ``cheb_eval`` in ``chebauth.protocol``, and so on.
Each wrapped call is a span timed with ``perf_counter_ns``; its self time is
its duration minus the time its child spans cover. Spans are aggregated per
name in memory (calls, total ns, self ns), so tracing a scan of a few hundred
thousand candidates keeps no per-call records.
"""

import importlib
import sys
from time import perf_counter_ns

#: (span name, module, attribute) of every traced function.
FUNCTIONS = (
    ("chaotic.cheb_eval", "chebauth.chaotic", "cheb_eval"),
    ("primitives.hash_h", "chebauth.primitives", "hash_h"),
    ("primitives.hash_H", "chebauth.primitives", "hash_H"),
    ("primitives.xor", "chebauth.primitives", "xor"),
    ("primitives.concat", "chebauth.primitives", "concat"),
    ("protocol.server_setup", "chebauth.protocol", "server_setup"),
    ("protocol.registration", "chebauth.protocol", "registration"),
    ("protocol.user_login_start", "chebauth.protocol", "user_login_start"),
    ("protocol.server_handle_login", "chebauth.protocol", "server_handle_login"),
    ("protocol.user_handle_response", "chebauth.protocol", "user_handle_response"),
    ("protocol.change_password", "chebauth.protocol", "change_password"),
    ("protocol.run_login_session", "chebauth.protocol", "run_login_session"),
    ("adversary.guess_predicate", "chebauth.adversary", "guess_predicate"),
    ("adversary.offline_guess", "chebauth.adversary", "offline_guess"),
    ("adversary.wrong_login_experiment", "chebauth.adversary", "wrong_login_experiment"),
    ("adversary.dos_experiment", "chebauth.adversary", "dos_experiment"),
    ("cli.main", "chebauth.cli", "main"),
)

#: Span names of the classmethods and constructors traced on their class.
DICTIONARY_FROM_FILE = "adversary.Dictionary.from_file"
BITSTRING = "primitives.BitString"

#: Counter of M1 messages the server accepted (server_handle_login returned no Reject).
SERVER_ACCEPTED = "protocol.server_handle_login.accepted"


def chebauth_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    importlib.import_module("chebauth.cli")  # loads every module the spans live in
    return [m for name, m in sorted(sys.modules.items())
            if name == "chebauth" or name.startswith("chebauth.")]


class Tracer:
    """Installs span wrappers on enter and restores every replaced name on exit."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_ns, self_ns]
        self._children = []  # per open span: ns covered by its child spans
        self._replaced = []  # (owner, attribute, original)

    def _span(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attribute, value):
        self._replaced.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)  # put back what was replaced before the failure
            raise
        return self

    def _install(self):
        modules = chebauth_modules()
        from chebauth.adversary import Dictionary
        from chebauth.primitives import BitString
        from chebauth.protocol import Reject

        accepted = self.stats.setdefault(SERVER_ACCEPTED, [0, 0, 0])

        def count_accepted(result):
            if not isinstance(result, Reject):
                accepted[0] += 1

        for name, module_name, attribute in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            on_result = count_accepted if name == "protocol.server_handle_login" else None
            wrapper = self._span(name, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        from_file = Dictionary.__dict__["from_file"].__func__
        self._replace(Dictionary, "from_file", classmethod(self._span(DICTIONARY_FROM_FILE, from_file)))
        self._replace(BitString, "__post_init__", self._counter(BITSTRING, BitString.__post_init__))

    def __exit__(self, *exc_info):
        while self._replaced:
            owner, attribute, original = self._replaced.pop()
            setattr(owner, attribute, original)
        return False

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_ns(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def self_ns(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[2]
