"""Every refusal of the library, one row each, and the one contract every refusal keeps.

A row is a refused call on a fixture built for it, the exact type of the
exception and its message. Where CPython words the message (a missing
argument, say), the row pins the type alone. The rows of primitives._require's
refusals are read from the signatures: each parameter of a public function of
chebauth.protocol or chebauth.adversary annotated with a class of LOOK_ALIKES,
a state class, int or bool, is refused as None and as each look-alike of that
class, the other arguments being the fixture's attributes of their names, so a
new such parameter gets its rows with no table to extend. A refusal must leave
everything as it was: chebauth.protocol makes no hash, XOR or map call, no
candidate is evaluated, no random stream is seeded, the kernel's memo gains
no key, and the fixture's next draw and its clock, which still advances,
equal those of a replay of the fixture. The REFUSED table of
tests/test_cli.py is the CLI's counterpart.
"""

import inspect
import random
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from chebauth import adversary, chaotic, protocol
from chebauth.adversary import (Dictionary, ExperimentInvalid, dos_experiment, guess_predicate, offline_guess,
                                scan_target, wrong_login_experiment)
from chebauth.chaotic import DEFAULT_PRIME, FieldElement, cheb_eval
from chebauth.primitives import LogicalClock, RandomSource, Timestamp, WidthMismatch, as_bytes, xor_bytes
from chebauth.protocol import (EmptyCredential, LoginRequest, LoginResponse, Params, ServerState, SmartCard,
                               UserLoginContext, change_password, registration, run_login_session, server_setup,
                               user_login_start)

from helpers import intercepted_m1, leaf_calls, make_fixture, public_parameters


def ticked():
    """The seed-1 fixture with its clock at tick 7."""
    fx = make_fixture(1)
    fx.clock.advance(7)
    return fx


def mismatched(server_width, card_width):
    """A builder of a card of card_width bits beside the server of another fixture, at server_width."""
    primes = {8: 17, 64: DEFAULT_PRIME, 256: DEFAULT_PRIME}

    def build():
        fx = make_fixture(6, width=card_width, prime=primes[card_width])
        fx.server = make_fixture(5, width=server_width, prime=primes[server_width]).server
        return fx
    return build


def eavesdropped():
    """The seed-65 fixture with an argument of each parameter name the state rows fill, and a width-8 card and M1.

    That is its M1 and login context, their Params, u and T_u(K), its scan
    target, an M2, its dictionary and the passwords the attacks take.
    """
    fx = make_fixture(65)
    fx.m1, fx.ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
    fx.seed, fx.params, fx.u, fx.tuk = 65, fx.ctx.params, fx.ctx.u, fx.ctx.tuk
    fx.target = scan_target(fx.card, fx.m1)
    fx.m2 = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng).events[1].message
    fx.narrow_card, fx.narrow_m1 = intercepted_m1(make_fixture(65, width=8, prime=17))
    fx.dictionary = Dictionary((fx.password,))
    fx.old_password = fx.true_password = fx.password
    fx.new_password, fx.wrong_password, fx.wrong_old_password = b"new", b"oops", fx.password + b"-typo"
    return fx


def word_file(data: bytes):
    """A builder of the seed-1 fixture that first writes data to words.txt."""
    def build():
        Path("words.txt").write_bytes(data)
        return make_fixture(1)
    return build


def resized(m1, field: str, bits: int) -> LoginRequest:
    """m1 with one field a byte short or a byte too long, so bits wide."""
    fields = {name: getattr(m1, name) for name in m1.__match_args__}
    fields[field] = (fields[field] + bytes(1))[:bits // 8]
    return LoginRequest(**fields)


def row(name, call, error, message=None, build=partial(make_fixture, 1), cause=None):
    """call(fx), on the fixture build() returns, raises exactly error, with message unless it is None,
    chained from an exception of type cause unless that is None."""
    return pytest.param(build, call, error, message, cause, id=name)


class UncheckedParams(Params):
    """A Params subclass, so that a state check made with isinstance would take UNCHECKED."""

    __slots__ = ()


UNCHECKED = UncheckedParams.__new__(UncheckedParams)
UNCHECKED._fill(9, 64, -1)  # Params' checks skipped: a composite modulus and a window of -1
NOT_PRIME = "modulus must be a prime greater than 3"
DUPLICATES = "dictionary contains duplicate candidates"
TUK = FieldElement(1, DEFAULT_PRIME)
# Each class a parameter checked by primitives._require may be annotated with,
# and the look-alikes of it that the parameter must refuse besides None: a
# look-alike skips the checks of the class, and the phase would compute on it.
# The OpCounts | None counters are not checked and get no rows.
LOOK_ALIKES = {
    # SimpleNamespace(p=9) would send an M1 mod 9
    Params: {"namespace-p": SimpleNamespace(p=9), "namespace": SimpleNamespace(p=9, width=64, delta_t=-1),
             "int": 101, "tuple": (DEFAULT_PRIME, 256, 5), "subclass": UNCHECKED},
    # a 31-byte key issued a 248-bit card, and a window of -1 made an honest M1 stale
    ServerState: {"short-key": SimpleNamespace(mk=bytes(31), params=Params()), "namespace": SimpleNamespace(
        mk=bytes(32), params=SimpleNamespace(p=DEFAULT_PRIME, width=256, delta_t=-1))},
    # an IM1 a byte short drew u, moved the clock and booked a malformed M1
    SmartCard: {"short-im1": SimpleNamespace(im1=bytes(31), im2=bytes(32), d1=bytes(32), d2=bytes(32)),
                "tuple": (bytes(32),) * 4},
    # a window of -1 made an honest M2 stale
    UserLoginContext: {"namespace": SimpleNamespace(card=SmartCard(*[bytes(32)] * 4), u=5, tuk=TUK,
                                                    params=SimpleNamespace(p=DEFAULT_PRIME, delta_t=-1))},
    # None and these raised AttributeError: user_login_start's clock after it drew u
    # and evaluated the map, the server's rng after it checked X1
    LogicalClock: {"Timestamp": Timestamp(7)},
    RandomSource: {"random.Random": random.Random(1)},
    Dictionary: {"list": [b"alpha"]},
    # no candidate verifies against an M2
    LoginRequest: {"m2": LoginResponse(bytes(32), bytes(32), bytes(32), TUK, Timestamp(7))},
    # random.Random seeds None from OS entropy and 1.0 and True as 1, and 2 * True is a 1-tick delay's int
    int: {"true": True, "false": False, "float": 1.0},
    # by their truth value, "no" and 1 ran dos_experiment's control, None its attack
    bool: {"1": 1, "no": "no"},
}
# a delivered message is Reject(MALFORMED), not a TypeError: tests/test_protocol_properties.py
DELIVERED = {("server_handle_login", "m1")}
STATE_PARAMETERS = [(function, parameter.name) for function, parameter in public_parameters(protocol, adversary)
                    if parameter.annotation in LOOK_ALIKES and (function.__name__, parameter.name) not in DELIVERED]


def state_rows(function, parameter: str):
    """A row for None and for each look-alike of parameter's annotated class, passed to function as parameter.

    The other arguments without a default are the eavesdropped fixture's
    attributes of their names; those with one keep it.
    """
    signature = inspect.signature(function, eval_str=True).parameters
    cls = signature[parameter].annotation
    passed = [name for name, p in signature.items() if name == parameter or p.default is p.empty]
    article = "an" if cls is int else "a"
    for name, bad in {"None": None, **LOOK_ALIKES[cls]}.items():
        yield row(f"{function.__name__}-{parameter}-{name}",
                  lambda fx, bad=bad: function(**{arg: bad if arg == parameter else getattr(fx, arg) for arg in passed}),
                  TypeError, f"{parameter} must be {article} {cls.__name__}, got {type(bad).__name__}", eavesdropped)


# random.Random seeds None from OS entropy, 7.0 and True as ints and -7 as 7: none would
# replay; server_setup's TypeError rows are derived from its signature
SEEDS = {"None": (None, TypeError, "seed must be an int, got NoneType"),
         "float": (7.0, TypeError, "seed must be an int, got float"),
         "bool": (True, TypeError, "seed must be an int, got bool"),
         "negative": (-7, ValueError, "seed must be non-negative, got -7")}
# 3 is prime but too small; test_chaotic.py's test_composite_rejected_by_a_witness
# holds the composites that pass trial division
NOT_MODULI = {"9": 9, "3": 3, "2^256-1": 2**256 - 1}
# a step to a time Timestamp refuses fails in after or advance, not at the next now()
STEPS = {"float": (1.5, TypeError, "ticks must be an int, got float"),
         "true": (True, TypeError, "ticks must be an int, got bool"),
         "false": (False, TypeError, "ticks must be an int, got bool"),
         "negative": (-1, ValueError, "clock cannot move backwards"),
         "past-2^64": (1 << 64, ValueError, "ticks must be in [0, 2**64), got 18446744073709551623"),
         "to-2^64": ((1 << 64) - 7, ValueError, "ticks must be in [0, 2**64), got 18446744073709551616")}
# a delay's TypeError rows are derived from the signatures
DELAYS = {"negative": (-1, ValueError, "channel_delay -1 refused by the clock: clock cannot move backwards"),
          "past-the-last-tick": (1 << 63, ValueError, "channel_delay 9223372036854775808 refused by the clock:"
                                                      " ticks must be in [0, 2**64), got 18446744073709551616")}


def load(fx):
    return Dictionary.from_file("words.txt")


def dos(fx, at=None, bad=None, correct_old=False, channel_delay=1):
    """dos_experiment on the fixture, its true, wrong old and new password with the one at index at replaced by bad."""
    passwords = [fx.password, fx.password + b"-typo", b"fresh-pw"]
    if at is not None:
        passwords[at] = bad
    return dos_experiment(fx.card, *passwords, fx.server, fx.clock, fx.rng, channel_delay, correct_old)


def not_bytes(name, value):
    """as_bytes' refusal of value as the argument name, chained from CPython's memoryview TypeError."""
    return dict(message=f"{name} must be str or bytes-like, got {type(value).__name__}", cause=TypeError)


REFUSED = [
    # the server's set-up, state and Params
    *(row(f"server_setup-seed-{name}", lambda fx, seed=seed: server_setup(seed), error, message)
      for name, (seed, error, message) in SEEDS.items() if error is ValueError),
    # 40 bytes failed registration's XOR after b and r were drawn; 8 ran the scheme at 64 bits
    *(row(f"ServerState-{bits}-bit-key", lambda fx, bits=bits: ServerState(bytes(bits // 8), Params()),
          ValueError, f"master key of {bits} bits, but Params set width 256") for bits in (320, 64)),
    *(row(f"ServerState-{name}", lambda fx, mk=mk, params=params: ServerState(mk, params),
          TypeError, f"server state takes bytes and a Params: {names}") for name, mk, params, names in (
        ("str", "x", Params(width=8), "['str', 'Params']"),
        ("bytearray", bytearray(32), Params(), "['bytearray', 'Params']"),
        ("namespace", bytes(32), SimpleNamespace(p=9, width=256, delta_t=-1), "['bytes', 'SimpleNamespace']"),
        ("None", bytes(32), None, "['bytes', 'NoneType']"))),
    *(row(f"Params-p-{name}", lambda fx, p=p: Params(p), ValueError, NOT_PRIME) for name, p in NOT_MODULI.items()),
    row("Params-negative-window", lambda fx: Params(delta_t=-1), ValueError, "freshness window must be non-negative"),
    *(row(f"Params-width-{width}", lambda fx, width=width: Params(width=width),
          ValueError, f"width must be a multiple of 8 in [8, 256], got {width}") for width in (0, 12, 264)),
    *(row(f"Params-{name}", lambda fx, fields=fields: Params(**fields),
          TypeError, f"Params fields must be ints: {names}") for name, fields, names in (
        ("width-float", dict(width=256.0), "['int', 'float', 'int']"),
        ("delta_t-float", dict(delta_t=2.5), "['int', 'int', 'float']"),
        ("delta_t-bool", dict(delta_t=True), "['int', 'int', 'bool']"),
        ("p-float", dict(p=101.0), "['float', 'int', 'int']"))),
    # the parties' state, refused before anything is read from it
    *(state_row for function, parameter in STATE_PARAMETERS for state_row in state_rows(function, parameter)),
    *(state_row for parameter in ("card", "params") for state_row in state_rows(UserLoginContext, parameter)),
    # a str T_u(K) was evaluated at M2 before an AttributeError, one mod 17 at
    # p256 ran the whole M2 check to AUTH_FAILURE, and u=True met cheb_eval's refusal
    row("UserLoginContext-u-bool", lambda fx: UserLoginContext(fx.card, fx.params, True, fx.tuk),
        TypeError, "u must be an int, got bool", eavesdropped),
    row("UserLoginContext-tuk-str", lambda fx: UserLoginContext(fx.card, fx.params, fx.u, "tuk"),
        TypeError, "tuk must be a FieldElement, got str", eavesdropped),
    row("UserLoginContext-tuk-mod-17", lambda fx: UserLoginContext(fx.card, fx.params, fx.u, FieldElement(1, 17)),
        ValueError, "tuk mod 17, but Params set another prime", eavesdropped),
    # credentials: bytes(3) would be three zero bytes, a password nobody typed
    *(row(f"registration-empty-{name}", lambda fx, pair=pair: registration(fx.server, *pair, fx.rng),
          EmptyCredential, "identity and password must be non-empty")
      for name, pair in (("identity", (b"", b"pw")), ("password", (b"id", b"")))),
    row("registration-int-identity", lambda fx: registration(fx.server, 7, b"pw", fx.rng), TypeError,
        **not_bytes("identity", 7)),
    row("registration-int-password", lambda fx: registration(fx.server, b"id", 3, fx.rng), TypeError,
        **not_bytes("password", 3)),
    row("user_login_start-no-params", lambda fx: user_login_start(fx.card, fx.password, fx.clock, fx.rng),
        TypeError),
    row("user_login_start-int-password",
        lambda fx: user_login_start(fx.card, 3, fx.clock, fx.rng, fx.server.params), TypeError,
        **not_bytes("password", 3)),
    row("change_password-int-old", lambda fx: change_password(fx.card, 3, b"new"), TypeError,
        **not_bytes("old_password", 3)),
    row("change_password-list-new", lambda fx: change_password(fx.card, fx.password, [110, 101, 119]), TypeError,
        **not_bytes("new_password", [])),
    # the login's card width and channel delay
    # a 1-byte card at a 256-bit server drew u, evaluated the map and moved
    # the clock before the server rejected M1; the width alone decides
    *(row(f"run_login_session-{card}-bit-card-at-{server}",
          lambda fx: run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng),
          ValueError, f"card of {card} bits, but Params set width {server}", mismatched(server, card))
      for server, card in ((256, 8), (8, 256), (256, 64), (64, 256))),
    *(row(f"run_login_session-delay-{name}",
          lambda fx, delay=delay: run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng, delay),
          error, message) for name, (delay, error, message) in DELAYS.items()),
    row("wrong_login_experiment-negative-delay",
        lambda fx: wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng, channel_delay=-1),
        ValueError, DELAYS["negative"][2]),
    # a non-text new password was refused only by the change, after the baseline
    # login; with correct_old a wrong old one only by the third probe, as password
    *(row(f"dos_experiment-{name}{'-correct_old' * correct_old}",
          lambda fx, args=(at, bad, correct_old): dos(fx, *args), TypeError, **not_bytes(name, bad))
      for at, (name, bad) in enumerate((("true_password", [112]), ("wrong_old_password", 3.5), ("new_password", 3)))
      for correct_old in (False, True)),
    row("dos_experiment-equal-passwords", lambda fx: dos(fx, 1, fx.password.decode()),
        ExperimentInvalid, "wrong_old_password equals the true password"),
    row("dos_experiment-negative-delay", lambda fx: dos(fx, channel_delay=-1), ValueError, DELAYS["negative"][2]),
    # the card's fields: a 33-byte card drew u at login, then failed its first XOR
    *(row(f"SmartCard-{type(bad).__name__}-field-{i}",
          lambda fx, fields=(bytes(4),) * i + (bad,) + (bytes(4),) * (3 - i): SmartCard(*fields),
          TypeError, f"card fields must be bytes: {['bytes'] * i + [type(bad).__name__] + ['bytes'] * (3 - i)}")
      for bad in (bytearray(4), "abcd") for i in range(4)),
    row("SmartCard-empty", lambda fx: SmartCard(*[b""] * 4), ValueError, "card fields may not be empty: [0]"),
    row("SmartCard-one-empty", lambda fx: SmartCard(bytes(4), bytes(4), b"", bytes(4)),
        ValueError, "card fields may not be empty: [0, 32]"),
    row("SmartCard-unequal", lambda fx: SmartCard(bytes(4), bytes(4), bytes(4), bytes(5)),
        ValueError, "card fields disagree on width: [32, 40]"),
    row("SmartCard-three-widths", lambda fx: SmartCard(bytes(32), bytes(8), bytes(32), bytes(2)),
        ValueError, "card fields disagree on width: [16, 64, 256]"),
    row("SmartCard-wider-than-h", lambda fx: SmartCard(*[bytes(33)] * 4),
        ValueError, "width must be a multiple of 8 in [8, 256], got 264"),
    # primitives
    row("xor_bytes-widths", lambda fx: xor_bytes(bytes(1), bytes(8)), WidthMismatch, "cannot XOR widths 8 and 64"),
    *(row(f"RandomSource-seed-{name}", lambda fx, seed=seed: RandomSource(seed), error, message)
      for name, (seed, error, message) in SEEDS.items()),
    row("Timestamp-negative", lambda fx: Timestamp(-1), ValueError, "ticks must be in [0, 2**64), got -1"),
    row("Timestamp-2^64", lambda fx: Timestamp(1 << 64),
        ValueError, "ticks must be in [0, 2**64), got 18446744073709551616"),
    row("Timestamp-float", lambda fx: Timestamp(1.0), TypeError, "ticks must be an int, got float"),  # no to_bytes
    *(row(f"clock-{move}-{name}", lambda fx, move=move, step=step: getattr(fx.clock, move)(step),
          error, message, ticked) for move in ("after", "advance") for name, (step, error, message) in STEPS.items()),
    # bytes(3) is three zero bytes and bytes([97, 98]) is b"ab"; neither is text
    *(row(f"as_bytes-{name}", lambda fx, value=value: as_bytes(value, "data"), TypeError, **not_bytes("data", value))
      for name, value in (("3", 3), ("0", 0), ("list", [97, 98]), ("None", None), ("float", 2.5))),
    # the field and the kernel
    row("FieldElement-negative", lambda fx: FieldElement(-1, 17), ValueError, "value out of range [0, p)"),
    row("FieldElement-p", lambda fx: FieldElement(17, 17), ValueError, "value out of range [0, p)"),
    # the V-form kernel halves mod p, so 2 must be invertible
    *(row(f"FieldElement-mod-{name}", lambda fx, p=p: FieldElement(0, p), ValueError, NOT_PRIME)
      for name, p in (("0", 0), ("1", 1), ("2", 2), ("3", 3), ("4", 4), ("18", 18), ("2^256", 1 << 256))),
    *(row(f"FieldElement-{name}", lambda fx, value=value, p=p: FieldElement(value, p),
          TypeError, f"FieldElement fields must be ints: {names}") for name, value, p, names in (
        ("float", 1.5, 101, "['float', 'int']"), ("float-p", 5, 101.0, "['int', 'float']"),
        ("bool", True, 101, "['bool', 'int']"))),
    row("cheb_eval-negative-exponent", lambda fx: cheb_eval(-1, FieldElement(5, 17)),
        ValueError, "exponent must be non-negative"),
    # True evaluated as T_1 and False as T_0; an int base failed on its missing .p
    *(row(f"cheb_eval-{name}", lambda fx, n=n, x=x: cheb_eval(n, x),
          TypeError, f"cheb_eval takes an int and a FieldElement: {names}") for name, n, x, names in (
        ("true", True, FieldElement(5, 101), "['bool', 'FieldElement']"),
        ("false", False, FieldElement(5, 101), "['bool', 'FieldElement']"),
        ("float", 3.0, FieldElement(5, 101), "['float', 'FieldElement']"),
        ("str", "3", FieldElement(5, 101), "['str', 'FieldElement']"),
        ("int-base", 3, 5, "['int', 'int']"),
        ("tuple-base", 3, (5, 101), "['int', 'tuple']"))),
    # the attacker's scan: a pair no candidate can verify is refused before any guess
    *(row(f"guess_predicate-{name}", lambda fx, candidate=candidate: guess_predicate(candidate, fx.target),
          TypeError, build=eavesdropped, **not_bytes("candidate", candidate))
      for name, candidate in (("int", 3), ("list", [112, 119]))),
    row("offline_guess-narrow-card", lambda fx: offline_guess(fx.narrow_card, fx.m1, fx.dictionary),
        ValueError, "M1 field of 256 bits, but the card set width 8", eavesdropped),
    row("offline_guess-narrow-m1", lambda fx: offline_guess(fx.card, fx.narrow_m1, fx.dictionary),
        ValueError, "M1 field of 8 bits, but the card set width 256", eavesdropped),
    *(row(f"offline_guess-{field}-{bits}",
          lambda fx, field=field, bits=bits: offline_guess(fx.card, resized(fx.m1, field, bits), fx.dictionary),
          ValueError, f"M1 field of {bits} bits, but the card set width 256", eavesdropped)
      for field, bits in product(("im1", "im2", "x1"), (248, 264))),
    # word lists: a blank line is named even where the file also repeats a line;
    # behind a byte-order mark the first candidate would never match
    *(row(f"from_file-blank-{i}", load, ValueError, "words.txt: blank lines are not allowed", word_file(data))
      for i, data in enumerate((b"alpha\n\nbeta\n", b"alpha\n\nalpha\n", b"alpha\nalpha\n\n", b"\nbeta\nbeta"))),
    row("from_file-crlf", load, ValueError, "words.txt: CR characters found; lines must be LF-terminated",
        word_file(b"alpha\r\nbeta\n")),
    row("from_file-not-utf-8", load, ValueError, "words.txt: not UTF-8 at byte 14",
        word_file(b"alpha\nbeta\ngam\xffma\n"), UnicodeDecodeError),
    row("from_file-bom", load, ValueError, "words.txt: starts with a UTF-8 byte-order mark; remove it",
        word_file(b"\xef\xbb\xbfsunrise77\n")),
    row("from_file-duplicates", load, ValueError, DUPLICATES, word_file(b"alpha\nbeta\nalpha\n")),
    # open would read an int as a file descriptor, and close it
    row("from_file-int", lambda fx: Dictionary.from_file(999_999), TypeError),
    row("Dictionary-duplicates", lambda fx: Dictionary((b"a", b"b", b"a")), ValueError, DUPLICATES),
    row("Dictionary-int", lambda fx: Dictionary(("a", 5)), TypeError, **not_bytes("candidate", 5)),
    row("Dictionary-None", lambda fx: Dictionary((b"a", None)), TypeError, **not_bytes("candidate", None)),
    # only a tuple or a list: "abc" built three one-character candidates, b"ab"
    # was refused for its first byte, an int, and a set's order, and so the
    # scan's, would follow PYTHONHASHSEED; a dict and a generator were taken
    *(row(f"Dictionary-{name}", lambda fx, words=words: Dictionary(words), TypeError,
          f"candidates must be a tuple or list of passwords, got {type(words).__name__}")
      for name, words in (("str", "abc"), ("bytes", b"ab"), ("set", {b"alpha", b"beta"}),
                          ("frozenset", frozenset((b"alpha", b"beta"))), ("dict", dict.fromkeys((b"alpha", b"beta"))),
                          ("generator", (word for word in (b"alpha", b"beta"))))),
]


def test_state_parameters_are_read_from_the_signatures():
    assert [f"{function.__name__}({parameter})" for function, parameter in STATE_PARAMETERS] == [
        "server_setup(seed)", "server_setup(params)", "registration(server)", "registration(rng)",
        "user_login_start(card)", "user_login_start(clock)", "user_login_start(rng)", "user_login_start(params)",
        "server_handle_login(server)", "server_handle_login(clock)", "server_handle_login(rng)",
        "user_handle_response(ctx)", "user_handle_response(clock)", "change_password(card)",
        "run_login_session(server)", "run_login_session(card)", "run_login_session(clock)", "run_login_session(rng)",
        "run_login_session(channel_delay)", "scan_target(card)", "scan_target(m1)", "offline_guess(card)",
        "offline_guess(m1)", "offline_guess(dictionary)", "wrong_login_experiment(card)",
        "wrong_login_experiment(server)", "wrong_login_experiment(clock)", "wrong_login_experiment(rng)",
        "wrong_login_experiment(channel_delay)", "dos_experiment(card)", "dos_experiment(server)",
        "dos_experiment(clock)", "dos_experiment(rng)", "dos_experiment(channel_delay)", "dos_experiment(correct_old)"]


@pytest.mark.parametrize("build, call, error, message, cause", REFUSED)
def test_refusal_computes_draws_and_moves_nothing(tmp_path, monkeypatch, build, call, error, message, cause):
    monkeypatch.chdir(tmp_path)  # a word list's path is echoed as given
    fx, replay = build(), build()
    memo = set(chaotic._tables)
    monkeypatch.setattr(adversary, "guess_predicate", lambda *args: pytest.fail("a candidate was evaluated"))
    monkeypatch.setattr(random, "Random", lambda *args: pytest.fail("a random stream was seeded"))
    calls = Counter()
    with leaf_calls(calls), pytest.raises(error) as refused:
        call(fx)
    assert type(refused.value) is error
    assert message is None or str(refused.value) == message
    assert cause is None or type(refused.value.__cause__) is cause
    assert calls == Counter()
    assert set(chaotic._tables) == memo
    assert fx.rng.draw_exponent() == replay.rng.draw_exponent()
    assert fx.clock.advance(1) == replay.clock.advance(1)
