"""Shared test fixtures, the naive evaluation oracle, a counter of the protocol's leaf calls and a signature reader."""

import inspect
import re
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from chebauth import protocol
from chebauth.chaotic import DEFAULT_PRIME, FieldElement
from chebauth.primitives import DEFAULT_WIDTH, LogicalClock, RandomSource, Timestamp
from chebauth.protocol import DEFAULT_DELTA_T, Params, SmartCard, registration, server_setup, user_login_start
from reference_scheme import field, h, tick, xor

#: The least strong pseudoprimes to every prime base up to 37 and up to 41
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981

#: The leaf calls of chebauth.protocol, by the kind of operation a tally counts them as.
LEAVES = {"h_digest": "hash", "H_digest": "hash", "xor_bytes": "xor", "cheb_eval": "cheb"}


def cheb_naive_sequence(limit: int, x: int, p: int) -> list:
    """All of T_0(x) .. T_limit(x) mod p from the literal O(n) linear recurrence.

    Kept deliberately naive and separate from the kernel and from
    reference_scheme.cheb, so that agreement between the routes means something.
    """
    values = [1 % p, x % p]
    for _ in range(limit - 1):
        values.append((2 * x * values[-1] - values[-2]) % p)
    return values[: limit + 1]


def counting(leaf, kind: str, calls: Counter):
    """leaf, adding one to calls[kind] at each call."""
    def counted(*args):
        calls[kind] += 1
        return leaf(*args)
    return counted


@contextmanager
def leaf_calls(calls: Counter):
    """Inside the block, each of chebauth.protocol's LEAVES adds one to calls[kind] when called."""
    with pytest.MonkeyPatch.context() as patch:
        for name, kind in LEAVES.items():
            patch.setattr(protocol, name, counting(getattr(protocol, name), kind, calls))
        yield


def public_parameters(*modules) -> list:
    """(function, inspect.Parameter) for each parameter of each public function that modules define, in order.

    A function a module imports is another module's, so __module__ skips it.
    Annotations are evaluated, so that they are classes also in a module that
    postpones them (``from __future__ import annotations``).
    """
    return [(function, parameter) for module in modules for name, function in vars(module).items()
            if inspect.isfunction(function) and function.__module__ == module.__name__ and not name.startswith("_")
            for parameter in inspect.signature(function, eval_str=True).parameters.values()]


def clock_at(ticks: int) -> LogicalClock:
    """A fresh clock advanced to the given tick."""
    clock = LogicalClock()
    clock.advance(ticks)
    return clock


def card_fields(card) -> tuple:
    """A card's (IM1, IM2, D1, D2), the tuple reference_scheme keeps as the card."""
    return card.im1, card.im2, card.d1, card.d2


def m1_fields(m1) -> tuple:
    """M1 as the tuple reference_scheme sends: (IM1, IM2, T_u(K), X1, T1)."""
    return m1.im1, m1.im2, m1.tuk.value, m1.x1, m1.t1.ticks


def m2_fields(m2) -> tuple:
    """M2 as the tuple reference_scheme sends: (Y1, Y2, Y3, T_v(K'), T2)."""
    return m2.y1, m2.y2, m2.y3, m2.tvk.value, m2.t2.ticks


def flipped(message, field: int, bit: int):
    """message with one bit of one field changed; a field element stays in its field."""
    fields = list(message._key)
    value = fields[field]
    if type(value) is bytes:
        fields[field] = bytes([value[0] ^ 1 << bit]) + value[1:]
    elif type(value) is FieldElement:
        fields[field] = FieldElement((value.value ^ 1 << bit) % value.p, value.p)
    else:
        fields[field] = Timestamp(value.ticks ^ 1 << bit)
    return type(message)(*fields)


def guess_predicate_oracle(candidate, card, m1) -> bool:
    """Reference oracle for the offline-guess predicate, on the reference scheme.

    The scheme's formula written with reference_scheme's h, xor and field
    encoding over the card's and M1's bytes fields, independent of
    chebauth.primitives; the production predicate works on bytes and ints
    and must agree with it.
    """
    cand = candidate.encode("utf-8") if isinstance(candidate, str) else bytes(candidate)
    n = len(card.d1)
    b_guess = xor(card.d2, h(n, cand))
    k_guess = xor(card.d1, h(n, cand, b_guess))
    tuk = field(m1.tuk.value, m1.tuk.p)
    return h(n, k_guess, m1.im1, m1.im2, tuk, tick(m1.t1.ticks)) == m1.x1


def zeroed_card(width: int) -> SmartCard:
    """All-zero stand-in for an extracted card, used to show the card leak is necessary."""
    return SmartCard(*[bytes(width // 8)] * 4)


def credentials(seed: int) -> tuple[bytes, bytes]:
    """The identity and password that make_fixture registers for seed unless given others."""
    return f"user-{seed}".encode(), f"pw-{seed}-secret".encode()


def make_fixture(
    seed: int,
    width: int = DEFAULT_WIDTH,
    prime: int = DEFAULT_PRIME,
    delta_t: int = DEFAULT_DELTA_T,
    identity: bytes | None = None,
    password: bytes | None = None,
) -> SimpleNamespace:
    """A registered user against a fresh server, fully determined by seed."""
    seed_identity, seed_password = credentials(seed)
    identity = identity if identity is not None else seed_identity
    password = password if password is not None else seed_password
    server = server_setup(seed, Params(prime, width, delta_t))
    rng = RandomSource(seed + 1)
    clock = LogicalClock()
    card = registration(server, identity, password, rng)
    return SimpleNamespace(
        server=server,
        rng=rng,
        clock=clock,
        card=card,
        identity=identity,
        password=password,
    )


def intercepted_m1(fx) -> tuple:
    """The card as extracted, and M1 eavesdropped from a login in that same state."""
    m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
    return fx.card, m1


def mask_wall_time(text: str) -> str:
    """A report's text as the CLI wrote it, with each wall_time_s number replaced by 0."""
    return re.sub(r'("wall_time_s": )[-+.0-9eE]+', r"\g<1>0", text)
