"""Shared test fixtures and the independent evaluation oracle."""

import re
from types import SimpleNamespace

from chebauth.adversary import ExtractedCard
from chebauth.chaotic import DEFAULT_PRIME
from chebauth.primitives import DEFAULT_WIDTH, LogicalClock, RandomSource
from chebauth.protocol import DEFAULT_DELTA_T, Params, registration, server_setup
from reference_scheme import field, h, tick, xor


def cheb_naive(n: int, x: int, p: int) -> int:
    """Reference oracle: the literal O(n) linear recurrence.

    Kept deliberately naive and separate from both production kernels so
    that agreement between the two routes means something.
    """
    if n == 0:
        return 1 % p
    prev, cur = 1 % p, x % p
    for _ in range(n - 1):
        prev, cur = cur, (2 * x * cur - prev) % p
    return cur


def cheb_naive_sequence(limit: int, x: int, p: int) -> list:
    """All of T_0(x) .. T_limit(x) mod p from one incremental recurrence pass."""
    values = [1 % p, x % p]
    for _ in range(limit - 1):
        values.append((2 * x * values[-1] - values[-2]) % p)
    return values[: limit + 1]


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


def zeroed_card(width: int) -> ExtractedCard:
    """All-zero stand-in for an extracted card, used to show the card leak is necessary."""
    z = bytes(width // 8)
    return ExtractedCard(im1=z, im2=z, d1=z, d2=z)


def make_fixture(
    seed: int,
    width: int = DEFAULT_WIDTH,
    prime: int = DEFAULT_PRIME,
    delta_t: int = DEFAULT_DELTA_T,
    identity: bytes | None = None,
    password: bytes | None = None,
) -> SimpleNamespace:
    """A registered user against a fresh server, fully determined by seed."""
    identity = identity if identity is not None else f"user-{seed}".encode()
    password = password if password is not None else f"pw-{seed}-secret".encode()
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


def strip_wall_time(node):
    """A parsed report without its wall_time_s keys: the part that is a pure function of the configuration."""
    if isinstance(node, dict):
        return {k: strip_wall_time(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [strip_wall_time(item) for item in node]
    return node


def mask_wall_time(text: str) -> str:
    """A report's text as the CLI wrote it, with each wall_time_s number replaced by 0."""
    return re.sub(r'("wall_time_s": )[-+.0-9eE]+', r"\g<1>0", text)
