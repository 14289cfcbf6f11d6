"""Shared test fixtures and the independent evaluation oracle."""

from types import SimpleNamespace

from chebauth.chaotic import DEFAULT_PRIME
from chebauth.primitives import DEFAULT_WIDTH, LogicalClock, RandomSource, as_bytes, concat, hash_h, xor
from chebauth.protocol import DEFAULT_DELTA_T, registration, server_setup


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


def guess_predicate_oracle(candidate, card, m1, counts=None) -> bool:
    """Reference oracle for the offline-guess predicate, on the counted primitives.

    The scheme's formula written with BitString values, hash_h, xor and
    concat; the production predicate works on bytes and ints and must agree
    with it, op counts included.
    """
    cand = as_bytes(candidate)
    w = card.width
    b_guess = xor(card.d2, hash_h(cand, w, counts), counts)
    k_guess = xor(card.d1, hash_h(concat([cand, b_guess]), w, counts), counts)
    check = hash_h(concat([k_guess, m1.im1, m1.im2, m1.tuk, m1.t1]), w, counts)
    return check == m1.x1


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
    server = server_setup(seed, width=width, prime=prime, delta_t=delta_t)
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
