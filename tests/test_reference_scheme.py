"""The package against the straight-line reference of the scheme, bit for bit.

Each case runs registration, an optional password change and one login in
both, from the same seeds, and compares every card, message, login context,
session key and reject reason along the way. The card's K is compared
through X1, which hashes it.
"""

import random

import pytest

import reference_scheme as ref
from chebauth.chaotic import DEFAULT_PRIME
from chebauth.primitives import LogicalClock, RandomSource
from chebauth.protocol import (
    Params,
    Reject,
    change_password,
    registration,
    server_handle_login,
    server_setup,
    user_handle_response,
    user_login_start,
)

DELTA_T = 3
IDENTITY = b"patient-0042"
PASSWORD = b"correct horse"
NEW_PASSWORD = b"battery staple"

# name -> (password typed at login, M1 delay, M2 delay, (old, new) of a change first)
SCENARIOS = {
    "honest": (PASSWORD, 1, 1, None),
    "wrong_password": (PASSWORD + b"-typo", 1, 1, None),
    "stale_m1": (PASSWORD, DELTA_T + 1, 1, None),
    "stale_m2": (PASSWORD, 1, DELTA_T + 1, None),
    "change_correct_old": (NEW_PASSWORD, 1, 1, (PASSWORD, NEW_PASSWORD)),
    "change_wrong_old": (NEW_PASSWORD, 1, 1, (b"not the old one", NEW_PASSWORD)),
}


def card_fields(card) -> tuple:
    return card.im1, card.im2, card.d1, card.d2


def package_run(seed, width, prime, login_password, delay_m1, delay_m2, change) -> list:
    server = server_setup(seed, Params(prime, width, DELTA_T))
    rng, clock = RandomSource(seed + 1), LogicalClock()
    card = registration(server, IDENTITY, PASSWORD, rng)
    trace = [("card", card_fields(card))]
    if change is not None:
        card = change_password(card, *change)
        trace.append(("changed", card_fields(card)))
    m1, ctx = user_login_start(card, login_password, clock, rng, server.params)
    trace.append(("m1", (m1.im1, m1.im2, m1.tuk.value, m1.x1, m1.t1.ticks)))
    trace.append(("ctx", (ctx.u, ctx.tuk.value)))
    clock.advance(delay_m1)
    result = server_handle_login(server, m1, clock, rng)
    if isinstance(result, Reject):
        return trace + [("server reject", result.reason.value)]
    m2, server_key = result
    trace.append(("m2", (m2.y1, m2.y2, m2.y3, m2.tvk.value, m2.t2.ticks)))
    trace.append(("server", server_key))
    clock.advance(delay_m2)
    result = user_handle_response(ctx, m2, clock)
    if isinstance(result, Reject):
        return trace + [("user reject", result.reason.value)]
    key, refreshed = result
    return trace + [("user", (key, card_fields(refreshed)))]


def reference_run(seed, width, prime, login_password, delay_m1, delay_m2, change) -> list:
    n = width // 8
    mk = ref.draw(random.Random(seed), n)  # the server's first draw is its master key
    rng, now = random.Random(seed + 1), 0
    card = ref.register(mk, IDENTITY, PASSWORD, rng)
    trace = [("card", card)]
    if change is not None:
        card = ref.change(card, *change)
        trace.append(("changed", card))
    m1, ctx = ref.login_start(card, login_password, rng, now, prime)
    trace += [("m1", m1), ("ctx", ctx)]
    now += delay_m1
    result = ref.server_respond(mk, prime, DELTA_T, m1, now, rng)
    if isinstance(result, str):
        return trace + [("server reject", result)]
    m2, server_key = result
    trace += [("m2", m2), ("server", server_key)]
    now += delay_m2
    result = ref.user_verify(card, ctx, m2, now, DELTA_T, prime)
    if isinstance(result, str):
        return trace + [("user reject", result)]
    return trace + [("user", result)]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("prime", [17, 101, DEFAULT_PRIME], ids=["p17", "p101", "p256"])
@pytest.mark.parametrize("width", [8, 64, 136, 256])
def test_package_matches_reference(width, prime, scenario, cold_memo):
    # each seed runs twice: K's table is absent in the first run and, where
    # X1 verified, read by both parties in the second
    for seed in (width + prime % 1000, 7 * width + 1):
        args = (seed, width, prime, *SCENARIOS[scenario])
        expected = reference_run(*args)
        cold_memo.clear()
        assert package_run(*args) == expected, (seed, "cold")
        assert package_run(*args) == expected, (seed, "warm")


def test_scenarios_end_where_the_scheme_says():
    # the reference itself must reproduce the scheme's outcomes at full width
    def outcome(scenario):
        return reference_run(5, 256, DEFAULT_PRIME, *SCENARIOS[scenario])[-1][0]

    assert outcome("honest") == outcome("change_correct_old") == "user"
    assert outcome("wrong_password") == outcome("change_wrong_old") == "server reject"
    assert outcome("stale_m1") == "server reject"
    assert outcome("stale_m2") == "user reject"
    assert ref.cheb(6, 3, 101) == (32 * 3**6 - 48 * 3**4 + 18 * 3**2 - 1) % 101
