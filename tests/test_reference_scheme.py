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
from chebauth.protocol import (
    Reject,
    change_password,
    server_handle_login,
    user_handle_response,
    user_login_start,
)

from helpers import card_fields, m1_fields, m2_fields, make_fixture

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


def package_run(seed, width, prime, login_password, delay_m1, delay_m2, change) -> list:
    fx = make_fixture(seed, width, prime, DELTA_T, IDENTITY, PASSWORD)
    server, rng, clock, card = fx.server, fx.rng, fx.clock, fx.card
    trace = [("card", card_fields(card))]
    if change is not None:
        card = change_password(card, *change)
        trace.append(("changed", card_fields(card)))
    m1, ctx = user_login_start(card, login_password, clock, rng, server.params)
    trace += [("m1", m1_fields(m1)), ("ctx", (ctx.u, ctx.tuk.value))]
    clock.advance(delay_m1)
    result = server_handle_login(server, m1, clock, rng)
    if isinstance(result, Reject):
        return trace + [("server reject", result.reason.value)]
    m2, server_key = result
    trace += [("m2", m2_fields(m2)), ("server", server_key)]
    clock.advance(delay_m2)
    result = user_handle_response(ctx, m2, clock)
    if isinstance(result, Reject):
        return trace + [("user reject", result.reason.value)]
    key, refreshed = result
    return trace + [("user", (key, card_fields(refreshed)))]


def reference_run(seed, width, prime, login_password, delay_m1, delay_m2, change) -> list:
    n = width // 8
    mk = ref.draw(random.Random(seed), n)  # the server's first draw is its master key
    rng = random.Random(seed + 1)
    card = ref.register(mk, IDENTITY, PASSWORD, rng)
    trace = [("card", card)]
    if change is not None:
        card = ref.change(card, *change)
        trace.append(("changed", card))
    m1, ctx, reply, verdict = ref.login(mk, card, login_password, rng, 0, delay_m1, delay_m2, DELTA_T, prime)
    trace += [("m1", m1), ("ctx", ctx)]
    if isinstance(reply, str):
        return trace + [("server reject", reply)]
    trace += [("m2", reply[0]), ("server", reply[1])]
    return trace + [("user reject" if isinstance(verdict, str) else "user", verdict)]


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
