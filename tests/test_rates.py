"""Failure rates of the three weaknesses at a toy width, against their predictions.

At width w every hash is truncated to w bits, so a wrong password passes a
check by collision with probability 2^-w per check. The predictions below
follow from the scheme's algebra, and each test's bounds are set from them
(mean +- 4 standard deviations of the binomial count), not from the data.

* Password-change denial of service. After a change with a wrong old
  password, a probe logs in only when the k it derives equals K on w bits
  (the other path needs an X1 and a Y3 collision, about 2^-2w, and is
  neglected). Three probes, so a run fails to confirm the denial of
  service with probability 1 - (1 - 2^-w)^3.
* Offline guessing. A decoy verifies when its derived k equals K or, if
  not, when its X1 collides with M1's: probability 1 - (1 - 2^-w)^2.
* Wasted wrong-password login. The server accepts a wrong password on the
  same two paths, so with the same probability, and wrong_login_experiment
  then has no rejected round to report.

One test per weakness pins its count exactly, verdict by verdict against
an independent replay with the same draws and ticks, and checks that the
pinned count lies inside its bounds: on the 6000 fixtures, 81
denial-of-service runs fail to confirm and 47 wrong passwords pass X1, each
set holding TYPO_DERIVES_K, the 22 seeds whose typo derives K itself, which
one test pins from the registrations of tests/reference_scheme.py; of the
20 x 2560 decoys, 444 match and 226 of them derive K
(tests/helpers.guess_predicate_oracle).
"""

import math
import random

import reference_scheme as ref
from chebauth.adversary import ExperimentInvalid, dos_experiment, guess_predicate, scan_target, wrong_login_experiment
from chebauth.protocol import DEFAULT_DELTA_T, user_login_start

from helpers import credentials, guess_predicate_oracle, make_fixture

WIDTH, PRIME = 8, 101
DOS_RUNS = WRONG_LOGIN_RUNS = 6000
VICTIMS, DECOYS = 20, 2560
#: Seeds whose fixture's typo, password + b"-typo", derives the key K from the registered card.
TYPO_DERIVES_K = frozenset({391, 412, 1025, 1174, 1489, 1528, 1552, 1563, 1649, 1800, 1871,
                            2080, 2440, 2719, 3217, 3241, 3459, 3545, 3749, 5144, 5289, 5339})


def dos_miss_rate(width: int) -> float:
    """Probability that a wrong-old-password change leaves a probe accepted."""
    return 1 - (1 - 2.0**-width) ** 3


def false_match_rate(width: int) -> float:
    """Probability that one wrong password passes X1: a decoy in the scan, a typo at login."""
    return 1 - (1 - 2.0**-width) ** 2


def four_sigma_bounds(trials: int, p: float) -> tuple[int, int]:
    """Mean -+ 4 sigma of a Binomial(trials, p) count, each rounded to the nearest count."""
    mean, sigma = trials * p, math.sqrt(trials * p * (1 - p))
    return round(mean - 4 * sigma), round(mean + 4 * sigma)


def reference_registration(seed: int) -> tuple:
    """(identity, password, mk, card, rng) of the seed's width-8 fixture, registered through the reference.

    The rng stands at the draw after the card's, as the fixture's does.
    """
    identity, password = credentials(seed)
    mk, rng = ref.draw(random.Random(seed), WIDTH // 8), random.Random(seed + 1)
    return identity, password, mk, ref.register(mk, identity, password, rng), rng


def test_typo_derives_k_on_exactly_the_pinned_seeds():
    # a login leaves D1 and D2 as registration built them, so the registered
    # card answers for every card either rate test's runs hold
    n, derives_k = WIDTH // 8, set()
    for seed in range(DOS_RUNS):
        identity, password, mk, (_, _, d1, d2), _ = reference_registration(seed)
        typo = password + b"-typo"
        if ref.xor(d1, ref.h(n, typo, ref.xor(d2, ref.h(n, typo)))) == ref.h(n, ref.h(n, identity), mk):
            derives_k.add(seed)
    assert derives_k == TYPO_DERIVES_K


def dos_runs() -> tuple:
    """dos_experiment's dos_confirmed on each width-8 fixture, seeds 0 to 5999."""
    verdicts = []
    for seed in range(DOS_RUNS):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        report = dos_experiment(
            fx.card, fx.password, fx.password + b"-typo", fx.password + b"-new",
            fx.server, fx.clock, fx.rng,
        )
        verdicts.append(report.dos_confirmed)
    return tuple(verdicts)


def reference_dos(seed: int) -> bool:
    """Whether every probe was rejected in dos_experiment's run on one fixture, replayed through the reference.

    The replay takes the same draws and ticks as the run.
    """
    _, password, mk, card, rng = reference_registration(seed)
    wrong, new = password + b"-typo", password + b"-new"
    *_, result = ref.login(mk, card, password, rng, 0, 1, 1, DEFAULT_DELTA_T, PRIME)
    assert not isinstance(result, str)  # the baseline login is accepted
    _, card = result
    card = ref.change(card, wrong, new)
    probes, now = [], 2
    for typed in (new, password, wrong):  # each leg one tick; no M2 travels after a server reject
        *_, reply, result = ref.login(mk, card, typed, rng, now, 1, 1, DEFAULT_DELTA_T, PRIME)
        probes.append(not isinstance(result, str))
        if probes[-1]:
            _, card = result
        now += 1 if isinstance(reply, str) else 2
    return not any(probes)


def test_dos_fails_to_confirm_on_exactly_the_reference_seeds():
    bounds = four_sigma_bounds(DOS_RUNS, dos_miss_rate(WIDTH))
    assert bounds == (37, 103)
    unconfirmed = set()
    for seed, confirmed in enumerate(dos_runs()):
        assert confirmed == reference_dos(seed), seed
        if not confirmed:
            unconfirmed.add(seed)
    assert bounds[0] <= len(unconfirmed) == 81 <= bounds[1]
    # a wrong old password that derives K rewrites the card correctly: the new password works
    assert TYPO_DERIVES_K <= unconfirmed, TYPO_DERIVES_K - unconfirmed


def decoy_runs() -> tuple:
    """(card, K, M1, predicate verdicts on decoy-0 to decoy-2559) for each width-8 victim, seeds 0 to 19."""
    runs = []
    for seed in range(VICTIMS):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        card = fx.card
        m1, _ = user_login_start(card, fx.password, fx.clock, fx.rng, fx.server.params)
        target = scan_target(card, m1)
        assert guess_predicate(fx.password, target)
        key = ref.h(WIDTH // 8, ref.h(WIDTH // 8, fx.identity), fx.server.mk)
        runs.append((card, key, m1, tuple(guess_predicate(f"decoy-{i}", target) for i in range(DECOYS))))
    return tuple(runs)


def wrong_login_runs() -> tuple:
    """Whether the server accepted the typo in wrong_login_experiment on each width-8 fixture, seeds 0 to 5999."""
    verdicts = []
    for seed in range(WRONG_LOGIN_RUNS):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        try:
            wrong_login_experiment(fx.card, fx.password + b"-typo", fx.server, fx.clock, fx.rng)
            accepted = False
        except ExperimentInvalid as exc:
            assert str(exc).startswith("server accepted the login: "), exc
            accepted = True
        verdicts.append(accepted)
    return tuple(verdicts)


def reference_wrong_login(seed: int) -> bool:
    """Whether the server accepts the typo in wrong_login_experiment's round, replayed through the reference."""
    _, password, mk, card, rng = reference_registration(seed)
    _, _, reply, _ = ref.login(mk, card, password + b"-typo", rng, 0, 1, 1, DEFAULT_DELTA_T, PRIME)
    return not isinstance(reply, str)


def test_decoys_match_exactly_as_the_oracle_does():
    bounds = four_sigma_bounds(VICTIMS * DECOYS, false_match_rate(WIDTH))
    assert bounds == (320, 479)
    n, matches, keeps_k = WIDTH // 8, 0, 0
    for card, key, m1, verdicts in decoy_runs():
        for i, verdict in enumerate(verdicts):
            decoy = f"decoy-{i}".encode()
            assert verdict == guess_predicate_oracle(decoy, card, m1), decoy
            if verdict:
                matches += 1
                keeps_k += ref.xor(card.d1, ref.h(n, decoy, ref.xor(card.d2, ref.h(n, decoy)))) == key
    assert bounds[0] <= matches == 444 <= bounds[1] and keeps_k == 226, (matches, keeps_k)


def test_wrong_password_is_accepted_on_exactly_the_reference_seeds():
    bounds = four_sigma_bounds(WRONG_LOGIN_RUNS, false_match_rate(WIDTH))
    assert bounds == (20, 74)
    accepted = set()
    for seed, server_accepted in enumerate(wrong_login_runs()):
        assert server_accepted == reference_wrong_login(seed), seed
        if server_accepted:
            accepted.add(seed)
    assert bounds[0] <= len(accepted) == 47 <= bounds[1]
    # a typo that derives K builds the true X1: the server cannot tell it from the password
    assert TYPO_DERIVES_K <= accepted, TYPO_DERIVES_K - accepted
