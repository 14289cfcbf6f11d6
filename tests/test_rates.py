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
"""

import math

from chebauth.adversary import (ExperimentInvalid, ExtractedCard, dos_experiment, guess_predicate,
                                wrong_login_experiment)
from chebauth.protocol import user_login_start

from helpers import make_fixture

WIDTH, PRIME = 8, 101


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


def test_dos_fails_to_confirm_at_the_predicted_rate():
    runs = 6000
    bounds = four_sigma_bounds(runs, dos_miss_rate(WIDTH))
    assert bounds == (37, 103)
    misses = 0
    for seed in range(runs):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        report = dos_experiment(
            fx.card, fx.password, fx.password + b"-typo", fx.password + b"-new",
            fx.server, fx.clock, fx.rng,
        )
        misses += not report.dos_confirmed
    assert bounds[0] <= misses <= bounds[1], misses


def test_decoys_match_at_the_predicted_rate():
    victims, decoys = 20, 2560
    bounds = four_sigma_bounds(victims * decoys, false_match_rate(WIDTH))
    assert bounds == (320, 479)
    matches = 0
    for seed in range(victims):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        card = ExtractedCard.from_card(fx.card)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        assert guess_predicate(fx.password, card, m1)
        matches += sum(guess_predicate(f"decoy-{i}", card, m1) for i in range(decoys))
    assert bounds[0] <= matches <= bounds[1], matches


def test_wrong_password_is_accepted_at_the_predicted_rate():
    runs = 6000
    bounds = four_sigma_bounds(runs, false_match_rate(WIDTH))
    assert bounds == (20, 74)
    accepted = 0
    for seed in range(runs):
        fx = make_fixture(seed, width=WIDTH, prime=PRIME)
        try:
            wrong_login_experiment(fx.card, fx.password + b"-typo", fx.server, fx.clock, fx.rng)
        except ExperimentInvalid as exc:
            assert str(exc).startswith("server accepted the login: "), exc
            accepted += 1
    assert bounds[0] <= accepted <= bounds[1], accepted
