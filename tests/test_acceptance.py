"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every check is exact (bit equality / exact counts); run with -s to watch the
lines live. Each criterion also asserts its runtime budget.
"""

import random
import time

from chebauth import cli
from chebauth.adversary import (
    Dictionary,
    ExtractedCard,
    dos_experiment,
    guess_predicate,
    offline_guess,
    wrong_login_experiment,
)
from chebauth.chaotic import DEFAULT_PRIME, FieldElement, cheb_eval
from chebauth.protocol import registration, run_login_session, user_login_start

from helpers import cheb_naive_sequence, make_fixture, mask_wall_time, zeroed_card


def report_line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_key_agreement_100_seeded_runs():
    start = time.perf_counter()
    failures = []
    for seed in range(100):
        fx = make_fixture(seed)
        first = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        second = run_login_session(fx.server, first.card, fx.password, fx.clock, fx.rng)
        if not (first.ok and first.user_key == first.server_key):
            failures.append((seed, 1))
        if not (second.ok and second.user_key == second.server_key):
            failures.append((seed, 2))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report_line(
        "criterion 1: key agreement, 100 seeded runs, both sessions, exact",
        ok,
        f"failures={failures} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_semigroup_and_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(2024)
    bad = 0
    for p in (101, DEFAULT_PRIME):
        for _ in range(1000):
            u = rng.randrange(1, (1 << 20) + 1)
            v = rng.randrange(1, (1 << 20) + 1)
            x = FieldElement(rng.randrange(p), p)
            uv = cheb_eval(u * v, x)
            if cheb_eval(u, cheb_eval(v, x)) != uv or cheb_eval(v, cheb_eval(u, x)) != uv:
                bad += 1
    # independent route: the O(n) recurrence, all n <= 10^4 at 100 points
    for _ in range(100):
        x = rng.randrange(101)
        expected = cheb_naive_sequence(10_000, x, 101)
        element = FieldElement(x, 101)
        for n in range(10_001):
            if cheb_eval(n, element).value != expected[n]:
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    report_line(
        "criterion 2: semigroup (1000 triples x 2 primes) + naive-oracle agreement, exact",
        ok,
        f"mismatches={bad} elapsed={elapsed:.2f}s",
    )


def _attack_fixture(seed):
    fx = make_fixture(seed)
    extracted = ExtractedCard.from_card(fx.card)
    m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
    return fx, extracted, m1


def test_criterion_3_offline_guessing_exact_cost():
    start = time.perf_counter()
    fx, extracted, m1 = _attack_fixture(1234)
    decoys = [f"candidate-{i:05d}".encode() for i in range(9_999)]
    k = random.Random(77).randrange(1, 10_001)
    planted = decoys[:]
    planted.insert(k - 1, fx.password)
    hit = offline_guess(extracted, m1, Dictionary(tuple(planted)))
    miss = offline_guess(extracted, m1, Dictionary(tuple(decoys + [b"candidate-09999"])))
    ok_hit = hit.recovered == fx.password and hit.guesses == k and hit.counts.n_hash == 3 * k
    ok_miss = miss.recovered is None and miss.guesses == 10_000 and miss.counts.n_hash == 30_000
    elapsed = time.perf_counter() - start
    ok = ok_hit and ok_miss and elapsed < 10.0
    report_line(
        "criterion 3: offline guess finds planted password at index k in exactly k evaluations",
        ok,
        f"k={k} hit=({hit.recovered},{hit.guesses}) miss=({miss.recovered},{miss.guesses}) "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_4_both_leaks_necessary():
    start = time.perf_counter()
    false_validations = 0
    for seed in range(100):
        fx, extracted, m1 = _attack_fixture(seed)
        if guess_predicate(fx.password, zeroed_card(fx.server.params.width), m1):
            false_validations += 1
        # a request by a different user of the same server
        other_card = registration(fx.server, f"other-{seed}".encode(), fx.password, fx.rng)
        foreign_m1, _ = user_login_start(
            other_card, fx.password, fx.clock, fx.rng, fx.server.params
        )
        if guess_predicate(fx.password, extracted, foreign_m1):
            false_validations += 1
    elapsed = time.perf_counter() - start
    ok = false_validations == 0
    report_line(
        "criterion 4: zeroed card and foreign request each defeat the predicate, 100 trials each",
        ok,
        f"false_validations={false_validations} elapsed={elapsed:.2f}s",
    )


def test_criterion_5_wrong_password_round_cost():
    start = time.perf_counter()
    fx = make_fixture(4242)
    # raises ExperimentInvalid unless the server rejects for the password mistake
    counts = wrong_login_experiment(fx.card, b"typo-pw", fx.server, fx.clock, fx.rng)
    elapsed = time.perf_counter() - start
    ok = counts.as_dict() == {"hash": 6, "xor": 4, "cheb": 1} and elapsed < 1.0
    report_line(
        "criterion 5: wasted round rejected with OpCounts exactly {hash:6, xor:4, cheb:1}",
        ok,
        f"counts={counts.as_dict()} elapsed={elapsed:.2f}s",
    )


def test_criterion_6_dos_and_control_50_fixtures():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        fx = make_fixture(seed)
        attack = dos_experiment(
            fx.card, fx.password, b"wrong-old", b"new-pw", fx.server, fx.clock, fx.rng
        )
        if not attack.dos_confirmed:
            failures.append(("dos", seed))
        fx = make_fixture(seed)
        control = dos_experiment(
            fx.card, fx.password, b"wrong-old", b"new-pw",
            fx.server, fx.clock, fx.rng, correct_old=True,
        )
        if control.dos_confirmed or control.probes["new_password"] != "accepted":
            failures.append(("control", seed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report_line(
        "criterion 6: wrong-old change denies every login; correct-old control succeeds, 50 fixtures",
        ok,
        f"failures={failures} elapsed={elapsed:.2f}s",
    )


def test_criterion_7_report_determinism(tmp_path):
    argv = ["honest-run", "--seed", "42"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    status_a = cli.main([*argv, "--out", str(out_a)])
    status_b = cli.main([*argv, "--out", str(out_b)])

    def normalized(path):
        return mask_wall_time(path.read_text(encoding="utf-8")).encode("utf-8")

    ok = status_a == status_b == 0 and normalized(out_a) == normalized(out_b)
    report_line(
        "criterion 7: identical config yields byte-identical reports (wall times masked)",
        ok,
        f"statuses=({status_a},{status_b})",
    )
