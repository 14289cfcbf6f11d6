from itertools import product

import pytest

from chebauth.adversary import (
    AttackReport,
    Dictionary,
    ExperimentInvalid,
    ExtractedCard,
    Transcript,
    dos_experiment,
    guess_predicate,
    offline_guess,
    wrong_login_experiment,
)
from chebauth.chaotic import DEFAULT_PRIME
from chebauth.primitives import BitString, OpCounts
from chebauth.protocol import SmartCard, run_login_session, user_login_start

from helpers import guess_predicate_oracle, make_fixture


def intercepted_m1(fx):
    """Extract the card, then eavesdrop M1 from a login in that same state."""
    extracted = ExtractedCard.from_card(fx.card)
    m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
    return extracted, m1


class TestGuessPredicate:
    def test_true_password_verifies(self):
        fx = make_fixture(50)
        extracted, m1 = intercepted_m1(fx)
        assert guess_predicate(fx.password, extracted, m1)

    def test_near_miss_fails(self):
        fx = make_fixture(51)
        extracted, m1 = intercepted_m1(fx)
        assert not guess_predicate(fx.password + b"x", extracted, m1)

    def test_deterministic(self):
        fx = make_fixture(52)
        extracted, m1 = intercepted_m1(fx)
        for candidate in (fx.password, b"other"):
            assert guess_predicate(candidate, extracted, m1) == guess_predicate(
                candidate, extracted, m1
            )

    def test_card_leak_is_necessary(self):
        fx = make_fixture(53)
        _, m1 = intercepted_m1(fx)
        zeroed = ExtractedCard.zeroed(fx.card.width)
        assert not guess_predicate(fx.password, zeroed, m1)

    def test_transcript_leak_is_necessary(self):
        fx = make_fixture(54)
        extracted, _ = intercepted_m1(fx)
        other = make_fixture(55)  # different identity, different card
        _, foreign_m1 = intercepted_m1(other)
        assert not guess_predicate(fx.password, extracted, foreign_m1)

    def test_sound_across_fixtures(self):
        # uncorrupted extraction + matching request: the true password always verifies
        for seed in range(25):
            fx = make_fixture(seed, password=f"pw-{seed}-!".encode())
            extracted, m1 = intercepted_m1(fx)
            assert guess_predicate(fx.password, extracted, m1), seed

    def test_costs_three_hashes_two_xors(self):
        fx = make_fixture(56)
        extracted, m1 = intercepted_m1(fx)
        counts = OpCounts()
        guess_predicate(fx.password, extracted, m1, counts=counts)
        assert counts.as_dict() == {"hash": 3, "xor": 2, "cheb": 0}

    @pytest.mark.parametrize("prime", (17, DEFAULT_PRIME))
    @pytest.mark.parametrize("width", (8, 64, 256))
    def test_agrees_with_oracle(self, width, prime):
        fx = make_fixture(57, width=width, prime=prime, password="pâté-€-57")
        extracted, m1 = intercepted_m1(fx)
        _, foreign_m1 = intercepted_m1(make_fixture(58, width=width, prime=prime))
        cards = (extracted, ExtractedCard.zeroed(width))
        candidates = (fx.password, fx.password.encode(), b"", "naïve", "日本語".encode())
        candidates += tuple(f"cand-{i}".encode() for i in range(40))
        for card, message, candidate in product(cards, (m1, foreign_m1), candidates):
            counts, oracle_counts = OpCounts(), OpCounts()
            verdict = guess_predicate(candidate, card, message, counts=counts)
            assert verdict == guess_predicate_oracle(candidate, card, message, oracle_counts)
            assert counts.as_dict() == oracle_counts.as_dict() == {"hash": 3, "xor": 2, "cheb": 0}
        assert guess_predicate(fx.password, extracted, m1)
        assert guess_predicate(fx.password.encode(), extracted, m1)


class TestOfflineGuess:
    def build_dict(self, fx, size, plant_at=None):
        words = [f"decoy-{i:05d}".encode() for i in range(size - (plant_at is not None))]
        if plant_at is not None:
            words.insert(plant_at - 1, fx.password)  # 1-based index
        return Dictionary(tuple(words))

    def test_planted_password_found_at_exact_index(self):
        fx = make_fixture(60)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, self.build_dict(fx, 500, plant_at=321))
        assert report.recovered == fx.password
        assert report.guesses == 321
        # stop-at-hit: predicate evaluations == guesses (3 hashes per guess)
        assert report.counts.n_hash == 3 * 321
        assert not report.multiple_matches

    def test_unplanted_dictionary_exhausts(self):
        fx = make_fixture(61)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, self.build_dict(fx, 400))
        assert report.recovered is None
        assert report.guesses == 400
        assert report.counts.n_hash == 3 * 400

    def test_empty_dictionary(self):
        fx = make_fixture(62)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, Dictionary(()))
        assert report.recovered is None and report.guesses == 0
        assert report.counts.n_hash == 0

    def test_guess_count_bounded_by_dictionary(self):
        fx = make_fixture(63)
        extracted, m1 = intercepted_m1(fx)
        for plant in (1, 250, 500):
            report = offline_guess(extracted, m1, self.build_dict(fx, 500, plant_at=plant))
            assert report.guesses == plant <= 500

    def test_narrow_hash_collisions_are_flagged(self):
        # At width 8 the final check is a single-byte comparison, so false
        # positives are common; pinned fixture: 33 candidates verify and the
        # first in dictionary order is a decoy sitting ahead of the real one.
        fx = make_fixture(0, width=8, prime=17)
        extracted = ExtractedCard.from_card(fx.card)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=17)
        words = [f"cand-{i:04d}".encode() for i in range(2000)]
        words.insert(1500, fx.password)
        dictionary = Dictionary(tuple(words))
        exhaustive = offline_guess(extracted, m1, dictionary, exhaustive=True)
        assert exhaustive.multiple_matches
        assert exhaustive.recovered == b"cand-0002"  # first match wins
        assert exhaustive.guesses == 3
        assert exhaustive.counts.n_hash == 3 * len(dictionary)  # scanned everything
        quick = offline_guess(extracted, m1, dictionary)
        assert quick.recovered == b"cand-0002" and quick.guesses == 3
        assert quick.counts.n_hash == 3 * 3  # stopped at the first hit

    def test_full_width_has_no_false_positives(self):
        fx = make_fixture(64)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, self.build_dict(fx, 500, plant_at=77), exhaustive=True)
        assert report.recovered == fx.password and not report.multiple_matches


class TestWrongLoginExperiment:
    def test_wasted_round_costs(self):
        fx = make_fixture(70)
        report = wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng)
        assert report.server_rejected
        assert report.counts.as_dict() == {"hash": 6, "xor": 4, "cheb": 1}

    def test_correct_password_invalidates_experiment(self):
        fx = make_fixture(71)
        with pytest.raises(ExperimentInvalid):
            wrong_login_experiment(fx.card, fx.password, fx.server, fx.clock, fx.rng)

    def test_stale_channel_invalidates_experiment(self):
        fx = make_fixture(72, delta_t=1)
        with pytest.raises(ExperimentInvalid):
            wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng, channel_delay=5)


class TestDosExperiment:
    def test_wrong_old_password_denies_all_logins(self):
        fx = make_fixture(80)
        report = dos_experiment(
            fx.card, fx.password, b"mistyped-old", b"fresh-pw", fx.server, fx.clock, fx.rng
        )
        assert report.dos_confirmed
        assert report.probes == {
            "new_password": "rejected",
            "true_password": "rejected",
            "wrong_old_password": "rejected",
        }

    def test_control_with_correct_old_password(self):
        fx = make_fixture(81)
        report = dos_experiment(
            fx.card, fx.password, b"mistyped-old", b"fresh-pw",
            fx.server, fx.clock, fx.rng, correct_old=True,
        )
        assert not report.dos_confirmed
        assert report.probes["new_password"] == "accepted"

    def test_equal_passwords_rejected_as_fixture_error(self):
        fx = make_fixture(82)
        with pytest.raises(ExperimentInvalid):
            dos_experiment(
                fx.card, fx.password, fx.password, b"fresh-pw", fx.server, fx.clock, fx.rng
            )

    def test_broken_baseline_rejected_as_fixture_error(self):
        fx = make_fixture(83)
        other = make_fixture(84)  # card from a different server: baseline fails
        with pytest.raises(ExperimentInvalid):
            dos_experiment(
                other.card, fx.password, b"mistyped-old", b"fresh-pw",
                fx.server, fx.clock, fx.rng,
            )

    def test_corruption_is_permanent_across_probe_set(self):
        from chebauth.protocol import change_password

        fx = make_fixture(85)
        baseline = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        assert baseline.ok
        card = change_password(baseline.card, b"mistyped-old", b"fresh-pw")
        probes = [f"probe-{i}".encode() for i in range(97)]
        probes += [fx.password, b"fresh-pw", b"mistyped-old"]
        assert len(probes) == 100
        for password in probes:
            session = run_login_session(fx.server, card, password, fx.clock, fx.rng)
            assert not session.ok
            card = session.card


class TestExtractedCard:
    def test_copies_match_victim(self):
        fx = make_fixture(90)
        extracted = ExtractedCard.from_card(fx.card)
        assert (extracted.im1, extracted.im2, extracted.d1, extracted.d2) == (
            fx.card.im1, fx.card.im2, fx.card.d1, fx.card.d2,
        )

    def test_zeroed(self):
        z = ExtractedCard.zeroed(256)
        assert z.im1.to_int() == 0 and z.width == 256

    def test_mixed_widths_rejected_as_on_the_card(self):
        narrow, wide = BitString.zeros(64), BitString.zeros(128)
        for card_type in (SmartCard, ExtractedCard):
            with pytest.raises(ValueError, match=r"card fields disagree on width: \[64, 128\]"):
                card_type(im1=narrow, im2=narrow, d1=narrow, d2=wide)


class TestTranscript:
    def test_captures_session_messages_in_order(self):
        fx = make_fixture(91)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        transcript = Transcript.from_events(session.events)
        assert len(transcript.login_requests()) == 1
        assert len(transcript.login_responses()) == 1
        assert transcript.events[0].direction == "user->server"
        assert transcript.events[1].direction == "server->user"

    def test_out_of_order_events_rejected(self):
        fx = make_fixture(92)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        with pytest.raises(ValueError):
            Transcript.from_events(list(reversed(session.events)))


class TestDictionary:
    def test_from_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
        d = Dictionary.from_file(path)
        assert list(d) == [b"alpha", b"beta", b"gamma"]
        assert len(d) == 3

    def test_missing_final_newline_tolerated(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta", encoding="utf-8")
        assert list(Dictionary.from_file(path)) == [b"alpha", b"beta"]

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\n\nbeta\n", encoding="utf-8")
        with pytest.raises(ValueError):
            Dictionary.from_file(path)

    def test_crlf_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"alpha\r\nbeta\n")
        with pytest.raises(ValueError):
            Dictionary.from_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"alpha\nbeta\ngam\xffma\n")
        with pytest.raises(UnicodeDecodeError):
            Dictionary.from_file(path)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Dictionary((b"a", b"b", b"a"))

    def test_report_defaults(self):
        report = AttackReport()
        assert report.guesses == 0 and report.recovered is None
