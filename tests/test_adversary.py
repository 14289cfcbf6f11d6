import pickle
import re
from itertools import product

import pytest

from chebauth import adversary
from chebauth.adversary import (
    Dictionary,
    ExperimentInvalid,
    dos_experiment,
    guess_predicate,
    offline_guess,
    scan_target,
    wrong_login_experiment,
)
from chebauth.primitives import OpCounts, Timestamp
from chebauth.protocol import LoginRequest, run_login_session

from helpers import guess_predicate_oracle, intercepted_m1, make_fixture


class TestGuessPredicate:
    def test_integer_candidate_rejected(self):
        # bytes(3) would be three zero bytes, a candidate nobody listed
        fx = make_fixture(56)
        target = scan_target(*intercepted_m1(fx))
        for candidate in (3, [112, 119]):
            with pytest.raises(TypeError):
                guess_predicate(candidate, target)

    def test_costs_three_hashes_two_xors(self):
        # the scheme's formula costs 3 hashes and 2 XORs per candidate, and
        # offline_guess tallies the same for each candidate it evaluates
        fx = make_fixture(56)
        extracted, m1 = intercepted_m1(fx)
        assert guess_predicate_oracle(fx.password, extracted, m1)
        report = offline_guess(extracted, m1, Dictionary((fx.password,)))
        assert report.recovered == fx.password
        assert report.counts == OpCounts(3, 2, 0)


def scan_tally(evaluations):
    return {"hash": 3 * evaluations, "xor": 2 * evaluations, "cheb": 0}


@pytest.fixture
def predicate_calls(monkeypatch):
    """Candidates offline_guess passes to the module-level guess_predicate, in order."""
    calls = []
    predicate = adversary.guess_predicate

    def counting(candidate, target):
        calls.append(candidate)
        return predicate(candidate, target)

    monkeypatch.setattr(adversary, "guess_predicate", counting)
    return calls


class TestOfflineGuess:
    # Acceptance criterion 3 at the call level: the scan calls the predicate
    # once per candidate it evaluates, through the module-level name, and
    # tallies 3 hashes and 2 XORs per call.

    def build_dict(self, fx, size, plant_at=None):
        words = [f"decoy-{i:05d}".encode() for i in range(size - (plant_at is not None))]
        if plant_at is not None:
            words.insert(plant_at - 1, fx.password)  # 1-based index
        return Dictionary(tuple(words))

    def test_planted_password_found_at_exact_index(self, predicate_calls):
        fx = make_fixture(60)
        extracted, m1 = intercepted_m1(fx)
        dictionary = self.build_dict(fx, 500, plant_at=321)
        report = offline_guess(extracted, m1, dictionary)
        assert report.recovered == fx.password
        assert report.guesses == 321
        # stop-at-hit: predicate evaluations == guesses
        assert predicate_calls == list(dictionary.candidates[:321])
        assert report.counts.as_dict() == scan_tally(321)

    def test_unplanted_dictionary_exhausts(self, predicate_calls):
        fx = make_fixture(61)
        extracted, m1 = intercepted_m1(fx)
        dictionary = self.build_dict(fx, 400)
        report = offline_guess(extracted, m1, dictionary)
        assert report.recovered is None
        assert report.guesses == 400
        assert predicate_calls == list(dictionary.candidates)
        assert report.counts.as_dict() == scan_tally(400)

    def test_empty_dictionary(self, predicate_calls):
        fx = make_fixture(62)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, Dictionary(()))
        assert report.recovered is None and report.guesses == 0
        assert predicate_calls == []
        assert report.counts.as_dict() == scan_tally(0)

    def test_guess_count_bounded_by_dictionary(self):
        fx = make_fixture(63)
        extracted, m1 = intercepted_m1(fx)
        for plant in (1, 250, 500):
            report = offline_guess(extracted, m1, self.build_dict(fx, 500, plant_at=plant))
            assert report.guesses == plant <= 500

    def test_a_scan_builds_one_target(self, monkeypatch):
        builds = []
        build = adversary.scan_target

        def counting(card, m1):
            builds.append((card, m1))
            return build(card, m1)

        monkeypatch.setattr(adversary, "scan_target", counting)
        fx = make_fixture(64)
        extracted, m1 = intercepted_m1(fx)
        report = offline_guess(extracted, m1, Dictionary(tuple(f"decoy-{i}".encode() for i in range(5))))
        assert report.guesses == 5 and builds == [(extracted, m1)]
        offline_guess(extracted, m1, Dictionary(()))
        assert builds == [(extracted, m1)] * 2

    def test_narrow_hash_collisions_are_flagged(self, predicate_calls):
        # At width 8 the final check is a single-byte comparison, so false
        # positives are common; pinned fixture: 33 candidates verify and the
        # first in dictionary order is a decoy sitting ahead of the real one.
        fx = make_fixture(0, width=8, prime=17)
        extracted, m1 = intercepted_m1(fx)
        words = [f"cand-{i:04d}".encode() for i in range(2000)]
        words.insert(1500, fx.password)
        dictionary = Dictionary(tuple(words))
        report = offline_guess(extracted, m1, dictionary)
        assert report.recovered == b"cand-0002" and report.guesses == 3  # first match wins
        assert predicate_calls == list(dictionary.candidates[:3])  # stopped at the first hit
        assert report.counts.as_dict() == scan_tally(3)
        target = scan_target(extracted, m1)
        matches = [word for word in dictionary.candidates if guess_predicate(word, target)]
        assert len(matches) == 33 and matches[0] == b"cand-0002" and fx.password in matches

    def test_a_pair_no_scan_can_verify_is_refused_before_any_guess(self, predicate_calls):
        narrow, wide = make_fixture(65, width=8, prime=17), make_fixture(65)
        (narrow_card, narrow_m1), (wide_card, wide_m1) = intercepted_m1(narrow), intercepted_m1(wide)
        words = Dictionary((wide.password,))  # both fixtures register pw-65-secret
        for card, m1, message in ((narrow_card, wide_m1, "of 256 bits, but the card set width 8"),
                                  (wide_card, narrow_m1, "of 8 bits, but the card set width 256")):
            with pytest.raises(ValueError, match=f"^M1 field {message}$"):
                offline_guess(card, m1, words)
        m2 = run_login_session(wide.server, wide_card, wide.password, wide.clock, wide.rng).events[1].message
        with pytest.raises(TypeError, match=r"^m1 must be a LoginRequest, got LoginResponse$"):
            offline_guess(wide_card, m2, words)
        assert predicate_calls == []

    @pytest.mark.parametrize("field, bits", product(("im1", "im2", "x1"), (248, 264)))
    def test_one_field_of_another_width_is_refused(self, field, bits, predicate_calls):
        fx = make_fixture(65)
        card, m1 = intercepted_m1(fx)
        fields = {name: getattr(m1, name) for name in m1.__match_args__}
        fields[field] = (fields[field] + bytes(1))[:bits // 8]  # one byte short or one too many
        with pytest.raises(ValueError, match=f"^M1 field of {bits} bits, but the card set width 256$"):
            offline_guess(card, LoginRequest(**fields), Dictionary((fx.password,)))
        assert predicate_calls == []

    def test_full_width_has_no_false_positives(self):
        fx = make_fixture(64)
        extracted, m1 = intercepted_m1(fx)
        dictionary = self.build_dict(fx, 500, plant_at=77)
        assert offline_guess(extracted, m1, dictionary).recovered == fx.password
        decoys = [word for word in dictionary.candidates if word != fx.password]
        assert len(decoys) == 499
        target = scan_target(extracted, m1)
        assert not any(guess_predicate(word, target) for word in decoys)


class TestWrongLoginExperiment:
    def test_correct_password_invalidates_experiment(self):
        fx = make_fixture(71)
        with pytest.raises(
            ExperimentInvalid,
            match=r"^server accepted the login: the supplied password is the true one"
            r" or collides with it at width 256$",
        ):
            wrong_login_experiment(fx.card, fx.password, fx.server, fx.clock, fx.rng)

    def test_stale_channel_invalidates_experiment(self):
        fx = make_fixture(72, delta_t=1)
        with pytest.raises(
            ExperimentInvalid, match=r"^rejected for stale_timestamp, not the password mistake$"
        ):
            wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng, channel_delay=5)

    def test_default_delay_is_one_tick(self):
        # the server rejects M1, so no M2 travels: one leg of one tick
        fx = make_fixture(74)
        wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng)
        assert fx.clock.now() == Timestamp(1)

    def test_negative_delay_draws_nothing_and_keeps_the_clock(self):
        fx, replay = make_fixture(73), make_fixture(73)
        with pytest.raises(ValueError, match=r"^clock cannot move backwards$"):
            wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng, channel_delay=-1)
        assert fx.clock.now() == replay.clock.now()
        assert fx.rng.draw_exponent() == replay.rng.draw_exponent()


class TestDosExperiment:
    def test_equal_passwords_rejected_as_fixture_error(self):
        fx = make_fixture(82)
        with pytest.raises(ExperimentInvalid, match=r"^wrong_old_password equals the true password$"):
            dos_experiment(
                fx.card, fx.password, fx.password, b"fresh-pw", fx.server, fx.clock, fx.rng
            )

    def test_broken_baseline_rejected_as_fixture_error(self):
        fx = make_fixture(83)
        other = make_fixture(84)  # card from a different server: baseline fails
        with pytest.raises(
            ExperimentInvalid,
            match=r"^baseline login with the true password rejected for auth_failure$",
        ):
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

    def test_each_probe_sends_the_card_the_last_login_left(self, monkeypatch):
        # the stateless server accepts old and refreshed pseudonyms alike, so
        # only the card a probe sends shows that a refresh was kept
        calls = []
        run = adversary.run_login_session

        def recording(server, card, password, *args, **kwargs):
            session = run(server, card, password, *args, **kwargs)
            calls.append((card, password, session))
            return session

        monkeypatch.setattr(adversary, "run_login_session", recording)
        fx = make_fixture(81)
        report = dos_experiment(fx.card, fx.password, b"mistyped-old", b"fresh-pw",
                                fx.server, fx.clock, fx.rng, correct_old=True)
        assert report.probes["new_password"] == "accepted"
        _, (changed, typed, accepted), (sent, _, _), _ = calls
        assert typed == b"fresh-pw" and accepted.ok
        assert sent is accepted.card and sent.im1 != changed.im1


class TestDictionary:
    def test_from_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
        d = Dictionary.from_file(path)
        assert d.candidates == (b"alpha", b"beta", b"gamma")
        assert len(d) == 3

    def test_missing_final_newline_tolerated(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta", encoding="utf-8")
        assert Dictionary.from_file(path).candidates == (b"alpha", b"beta")

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        # a blank line is reported even where the file also repeats a line
        for text in ("alpha\n\nbeta\n", "alpha\n\nalpha\n", "alpha\nalpha\n\n", "\nbeta\nbeta"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: blank lines are not allowed$"):
                Dictionary.from_file(path)

    def test_crlf_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"alpha\r\nbeta\n")
        with pytest.raises(ValueError):
            Dictionary.from_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"alpha\nbeta\ngam\xffma\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 at byte 14$") as exc:
            Dictionary.from_file(path)
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_byte_order_mark_rejected(self, tmp_path):
        # loaded, the BOM would be part of the first candidate, which then never matches
        path = tmp_path / "words.txt"
        path.write_bytes(b"\xef\xbb\xbfsunrise77\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: starts with a UTF-8 byte-order mark"):
            Dictionary.from_file(path)

    def test_duplicates_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^dictionary contains duplicate candidates$"):
            Dictionary((b"a", b"b", b"a"))
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta\nalpha\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^dictionary contains duplicate candidates$"):
            Dictionary.from_file(path)

    def test_non_text_candidates_rejected(self):
        assert Dictionary(("a", bytearray(b"b"), memoryview(b"c"))).candidates == (b"a", b"b", b"c")
        for candidates in (("a", 5), (b"a", None)):
            with pytest.raises(TypeError):
                Dictionary(candidates)

    def test_loaded_equals_constructed(self, tmp_path):
        lines = (b"alpha", "pässwörd".encode(), b"gamma", "密码".encode())
        path = tmp_path / "words.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        loaded = Dictionary.from_file(path)
        built = Dictionary(lines)
        assert type(loaded.candidates) is tuple and loaded.candidates == lines
        assert loaded == built and hash(loaded) == hash(built)
        restored = pickle.loads(pickle.dumps(loaded))
        assert restored == built and restored.candidates == lines
