import pickle
import random
import re
import sys
import threading
from functools import partial
from itertools import product

import pytest

from chebauth import adversary
from chebauth.adversary import (
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
from chebauth.primitives import OpCounts
from chebauth.protocol import LoginRequest, LoginResponse, SmartCard, run_login_session, user_login_start

from helpers import guess_predicate_oracle, make_fixture, zeroed_card


def intercepted_m1(fx):
    """Extract the card, then eavesdrop M1 from a login in that same state."""
    extracted = ExtractedCard.from_card(fx.card)
    m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
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
        zeroed = zeroed_card(fx.server.params.width)
        assert not guess_predicate(fx.password, zeroed, m1)

    def test_transcript_leak_is_necessary(self):
        fx = make_fixture(54)
        extracted, _ = intercepted_m1(fx)
        other = make_fixture(55)  # different identity, different card
        _, foreign_m1 = intercepted_m1(other)
        assert not guess_predicate(fx.password, extracted, foreign_m1)

    def test_integer_candidate_rejected(self):
        # bytes(3) would be three zero bytes, a candidate nobody listed
        fx = make_fixture(56)
        extracted, m1 = intercepted_m1(fx)
        for candidate in (3, [112, 119]):
            with pytest.raises(TypeError):
                guess_predicate(candidate, extracted, m1)

    def test_sound_across_fixtures(self):
        # uncorrupted extraction + matching request: the true password always verifies
        for seed in range(25):
            fx = make_fixture(seed, password=f"pw-{seed}-!".encode())
            extracted, m1 = intercepted_m1(fx)
            assert guess_predicate(fx.password, extracted, m1), seed

    def test_costs_three_hashes_two_xors(self):
        # the scheme's formula costs 3 hashes and 2 XORs per candidate, and
        # offline_guess tallies the same for each candidate it evaluates
        fx = make_fixture(56)
        extracted, m1 = intercepted_m1(fx)
        assert guess_predicate_oracle(fx.password, extracted, m1)
        report = offline_guess(extracted, m1, Dictionary((fx.password,)))
        assert report.recovered == fx.password
        assert report.counts == OpCounts(3, 2, 0)

    @pytest.mark.parametrize("prime", (17, DEFAULT_PRIME))
    @pytest.mark.parametrize("width", (8, 64, 256))
    def test_agrees_with_oracle(self, width, prime):
        fx = make_fixture(57, width=width, prime=prime, password="pâté-€-57")
        extracted, m1 = intercepted_m1(fx)
        _, foreign_m1 = intercepted_m1(make_fixture(58, width=width, prime=prime))
        cards = (extracted, zeroed_card(width))
        candidates = (fx.password, fx.password.encode(), b"", "naïve", "日本語".encode())
        candidates += tuple(f"cand-{i}".encode() for i in range(40))
        for card, message, candidate in product(cards, (m1, foreign_m1), candidates):
            verdict = guess_predicate(candidate, card, message)
            assert verdict == guess_predicate_oracle(candidate, card, message)
        assert guess_predicate(fx.password, extracted, m1)
        assert guess_predicate(fx.password.encode(), extracted, m1)


class TestPredicateMemo:
    """The predicate keeps its per-(card, M1) values between calls; verdicts must not care."""

    @staticmethod
    def victim(seed, width):
        fx = make_fixture(seed, width=width, prime=17 if width == 8 else DEFAULT_PRIME,
                          password=f"pâté-€-{seed}")
        return fx.password, *intercepted_m1(fx)

    def test_interleaved_and_equal_copies_agree_with_oracle(self):
        steps = []
        for width in (8, 64, 256):  # consecutive steps cross widths too
            pw_a, card_a, m1_a = self.victim(100 + width, width)
            pw_b, card_b, m1_b = self.victim(200 + width, width)
            card_a2 = ExtractedCard.from_card(card_a)
            m1_a2 = pickle.loads(pickle.dumps(m1_a))
            assert card_a2 == card_a and card_a2 is not card_a
            assert m1_a2 == m1_a and m1_a2 is not m1_a
            pairs = ((card_a, m1_a), (card_b, m1_b), (card_a, m1_b), (card_a, m1_a),
                     (card_a2, m1_a), (card_a, m1_a2), (card_a2, m1_a2), (card_b, m1_a))
            candidates = (pw_a, pw_a.encode(), pw_b, b"", "", "naïve", "日本語".encode(), b"decoy")
            steps += [(card, m1, cand) for (card, m1), cand in product(pairs, candidates)]
        hits = 0
        for card, m1, candidate in steps + steps[::-1]:
            verdict = guess_predicate(candidate, card, m1)
            assert verdict == guess_predicate_oracle(candidate, card, m1), (len(card.d1), candidate)
            hits += verdict
        # at least pw_a, as str and as bytes, on the five (A, A) pairs of each
        # width, in both directions; narrow widths add false positives
        assert hits >= 2 * 5 * 3 * 2


def scan_tally(evaluations):
    return {"hash": 3 * evaluations, "xor": 2 * evaluations, "cheb": 0}


@pytest.fixture
def predicate_calls(monkeypatch):
    """Candidates offline_guess passes to the module-level guess_predicate, in order."""
    calls = []
    predicate = adversary.guess_predicate

    def counting(candidate, card, m1):
        calls.append(candidate)
        return predicate(candidate, card, m1)

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

    def test_narrow_hash_collisions_are_flagged(self, predicate_calls):
        # At width 8 the final check is a single-byte comparison, so false
        # positives are common; pinned fixture: 33 candidates verify and the
        # first in dictionary order is a decoy sitting ahead of the real one.
        fx = make_fixture(0, width=8, prime=17)
        extracted = ExtractedCard.from_card(fx.card)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        words = [f"cand-{i:04d}".encode() for i in range(2000)]
        words.insert(1500, fx.password)
        dictionary = Dictionary(tuple(words))
        report = offline_guess(extracted, m1, dictionary)
        assert report.recovered == b"cand-0002" and report.guesses == 3  # first match wins
        assert predicate_calls == list(dictionary.candidates[:3])  # stopped at the first hit
        assert report.counts.as_dict() == scan_tally(3)
        matches = [word for word in dictionary if guess_predicate(word, extracted, m1)]
        assert len(matches) == 33 and matches[0] == b"cand-0002" and fx.password in matches

    def test_full_width_has_no_false_positives(self):
        fx = make_fixture(64)
        extracted, m1 = intercepted_m1(fx)
        dictionary = self.build_dict(fx, 500, plant_at=77)
        assert offline_guess(extracted, m1, dictionary).recovered == fx.password
        decoys = [word for word in dictionary if word != fx.password]
        assert len(decoys) == 499
        assert not any(guess_predicate(word, extracted, m1) for word in decoys)


def run_interleaved(*jobs, timeout=30.0):
    """Run each job in its own thread, one thread at a time, switching at random lines.

    Before each line the adversary module executes, the running thread
    hands the turn to the next one with probability 1/2, drawn from a
    seeded stream; since only the turn holder runs adversary code, the
    schedule is the same on every run. A short sys.setswitchinterval cannot
    give such fine interleavings on every host: where the threads share a
    core, they switch only when the OS scheduler preempts one, every few
    milliseconds. Strict alternation at every line is no substitute either:
    threads running the same code settle into a fixed phase.
    """
    coin = random.Random(0)
    cond = threading.Condition()
    order = []  # idents of the threads still running, in turn order
    turn = [None]

    def wait_for_turn(me):
        if not cond.wait_for(lambda: turn[0] == me, timeout):
            raise TimeoutError("interleaved run stalled")

    def step(frame, event, arg):
        if event == "line":
            me = threading.get_ident()
            with cond:
                wait_for_turn(me)
                if coin.random() < 0.5:
                    turn[0] = order[(order.index(me) + 1) % len(order)]
                    cond.notify_all()
                    wait_for_turn(me)
        return step

    def trace(frame, event, arg):
        return step if frame.f_globals is vars(adversary) else None

    def run(job):
        me = threading.get_ident()
        with cond:
            wait_for_turn(me)
        sys.settrace(trace)
        try:
            job()
        finally:
            sys.settrace(None)
            with cond:
                index = order.index(me)
                order.remove(me)
                turn[0] = order[index % len(order)] if order else None
                cond.notify_all()

    threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
    for thread in threads:
        thread.start()
    with cond:
        order.extend(thread.ident for thread in threads)
        turn[0] = order[0]
        cond.notify_all()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "interleaved run stalled"


class TestConcurrentScans:
    def test_threads_recover_their_own_passwords(self):
        # Three victims, one scan thread each, switching at random lines: the
        # predicate's memo changes hands inside many calls, and each scan
        # must still find its own password at its planted index.
        scans, expected = [], []
        for seed, plant_at in ((1, 3), (2, 5), (3, 8)):
            fx = make_fixture(300 + seed)
            extracted, m1 = intercepted_m1(fx)
            words = [f"decoy-{seed}-{i}".encode() for i in range(7)]
            words.insert(plant_at - 1, fx.password)
            scans.append((extracted, m1, Dictionary(tuple(words)), []))
            expected.append([(fx.password, plant_at)] * 50)

        def scan(extracted, m1, dictionary, results):
            for _ in range(50):
                report = offline_guess(extracted, m1, dictionary)
                results.append((report.recovered, report.guesses))

        run_interleaved(*(partial(scan, *job) for job in scans))
        assert [results for *_, results in scans] == expected


class TestWrongLoginExperiment:
    def test_wasted_round_costs(self):
        fx = make_fixture(70)
        counts = wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng)
        assert counts.as_dict() == {"hash": 6, "xor": 4, "cheb": 1}

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

    def test_negative_delay_draws_nothing_and_keeps_the_clock(self):
        fx, replay = make_fixture(73), make_fixture(73)
        with pytest.raises(ValueError, match=r"^clock cannot move backwards$"):
            wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng, channel_delay=-1)
        assert fx.clock.now() == replay.clock.now()
        assert fx.rng.draw_exponent() == replay.rng.draw_exponent()


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


class TestExtractedCard:
    def test_copies_match_victim(self):
        fx = make_fixture(90)
        extracted = ExtractedCard.from_card(fx.card)
        assert (extracted.im1, extracted.im2, extracted.d1, extracted.d2) == (
            fx.card.im1, fx.card.im2, fx.card.d1, fx.card.d2,
        )

    def test_zeroed(self):
        z = zeroed_card(256)
        assert isinstance(z, ExtractedCard) and int.from_bytes(z.im1, "big") == 0 and len(z.d1) == 32

    def test_mixed_widths_rejected_as_on_the_card(self):
        narrow, wide = bytes(8), bytes(16)
        for card_type in (SmartCard, ExtractedCard):
            with pytest.raises(ValueError, match=r"card fields disagree on width: \[64, 128\]"):
                card_type(im1=narrow, im2=narrow, d1=narrow, d2=wide)


class TestTranscript:
    def test_captures_session_messages_in_order(self):
        fx = make_fixture(91)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        transcript = Transcript.from_events(session.events)
        assert transcript.login_requests() == [session.events[0].message]
        assert [type(e.message) for e in transcript.events] == [LoginRequest, LoginResponse]

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
