"""The names the package keeps only for perfbench, and their contracts.

No CLI command or protocol phase reaches BitString, the adapters hash_h,
hash_H, xor and concat, ExtractedCard, Transcript or _cheb_pure; perfbench's
set-up, tracer and kernel-agreement gate do. This module goes when they go:
test_source_rules.shim_uses keeps the rest of the suite off them, bar the
value-type table of test_values.py.
"""

import ast
import inspect
import random
import re

import pytest

from chebauth import adversary, cli, primitives
from chebauth._cheb_pure import cheb_eval_int
from chebauth.adversary import Dictionary, ExtractedCard, Transcript, guess_predicate, offline_guess, scan_target
from chebauth.chaotic import DEFAULT_PRIME, FieldElement
from chebauth.primitives import (BitString, H_digest, OpCounts, Timestamp, WidthMismatch, concat, h_digest, hash_H,
                                 hash_h, xor, xor_bytes)
from chebauth.protocol import LoginRequest, LoginResponse, SmartCard, run_login_session

import reference_scheme as ref
from helpers import card_fields, guess_predicate_oracle, make_fixture


class TestBitString:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BitString(b"")

    def test_data_must_be_bytes_like(self):
        assert type(BitString(bytearray(b"ab")).data) is bytes
        for data in (4, [1, 2], "ab"):
            with pytest.raises(TypeError):
                BitString(data)

    def test_is_only_its_fields_and_construction_hook(self):
        (cls,) = [node for node in ast.parse(inspect.getsource(primitives)).body
                  if isinstance(node, ast.ClassDef) and node.name == "BitString"]
        defined = []
        for node in cls.body[1:]:  # after the docstring
            defined += [node.name] if isinstance(node, ast.FunctionDef) else [t.id for t in node.targets]
        assert defined == ["__slots__", "__match_args__", "__init__", "__post_init__"]
        assert BitString.__match_args__ == BitString.__slots__ == ("data",)

    def test_is_no_card_field(self):
        for position in range(4):
            fields = [bytes(4)] * 4
            fields[position] = BitString(bytes(4))
            names = ["bytes"] * 4
            names[position] = "BitString"
            for card_type in (SmartCard, ExtractedCard):
                with pytest.raises(TypeError, match=re.escape(f"card fields must be bytes: {names}")):
                    card_type(*fields)

    def test_cli_commands_and_offline_guess_build_no_bitstring(self, tmp_path, monkeypatch):
        # the four commands run registration, honest and wrong-password
        # logins, a password change and a scan: every phase and the predicate.
        # Constructions are counted as the benchmark's tracer counts them.
        built, original = [], BitString.__post_init__
        monkeypatch.setattr(BitString, "__post_init__", lambda self: built.append(self) or original(self))
        words = tmp_path / "words.txt"
        words.write_text("hunter2\nsunrise77\n", encoding="utf-8")
        for argv in (["honest-run"], ["guess-attack", "--dict", str(words)], ["wrong-login-demo"], ["dos-demo"]):
            assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0, argv
        fx = make_fixture(90)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        report = offline_guess(fx.card, session.events[0].message, Dictionary((b"decoy", fx.password)))
        assert report.recovered == fx.password and report.counts == OpCounts(6, 4, 0)
        assert built == []
        BitString(b"x")  # the counter itself works
        assert len(built) == 1


class TestAdapters:
    """hash_h, hash_H and xor are the bytes forms at a width in bits; concat joins encodings."""

    def test_are_their_own_functions(self):
        # the tracer wraps every module binding that is the original function, so
        # an alias of a bytes form would trace the protocol's own calls
        assert {hash_h, hash_H, xor, concat}.isdisjoint({h_digest, H_digest, xor_bytes})
        assert adversary.hash_h is hash_h

    @pytest.mark.parametrize("width", range(8, 257, 8))
    def test_return_the_bytes_forms_at_the_width(self, width):
        n = width // 8
        a, b = bytes(range(n)), bytearray(range(255, 255 - n, -1))
        e = FieldElement(5, 101)
        results = [hash_h(b"payload", width), hash_h(bytearray(b"payload"), width),
                   hash_H(e, e, e, width), xor(a, b), xor(b, a), concat([a]), concat([b])]
        assert [type(result) for result in results] == [bytes] * len(results)
        assert [len(result) for result in results] == [n] * len(results)
        bytes_forms = [h_digest(n, b"payload")] * 2 + [H_digest(n, *[e.to_bytes()] * 3)] + [xor_bytes(a, b)] * 2
        assert results == bytes_forms + [a, b]
        assert concat([b"id", a, e, Timestamp(3)]) == b"id" + a + e.to_bytes() + Timestamp(3).to_bytes()

    def test_default_width_is_256_and_order_counts(self):
        a, b, c = FieldElement(5, 101), FieldElement(9, 101), FieldElement(23, 101)
        assert hash_h(b"a") == h_digest(32, b"a") != hash_h(b"b")
        assert hash_H(a, b, c) == H_digest(32, a.to_bytes(), b.to_bytes(), c.to_bytes()) != hash_H(b, a, c)
        assert hash_h(a.to_bytes() + b.to_bytes() + c.to_bytes()) != hash_H(a, b, c)  # domain separated

    def test_invalid_width_rejected(self):
        a = FieldElement(5, 101)
        for width in (0, 4, 12, 264, 512):
            with pytest.raises(ValueError, match=rf"^width must be a multiple of 8 in \[8, 256\], got {width}$"):
                hash_h(b"a", width=width)
            with pytest.raises(ValueError, match=rf"^width must be a multiple of 8 in \[8, 256\], got {width}$"):
                hash_H(a, a, a, width=width)

    def test_xor_width_mismatch(self):
        with pytest.raises(WidthMismatch, match=r"^cannot XOR widths 256 and 128$"):
            xor(bytes(32), bytes(16))


class TestConcat:
    def test_empty(self):
        assert concat([]) == b""

    def test_singleton_is_canonical_serialization(self):
        assert concat([b"\x01\x02"]) == b"\x01\x02" and concat([b"raw"]) == b"raw"
        assert concat([FieldElement(300, 1009)]) == (300).to_bytes(2, "big")
        assert concat([Timestamp(7)]) == (7).to_bytes(8, "big")

    def test_order_sensitive(self):
        assert concat([b"\x01" * 4, b"\x02" * 4]) != concat([b"\x02" * 4, b"\x01" * 4])

    def test_unsupported_type_rejected(self):
        for part in (3.14, BitString(b"ab")):
            with pytest.raises(TypeError):
                concat([part])

    def test_injective_over_random_tuples(self):
        # collision search over 10**4 random fixed-width component tuples
        rng = random.Random(3)
        seen = {}
        for _ in range(10_000):
            parts = (rng.getrandbits(64).to_bytes(8, "big"), FieldElement(rng.randrange(101), 101),
                     Timestamp(rng.randrange(1 << 32)))
            encoding = concat(parts)
            if encoding in seen:
                assert seen[encoding] == parts, "concat collision on distinct tuples"
            seen[encoding] = parts


class TestExtractedCard:
    def test_copies_match_victim(self):
        fx = make_fixture(90)
        assert card_fields(ExtractedCard.from_card(fx.card)) == card_fields(fx.card)

    def test_never_equals_the_card(self):
        fields = dict(im1=b"\x01\x02", im2=b"\x03\x04", d1=b"\x05\x06", d2=b"\x07\x08")
        card, extracted = SmartCard(**fields), ExtractedCard(**fields)
        assert card != extracted and extracted != card
        assert ExtractedCard.from_card(card) == extracted

    def test_checks_its_fields_as_the_card_does(self):
        # the guess predicate XORs the fields as ints, so it relies on these checks
        for fields in ([b""] * 4, [bytes(4), bytes(4), b"", bytes(4)], [bytes(4)] * 3 + [bytes(5)],
                       [bytes(8)] * 3 + [bytes(16)], [bytes(33)] * 4, [bytes(4)] * 3 + [bytearray(4)],
                       ["abcd"] + [bytes(4)] * 3):
            with pytest.raises((TypeError, ValueError)) as refused:
                SmartCard(*fields)
            with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
                ExtractedCard(*fields)
        for n in (1, 32):
            assert ExtractedCard(*[bytes(n)] * 4).d1 == bytes(n)

    @pytest.mark.parametrize("width, prime", [(8, 17), (64, DEFAULT_PRIME), (256, DEFAULT_PRIME)],
                             ids=["w8", "w64", "w256"])
    def test_is_scanned_as_the_card(self, width, prime):
        # perfbench's guess-scan hands offline_guess the extracted copy
        fx = make_fixture(57, width=width, prime=prime, password="pâté-€-57")
        m1 = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng).events[0].message
        extracted = ExtractedCard.from_card(fx.card)
        for candidate in (fx.password, b"", "naïve", *(f"cand-{i}".encode() for i in range(40))):
            verdict = guess_predicate(candidate, scan_target(extracted, m1))
            assert verdict == guess_predicate_oracle(candidate, extracted, m1), candidate
        words = Dictionary((b"decoy", fx.password))
        assert offline_guess(extracted, m1, words) == offline_guess(fx.card, m1, words)


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


def test_pure_kernel_validates_input():
    with pytest.raises(ValueError):
        cheb_eval_int(-1, 0, 17)
    with pytest.raises(ValueError):
        cheb_eval_int(3, 0, 1)
    assert cheb_eval_int(3, 5, 2) == 485 % 2  # T_3(5) = 4 * 5**3 - 3 * 5; 2 is the least modulus


def test_pure_kernel_agrees_with_reference():
    # the start values, p - 1 where V_1 = 2x mod p is odd, and 64-, 65- and 128-bit exponents
    for p in (5, 17, 101, (1 << 61) - 1, (1 << 64) - 59, DEFAULT_PRIME):
        for x in (0, 1, p - 1, p // 3):
            for n in (0, 1, 2, (1 << 64) - 1, 1 << 64, (1 << 65) - 1, (1 << 128) - 3):
                assert cheb_eval_int(n, x, p) == ref.cheb(n, x, p), (n, x, p)
