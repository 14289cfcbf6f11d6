import random

import pytest

from chebauth.chaotic import FieldElement
from chebauth.primitives import (
    LogicalClock,
    OpCounts,
    RandomSource,
    Timestamp,
    H_digest,
    WidthMismatch,
    as_bytes,
    h_digest,
    tally,
    xor_bytes,
)

# Regression constants, computed once with the shipped digest configuration
# (SHA-256, domain prefixes 0x01 for h and 0x02 for H) and frozen.
H_OF_A = "e3254ea61c09ead5a01d3bf07e946a561c6c2cd1c46b8ca1bfa8729d26a7d09f"
H_OF_B = "dd6b36995453bf44c98dd691392a3b1d95e672e025d802d39064f8e3180406d9"
H_OF_EMPTY = "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"
BIG_H_5_9_23 = "435d285ff593f334087648222ef491257b51b5c57c7af000e4181bd185ef5b3e"
BIG_H_9_5_23 = "8b1379fa3cd4e40dc587032cd0ec0b2b6e80d4fb62711d8d465ad46bbb215ba3"
SEED1_FIRST_DRAW = "1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5"
SEED2_FIRST_DRAW = "5c6e433715ba2bdd177219d30e7a269fd95bafc8f2a4d27bdcf4bb99f4bea973"


def rand_bits(rng, width=256):
    return rng.getrandbits(width).to_bytes(width // 8, "big")


def from_int(value, width=256):
    return value.to_bytes(width // 8, "big")


class TestHashH:
    def test_deterministic(self):
        assert h_digest(32, b"payload") == h_digest(32, b"payload")

    def test_pinned_digests(self):
        assert h_digest(32, b"a").hex() == H_OF_A
        assert h_digest(32, b"b").hex() == H_OF_B
        # h hashes the join of its parts
        assert h_digest(32, b"", b"a", b"").hex() == H_OF_A
        assert h_digest(8, b"b") == bytes.fromhex(H_OF_B)[:8]

    def test_empty_input_has_full_width(self):
        digest = h_digest(32, b"")
        assert len(digest) * 8 == 256
        assert digest.hex() == H_OF_EMPTY

    def test_truncation_widths(self):
        assert len(h_digest(8, b"a")) * 8 == 64
        assert h_digest(8, b"a") == h_digest(32, b"a")[:8]


class TestHashBigH:
    # H's inputs are field encodings: 5, 9 and 23 mod 101 as one byte each
    ENCODED = tuple(FieldElement(value, 101).to_bytes() for value in (5, 9, 23))

    def test_deterministic_and_pinned(self):
        a, b, c = self.ENCODED
        assert H_digest(32, a, b, c).hex() == BIG_H_5_9_23
        assert H_digest(32, a, b, c) == H_digest(32, a + b, c)  # H hashes the join of its parts

    def test_argument_order_matters(self):
        a, b, c = self.ENCODED
        assert H_digest(32, b, a, c).hex() == BIG_H_9_5_23

    def test_domain_separated_from_h(self):
        # h over the identical serialized payload must not collide with H
        assert h_digest(32, *self.ENCODED) != H_digest(32, *self.ENCODED)


class TestXor:
    def test_truth_table(self):
        a = from_int(0b1010 << 252)
        b = from_int(0b0110 << 252)
        assert xor_bytes(a, b) == from_int(0b1100 << 252)

    def test_self_inverse_and_identity(self):
        rng = random.Random(1)
        zero = bytes(32)
        for _ in range(50):
            a = rand_bits(rng)
            assert xor_bytes(a, a) == zero
            assert xor_bytes(a, zero) == a

    def test_group_laws_randomized(self):
        rng = random.Random(2)
        for _ in range(1000):
            a, b, c = rand_bits(rng), rand_bits(rng), rand_bits(rng)
            assert xor_bytes(a, b) == xor_bytes(b, a)
            assert xor_bytes(xor_bytes(a, b), c) == xor_bytes(a, xor_bytes(b, c))
            assert xor_bytes(xor_bytes(a, b), b) == a

    def test_width_and_leading_zero_bytes_kept(self):
        rng = random.Random(4)
        for width in range(8, 257, 8):
            n = width // 8
            shared = rng.randbytes((n + 1) // 2)  # equal top bytes XOR to zero bytes
            a = shared + rng.randbytes(n - len(shared))
            b = shared + rng.randbytes(n - len(shared))
            result = xor_bytes(a, b)
            assert len(result) * 8 == width
            assert result == bytes(x ^ y for x, y in zip(a, b))
            assert result[: len(shared)] == bytes(len(shared))

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch, match=r"^cannot XOR widths 8 and 64$"):
            xor_bytes(bytes(1), bytes(8))


class TestOpCounts:
    def test_as_dict(self):
        assert OpCounts(6, 4, 1).as_dict() == {"hash": 6, "xor": 4, "cheb": 1}

    def test_additive_across_composition(self):
        # one counter over a whole procedure equals the sum of per-stage counters
        # each stage tallies its operations once, as the protocol phases do
        def stage_one(counts):
            tally(counts, n_hash=2, n_xor=1, n_cheb=0)
            return xor_bytes(h_digest(32, b"x"), h_digest(32, b"y"))

        def stage_two(counts, a):
            tally(counts, n_hash=1, n_xor=1, n_cheb=0)
            return xor_bytes(a, h_digest(32, b"z"))

        whole = OpCounts()
        stage_two(whole, stage_one(whole))

        first, second = OpCounts(), OpCounts()
        stage_two(second, stage_one(first))
        combined = {kind: first.as_dict()[kind] + second.as_dict()[kind] for kind in first.as_dict()}
        assert whole.as_dict() == combined == {"hash": 3, "xor": 2, "cheb": 0}


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(99), RandomSource(99)
        assert a.draw_bytes(32) == b.draw_bytes(32)
        assert a.draw_exponent() == b.draw_exponent()

    def test_pinned_first_draws(self):
        assert RandomSource(1).draw_bytes(32).hex() == SEED1_FIRST_DRAW
        assert RandomSource(2).draw_bytes(32).hex() == SEED2_FIRST_DRAW

    def test_exponent_range(self):
        rng = RandomSource(5)
        for _ in range(1000):
            e = rng.draw_exponent()
            assert 2 <= e < (1 << 64)

    def test_draw_width(self):
        draw = RandomSource(1).draw_bytes(8)
        assert type(draw) is bytes and len(draw) * 8 == 64

    @pytest.mark.parametrize("seed, error, message", [
        (None, TypeError, "seed must be an int, got NoneType"),
        (1.0, TypeError, "seed must be an int, got float"),
        (True, TypeError, "seed must be an int, got bool"),
        (-2, ValueError, "seed must be non-negative, got -2"),
    ], ids=["None", "float", "bool", "negative"])
    def test_refuses_a_seed_that_would_not_replay(self, monkeypatch, seed, error, message):
        # random.Random seeds None from OS entropy and 1.0, True and -1 as 1: no stream is made
        def no_stream(*args):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(random, "Random", no_stream)
        with pytest.raises(error, match=rf"^{message}$"):
            RandomSource(seed)

    def test_zero_and_huge_seeds_accepted(self):
        assert RandomSource(0).draw_bytes(8) != RandomSource(1).draw_bytes(8)
        assert RandomSource(1 << 128).draw_bytes(8) == RandomSource(1 << 128).draw_bytes(8)


class TestTime:
    def test_timestamp_arithmetic_and_order(self):
        # freshness is a difference of ticks; timestamps define no ordering
        assert Timestamp(7) - Timestamp(3) == 4
        assert Timestamp(3) - Timestamp(7) == -4
        with pytest.raises(TypeError):
            Timestamp(3) < Timestamp(7)

    def test_timestamp_serialization(self):
        assert Timestamp(1).to_bytes() == b"\x00" * 7 + b"\x01"

    def test_negative_ticks_rejected(self):
        with pytest.raises(ValueError):
            Timestamp(-1)

    def test_clock_is_monotone(self):
        clock = LogicalClock()
        t0 = clock.now()
        clock.advance(3)
        assert clock.now() - t0 == 3
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_clock_holds_the_stamp_it_reads(self):
        # the time is kept once, as a Timestamp; no second tick count beside it
        clock = LogicalClock()
        assert not hasattr(clock, "ticks")
        assert clock.now() is clock.now() and clock.now() == Timestamp(0)
        moved = clock.advance(4)
        assert moved == Timestamp(4) and clock.now() is moved and clock.now() is clock.now()

    def test_after_reads_ahead_without_moving_the_clock(self):
        clock = LogicalClock()
        clock.advance(2)
        start = clock.now()
        assert clock.after(0) == start and clock.after(3) == Timestamp(5)
        assert clock.after((1 << 64) - 3) == Timestamp((1 << 64) - 1)
        assert clock.now() is start
        assert clock.advance(3) == Timestamp(5)

    @pytest.mark.parametrize("step, error, message", [
        (1.5, TypeError, r"^ticks must be an int, got float$"),
        (True, TypeError, r"^ticks must be an int, got bool$"),
        (False, TypeError, r"^ticks must be an int, got bool$"),
        (-1, ValueError, r"^clock cannot move backwards$"),
        (1 << 64, ValueError, r"^ticks must be in \[0, 2\*\*64\), got 18446744073709551623$"),
        ((1 << 64) - 7, ValueError, r"^ticks must be in \[0, 2\*\*64\), got 18446744073709551616$"),
    ], ids=["float", "true", "false", "negative", "past-2**64", "to-2**64"])
    def test_refused_step_is_refused_where_it_happens(self, step, error, message):
        # a bool, or a step to a time Timestamp refuses, fails in after or advance, not at the next now()
        clock = LogicalClock()
        clock.advance(7)
        start = clock.now()
        for move in (clock.after, clock.advance):
            with pytest.raises(error, match=message):
                move(step)
            assert clock.now() is start
        assert clock.advance(1) == Timestamp(8)


class TestAsBytes:
    def test_str_is_utf8(self):
        assert as_bytes("pâte") == "pâte".encode("utf-8")

    def test_bytes_passthrough(self):
        assert as_bytes(b"\x00\xff") == b"\x00\xff"

    def test_bytes_like_copied_to_bytes(self):
        for value in (bytearray(b"ab"), memoryview(b"ab")):
            assert type(as_bytes(value)) is bytes and as_bytes(value) == b"ab"

    @pytest.mark.parametrize("value", [3, 0, [97, 98], None, 2.5])
    def test_other_types_rejected(self, value):
        # bytes(3) is three zero bytes and bytes([97, 98]) is b"ab"; neither is text
        with pytest.raises(TypeError):
            as_bytes(value)
