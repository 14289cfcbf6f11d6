import random

import pytest

from chebauth.chaotic import FieldElement
from chebauth.primitives import (
    LogicalClock,
    RandomSource,
    Timestamp,
    H_digest,
    as_bytes,
    h_digest,
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


class TestHashH:
    # h hashes the join of its parts, and a width of 8 bytes is the digest's prefix
    @pytest.mark.parametrize("width, parts, digest", [
        (32, (b"a",), H_OF_A), (32, (b"b",), H_OF_B), (32, (b"",), H_OF_EMPTY), (32, (b"", b"a", b""), H_OF_A),
        (8, (b"a",), H_OF_A[:16]), (8, (b"b",), H_OF_B[:16])], ids=["a", "b", "empty", "join", "a-8", "b-8"])
    def test_pinned_digests(self, width, parts, digest):
        assert h_digest(width, *parts).hex() == digest


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
    def test_group_laws_randomized(self):
        rng = random.Random(2)
        zero = bytes(32)
        for _ in range(1000):
            a, b, c = rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)
            assert xor_bytes(a, a) == zero
            assert xor_bytes(a, zero) == a
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


class TestRandomSource:
    @pytest.mark.parametrize("seed, draw", [(1, SEED1_FIRST_DRAW), (2, SEED2_FIRST_DRAW)])
    def test_pinned_first_draws(self, seed, draw):
        assert RandomSource(seed).draw_bytes(32).hex() == draw

    def test_exponent_range(self):
        rng = RandomSource(5)
        for _ in range(1000):
            e = rng.draw_exponent()
            assert 2 <= e < (1 << 64)

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

    @pytest.mark.parametrize("ticks, encoding", [(0, bytes(8)), (1, b"\x00" * 7 + b"\x01"), ((1 << 64) - 1, b"\xff" * 8)])
    def test_timestamp_serialization(self, ticks, encoding):
        assert Timestamp(ticks).to_bytes() == encoding

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


@pytest.mark.parametrize("value, expected", [("pâte", "pâte".encode("utf-8")), (b"\x00\xff", b"\x00\xff"),
                                             (bytearray(b"\x00\xff"), b"\x00\xff"), (memoryview(b"\x00\xff"), b"\x00\xff")],
                         ids=["str", "bytes", "bytearray", "memoryview"])
def test_as_bytes_takes_str_as_utf8_and_bytes_like_as_bytes(value, expected):
    coerced = as_bytes(value, "password")
    assert type(coerced) is bytes and coerced == expected
