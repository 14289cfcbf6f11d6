import random

import pytest

from chebauth import chaotic
from chebauth._cheb_pure import cheb_eval_int as pure_eval
from chebauth.chaotic import DEFAULT_PRIME, FieldElement, bits_to_field, cheb_eval, is_probable_prime

from helpers import cheb_naive, cheb_naive_sequence


def fe(value, p):
    return FieldElement(value, p)


class TestFieldElement:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            FieldElement(-1, 17)
        with pytest.raises(ValueError):
            FieldElement(17, 17)
        assert FieldElement(16, 17).value == 16

    def test_small_moduli_rejected(self):
        for p in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                FieldElement(0, p)
        # the V-form kernel halves mod p, so 2 must be invertible
        for p in (4, 18, 1 << 256):
            with pytest.raises(ValueError, match="modulus must be a prime greater than 3"):
                FieldElement(0, p)

    def test_serialization_is_fixed_width(self):
        assert fe(3, 17).to_bytes() == b"\x03"
        assert len(fe(1, DEFAULT_PRIME).to_bytes()) == 32
        assert fe(1, DEFAULT_PRIME).to_bytes() == b"\x00" * 31 + b"\x01"


class TestChebEval:
    def test_t0_is_one(self):
        assert cheb_eval(0, fe(5, 17)).value == 1

    def test_t1_is_identity(self):
        assert cheb_eval(1, fe(5, 17)).value == 5

    def test_t2_matches_hand_derivation(self):
        # naive recurrence: T_2(5) = 2*5*5 - 1 = 49 = 15 mod 17
        assert cheb_eval(2, fe(5, 17)).value == 15
        assert cheb_naive(2, 5, 17) == 15

    def test_composition_example(self):
        # T_6(3) and T_2(T_3(3)) over p=101, both sides against the oracle
        inner = cheb_eval(3, fe(3, 101))
        assert inner.value == cheb_naive(3, 3, 101)
        composed = cheb_eval(2, inner)
        direct = cheb_eval(6, fe(3, 101))
        assert composed == direct
        assert direct.value == cheb_naive(6, 3, 101)
        assert composed.value == cheb_naive(2, cheb_naive(3, 3, 101), 101)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            cheb_eval(-1, fe(5, 17))

    def test_matches_oracle_exhaustively_small_prime(self):
        rng = random.Random(101)
        for x in [0, 1, 100] + [rng.randrange(101) for _ in range(5)]:
            seq = cheb_naive_sequence(2000, x, 101)
            for n in range(2001):
                assert cheb_eval(n, fe(x, 101)).value == seq[n], (n, x)

    def test_matches_oracle_default_prime(self):
        rng = random.Random(256)
        for _ in range(4):
            x = rng.randrange(DEFAULT_PRIME)
            seq = cheb_naive_sequence(512, x, DEFAULT_PRIME)
            for n in range(513):
                assert cheb_eval(n, fe(x, DEFAULT_PRIME)).value == seq[n]
        # large random exponents against the one-shot naive oracle
        for _ in range(10):
            n = rng.randrange(2, 5000)
            x = rng.randrange(DEFAULT_PRIME)
            assert cheb_eval(n, fe(x, DEFAULT_PRIME)).value == cheb_naive(n, x, DEFAULT_PRIME)

    def test_semigroup_randomized(self):
        rng = random.Random(7)
        for p in (101, DEFAULT_PRIME):
            rounds = 1000 if p == 101 else 200
            for _ in range(rounds):
                u = rng.randrange(1, (1 << 20) + 1)
                v = rng.randrange(1, (1 << 20) + 1)
                x = fe(rng.randrange(p), p)
                uv_x = cheb_eval(u * v, x)
                assert cheb_eval(u, cheb_eval(v, x)) == uv_x
                assert cheb_eval(v, cheb_eval(u, x)) == uv_x

    def test_semigroup_with_protocol_sized_exponents(self):
        rng = random.Random(8)
        for _ in range(25):
            u = rng.randrange(2, 1 << 64)
            v = rng.randrange(2, 1 << 64)
            x = fe(rng.randrange(DEFAULT_PRIME), DEFAULT_PRIME)
            assert cheb_eval(u, cheb_eval(v, x)) == cheb_eval(v, cheb_eval(u, x))
            assert cheb_eval(u, cheb_eval(v, x)) == cheb_eval(u * v, x)

    def test_deterministic(self):
        x = fe(1234567, DEFAULT_PRIME)
        assert cheb_eval(98765, x) == cheb_eval(98765, x)


class TestBackends:
    def test_pure_kernel_validates_input(self):
        with pytest.raises(ValueError):
            pure_eval(-1, 0, 17)
        with pytest.raises(ValueError):
            pure_eval(3, 0, 1)
        assert pure_eval(3, 5, 2) == 485 % 2  # T_3(5) = 4 * 5**3 - 3 * 5; 2 is the least modulus

    def test_kernel_agrees_with_reference(self, cold_memo):
        rng = random.Random(42)
        moduli = [5, 17, 101, (1 << 31) - 1, (1 << 61) - 1, (1 << 64) - 59, DEFAULT_PRIME]
        for _ in range(500):
            p = rng.choice(moduli)
            n = rng.randrange(0, 1 << rng.choice([3, 10, 33, 64, 128]))
            x = rng.randrange(p)
            assert cheb_eval(n, fe(x, p)).value == pure_eval(n, x, p), (n, x, p)
        # the recurrence's start values, and p - 1 where V_1 = 2x mod p is odd
        for p in moduli:
            for n in (0, 1, 2):
                for x in (0, 1, p - 1):
                    assert cheb_eval(n, fe(x, p)).value == pure_eval(n, x, p), (n, x, p)
        # degenerate bases (V_1 = 0, 2 and p - 2) at exponents of 1, 2, 63, 64
        # and 65 bits, without and then with a memo entry; 65 bits is past it
        for p in (17, 101, DEFAULT_PRIME):
            for bits in (1, 2, 63, 64, 65):
                exponents = (1 << (bits - 1), (1 << bits) - 1, rng.randrange(1 << (bits - 1), 1 << bits))
                for x in (0, 1, p - 1):
                    for memo in (False, True):
                        if memo:
                            chaotic._tabulate(fe(x, p))
                        for n in exponents:
                            assert cheb_eval(n, fe(x, p)).value == pure_eval(n, x, p), (n, x, p, memo)

    def test_selected_backend_is_exposed(self):
        assert chaotic.backend_name == "pure"


# Bit-length edges: 2^k - 1 sets v at every bit, 2^k sets w at every bit
# below the top one, 2^k + 1 mixes both; 2^63 reads the chain's last entry
# and 2^64 - 1 is the memo's top exponent.
EDGE_EXPONENTS = (0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
                  (1 << 64) - 8, (1 << 64) - 2, (1 << 64) - 1)


class TestFixedBaseTable:
    def test_table_path_matches_ladder_and_reference(self, cold_memo):
        rng = random.Random(64)
        for p in (17, 101, DEFAULT_PRIME):
            for value in (0, 1, 2, p - 1, *(rng.randrange(p) for _ in range(4))):
                x = fe(value, p)
                exponents = EDGE_EXPONENTS + tuple(rng.randrange(1 << 64) for _ in range(30))
                cold = [cheb_eval(n, x) for n in exponents]
                chaotic._tabulate(x)
                assert (value, p) in cold_memo
                for n, expected in zip(exponents, cold):
                    got = cheb_eval(n, x)
                    assert got == expected and got.value == pure_eval(n, value, p), (n, value, p)

    def test_table_matches_oracle_exhaustively_small_prime(self, cold_memo):
        rng = random.Random(102)
        for value in (0, 1, 2, 100, *(rng.randrange(101) for _ in range(4))):
            x = fe(value, 101)
            chaotic._tabulate(x)
            seq = cheb_naive_sequence(2000, value, 101)
            for n in range(2001):
                assert cheb_eval(n, x).value == seq[n], (n, value)

    def test_which_path_runs(self, cold_memo):
        x = fe(123456789, DEFAULT_PRIME)
        # plant another base's chain under x: an exponent that reads it goes wrong
        chaotic._tabulate(fe(987654321, DEFAULT_PRIME))
        cold_memo[(x.value, DEFAULT_PRIME)] = cold_memo.popitem()[1]
        below = (1, 2, 5, 1 << 63, (1 << 64) - 1)
        for n in below:
            assert cheb_eval(n, x).value != pure_eval(n, x.value, DEFAULT_PRIME), n
        # exponents from 2^64 up square their own chain, and still agree
        for n in (1 << 64, (1 << 64) + 1, (1 << 100) + 12345, (1 << 128) - 1):
            assert cheb_eval(n, x).value == pure_eval(n, x.value, DEFAULT_PRIME), n
        # and so does every exponent once x has no memo entry
        del cold_memo[(x.value, DEFAULT_PRIME)]
        for n in below:
            assert cheb_eval(n, x).value == pure_eval(n, x.value, DEFAULT_PRIME), n

    def test_tabulate_keeps_the_first_table(self, cold_memo):
        x = fe(5, 101)
        chaotic._tabulate(x)
        chain = cold_memo[(5, 101)]
        chaotic._tabulate(fe(5, 101))
        assert list(cold_memo) == [(5, 101)] and cold_memo[(5, 101)] is chain
        assert len(chain) == 64
        assert list(chain) == [2 * pure_eval(1 << j, 5, 101) % 101 for j in range(64)]

    def test_table_covers_the_protocol_exponents(self, cold_memo):
        chaotic._tabulate(fe(5, 101))
        assert 2 ** len(cold_memo[(5, 101)]) == chaotic.EXPONENT_LIMIT


class TestBitsToField:
    def test_zero_bits(self):
        assert bits_to_field(bytes(32), 17).value == 0

    def test_value_equal_to_modulus_reduces_to_zero(self):
        assert bits_to_field((17).to_bytes(32, "big"), 17).value == 0

    def test_small_value_passthrough(self):
        assert bits_to_field((1).to_bytes(32, "big"), 17).value == 1

    def test_accepts_raw_bytes(self):
        assert bits_to_field(b"\x00\x12", 101).value == 18 % 101
        data = bytes(range(1, 33))
        for p in (101, DEFAULT_PRIME):
            expected = FieldElement(int.from_bytes(data, "big") % p, p)
            for bits in (data, bytearray(data), memoryview(data)):
                assert bits_to_field(bits, p) == expected, type(bits)
            assert bits_to_field(memoryview(data)[::2], p) == bits_to_field(data[::2], p)

    def test_deterministic_big_endian(self):
        assert bits_to_field(b"\x01\x00", 1009).value == 256


class TestPrimality:
    def test_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(17)
        assert is_probable_prime(101)
        assert is_probable_prime((1 << 61) - 1)
        assert is_probable_prime(DEFAULT_PRIME)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(561)  # Carmichael
        assert not is_probable_prime(DEFAULT_PRIME - 1)

    @pytest.mark.parametrize("n", [41 * 43, 151 * 751 * 28351], ids=["1763", "3215031751"])
    def test_composite_rejected_by_a_witness(self, n):
        # no factor below 38, so trial division by the bases passes it and only a
        # witness rejects it; 3215031751 is a strong pseudoprime to 2, 3, 5 and 7, so 11 does
        assert all(n % q for q in range(2, 38))
        assert not is_probable_prime(n)
