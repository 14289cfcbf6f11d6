"""The Chebyshev kernel, the fixed-base memo, field elements and the prime check.

test_kernel_agrees_with_both_oracles is the one place that checks cheb_eval
against its oracles, reference_scheme.cheb and the naive recurrence: at seven
moduli, on the cold path and on the tabulated one. The semigroup identity is
test_chaotic_properties.py's, and acceptance criterion 2 sweeps the cold path
against the naive recurrence.
"""

import random
from itertools import takewhile

import pytest

from chebauth import chaotic
from chebauth.chaotic import DEFAULT_PRIME, FieldElement, bits_to_field, cheb_eval, is_probable_prime

from helpers import PSI_12, PSI_13, cheb_naive, cheb_naive_sequence
from reference_scheme import cheb


fe = FieldElement


class TestFieldElement:
    def test_serialization_is_fixed_width(self):
        assert fe(3, 17).to_bytes() == b"\x03"
        assert len(fe(1, DEFAULT_PRIME).to_bytes()) == 32
        assert fe(1, DEFAULT_PRIME).to_bytes() == b"\x00" * 31 + b"\x01"


class TestChebEval:
    def test_naive_oracle_matches_hand_derivation(self):
        # T_2(5) = 2*5*5 - 1 = 49 = 15 mod 17
        assert cheb_naive(2, 5, 17) == 15

# Bit-length edges: 2^k - 1 sets v at every bit, 2^k sets w at every bit
# below the top one, 2^k + 1 mixes both; 2^63 reads the chain's last entry,
# 2^64 - 1 is the memo's top exponent, and from 2^64 up a tabulated base
# squares its own chain.
EDGE_EXPONENTS = (0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
                  (1 << 64) - 8, (1 << 64) - 2, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1)
MODULI = {"5": 5, "17": 17, "101": 101, "2^31-1": (1 << 31) - 1, "2^61-1": (1 << 61) - 1,
          "2^64-59": (1 << 64) - 59, "p256": DEFAULT_PRIME}


@pytest.mark.parametrize("tabulated", [False, True], ids=["cold", "tabulated"])
@pytest.mark.parametrize("p", list(MODULI.values()), ids=list(MODULI))
def test_kernel_agrees_with_both_oracles(cold_memo, p, tabulated):
    # the bases 0, 1, 2 and p - 1 start V_1 = 2x at 0, 2, 4 and the odd p - 2
    rng = random.Random(p)
    exponents = EDGE_EXPONENTS + tuple(rng.randrange(1 << rng.choice((10, 33, 64, 128))) for _ in range(30))
    for value in (0, 1, 2, p - 1, *(rng.randrange(p) for _ in range(4))):
        x = fe(value, p)
        if tabulated:
            chaotic._tabulate(x)
        for n in exponents:
            assert cheb_eval(n, x).value == cheb(n, value, p), (n, value)
        if tabulated and p == 101:  # acceptance criterion 2 sweeps the cold path
            assert [cheb_eval(n, x).value for n in range(2001)] == cheb_naive_sequence(2000, value, p), value


class TestFixedBaseTable:
    def test_which_path_runs(self, cold_memo):
        x = fe(123456789, DEFAULT_PRIME)
        # plant another base's chain under x: an exponent that reads it goes wrong
        chaotic._tabulate(fe(987654321, DEFAULT_PRIME))
        cold_memo[(x.value, DEFAULT_PRIME)] = cold_memo.popitem()[1]
        below = (1, 2, 5, 1 << 63, (1 << 64) - 1)
        for n in below:
            assert cheb_eval(n, x).value != cheb(n, x.value, DEFAULT_PRIME), n
        # exponents from 2^64 up square their own chain, and still agree
        for n in (1 << 64, (1 << 64) + 1, (1 << 100) + 12345, (1 << 128) - 1):
            assert cheb_eval(n, x).value == cheb(n, x.value, DEFAULT_PRIME), n
        # and so does every exponent once x has no memo entry
        del cold_memo[(x.value, DEFAULT_PRIME)]
        for n in below:
            assert cheb_eval(n, x).value == cheb(n, x.value, DEFAULT_PRIME), n

    def test_tabulate_keeps_the_first_table(self, cold_memo):
        x = fe(5, 101)
        chaotic._tabulate(x)
        chain = cold_memo[(5, 101)]
        chaotic._tabulate(fe(5, 101))
        assert list(cold_memo) == [(5, 101)] and cold_memo[(5, 101)] is chain
        assert 2 ** len(chain) == chaotic.EXPONENT_LIMIT
        assert list(chain) == [2 * cheb(1 << j, 5, 101) % 101 for j in range(64)]


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

    @pytest.mark.parametrize("n", [41 * 43, 151 * 751 * 28351, PSI_12, PSI_13, 1093**2, 3511**2],
                             ids=["1763", "3215031751", "psi12", "psi13", "1093^2", "3511^2"])
    def test_composite_rejected_by_a_witness(self, n):
        # no factor below 38, so trial division passes it and only the base-2 round,
        # the perfect-square check or the Lucas test rejects it; 3215031751 is a strong
        # pseudoprime to 2, 3, 5 and 7, psi12 and psi13 to every prime base up to 37 and
        # up to 41, and the squares of the Wieferich primes 1093 and 3511 to base 2, so
        # the perfect-square check refuses them, as no P gives a square the symbol -1
        assert all(n % q for q in range(2, 38))
        assert not is_probable_prime(n)

    def test_agrees_with_trial_division_below_100000(self):
        primes = []
        for n in range(2, 10**5):
            if all(n % q for q in takewhile(lambda q: q * q <= n, primes)):
                primes.append(n)
        assert [n for n in range(10**5) if is_probable_prime(n)] == primes
