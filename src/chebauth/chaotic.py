"""Extended Chebyshev polynomials over a prime field.

Evaluation is exact modular arithmetic, so the commutative semigroup
identity T_u(T_v(x)) = T_v(T_u(x)) = T_{u*v}(x) holds bit for bit. That
identity is what the key-agreement protocol and its attacks rest on;
floating-point chaotic dynamics are deliberately out of scope.

The evaluation kernel is the hot loop of every simulation. It runs one
right-to-left recurrence on the Lucas sequence V_n = 2*T_n, built from the
addition rule V_{a+b} = V_a*V_b - V_{a-b} (Joye and Quisquater, "Efficient
computation of full Lucas sequences", Electronics Letters 32(6), 1996). Per
exponent bit it costs one product and one squaring (V_{2^(j+1)} =
V_{2^j}^2 - 2). _cheb_pure keeps a T-form fast-doubling kernel as the
reference of the benchmark's kernel-agreement gate; the tests compare this
kernel with their own T-form oracle, tests/reference_scheme.cheb, and with
the naive recurrence.

The squarings depend on the base alone. A base evaluated again and again,
an authenticated user's long-term key K, has them stored once: 64 values,
after which an exponent below EXPONENT_LIMIT = 2^64, the bound that
RandomSource.draw_exponent draws below, costs one product per bit. Only
_tabulate fills that process-wide memo.
"""

from math import isqrt

from ._value import Frozen, _require

#: Name of the evaluation kernel. There is one; the CLI reports carry it.
backend_name: str = "pure"

#: Default modulus: the 256-bit prime 2**256 - 2**32 - 977 (the secp256k1
#: base field prime). Tests override it with small primes such as 17 or 101
#: when comparing against the naive recurrence.
DEFAULT_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F


class FieldElement(Frozen):
    """An integer in [0, p) with its modulus attached.

    The modulus is assumed prime; protocol.Params validates primality once
    (see is_probable_prime), not on every element. An odd p > 3 keeps
    T_0, T_1 and the doubling identities non-degenerate and makes 2
    invertible, which the V-form kernel's final halving needs. A value or
    modulus that is not exactly an int (a float, a bool) is refused with
    TypeError, as Timestamp and Params refuse theirs.
    """

    __slots__ = __match_args__ = ("value", "p")

    def __init__(self, value: int, p: int):
        if not type(value) is type(p) is int:
            raise TypeError(f"FieldElement fields must be ints: {[type(f).__name__ for f in (value, p)]}")
        if p <= 3 or p % 2 == 0:
            raise ValueError("modulus must be a prime greater than 3")
        if not 0 <= value < p:
            raise ValueError("value out of range [0, p)")
        self._fill(value, p)

    def to_bytes(self) -> bytes:
        """Canonical fixed-width big-endian encoding, as hashed on the wire."""
        return self.value.to_bytes((self.p.bit_length() + 7) // 8, "big")

    def __str__(self):
        return str(self.value)


#: Every map exponent the protocol draws is below this bound, and a memo
#: entry holds one V_{2^j} per bit of such an exponent.
EXPONENT_LIMIT = 1 << 64
_tables: dict = {}  # (value, p) -> (V_1, V_2, V_4, ..., V_{2^63})


def _doublings(c: int, count: int, p: int):
    """Yield count terms V_k, V_2k, V_4k, ... mod p from c = V_k, by V_2k = V_k^2 - 2."""
    for _ in range(count):
        yield c
        c = (c * c - 2) % p


def _tabulate(x: FieldElement) -> None:
    """Store the squaring chain of x, which cheb_eval reads from then on.

    Entry j is V_{2^j} = 2*T_{2^j}(x) mod p, the j-th of _doublings from
    V_1 = 2x: about half an evaluation without the chain. The first chain
    stored for a key is kept, and none is evicted: a chain is 64 field
    elements, about 4.5 KB at the 256-bit prime.
    """
    key = (x.value, x.p)
    if key not in _tables:
        _tables[key] = tuple(_doublings(2 * x.value % x.p, EXPONENT_LIMIT.bit_length() - 1, x.p))


def cheb_eval(n: int, x: FieldElement) -> FieldElement:
    """Evaluate T_n(x) mod p in O(log n) field multiplications.

    T_0(x) = 1, T_1(x) = x, T_n(x) = 2*x*T_{n-1}(x) - T_{n-2}(x). n = 0 is
    accepted (and returns 1) even though the protocol never samples it. An n
    not exactly an int (a bool, say) or an x not a FieldElement is a TypeError.

    Works on V_k = 2*T_k from the low bit of n up, by V_{a+b} = V_a*V_b -
    V_{a-b}. With s = n mod 2^j it carries v = V_s and w = V_{2^j - s}, and
    at bit j, with c = V_{2^j}, sets
        v = v*c - w   on a 1 (s grows by 2^j),
        w = w*c - v   on a 0,
    then halves V_n once. A base that _tabulate has stored reads c from its
    chain when n < EXPONENT_LIMIT: one product per bit. Any other base or
    exponent squares c = c^2 - 2 as it goes, two products per bit.
    """
    if not (type(n) is int and type(x) is FieldElement):
        raise TypeError(f"cheb_eval takes an int and a FieldElement: {[type(f).__name__ for f in (n, x)]}")
    if n < 0:
        raise ValueError("exponent must be non-negative")
    p = x.p
    if n == 0:
        return FieldElement(1, p)
    v, w = 2, 2 * x.value % p
    bits = bin(n)[:2:-1]  # below the top bit, least significant first
    chain = _tables.get((x.value, p)) if n < EXPONENT_LIMIT else None
    if chain:
        for bit, c in zip(bits, chain):
            if bit == "1":
                v = (v * c - w) % p
            else:
                w = (w * c - v) % p
        c = chain[len(bits)]
    else:
        c = w
        for bit in bits:
            if bit == "1":
                v = (v * c - w) % p
            else:
                w = (w * c - v) % p
            c = (c * c - 2) % p
    v = (v * c - w) % p  # the top bit is a 1
    # p is odd, so V_n/2 mod p is V_n >> 1 or (V_n + p) >> 1, whichever is exact.
    return FieldElement((v + p) >> 1 if v & 1 else v >> 1, p)


def bits_to_field(bits: bytes, p: int) -> FieldElement:
    """Map a bit string to the field: big-endian unsigned integer, reduced mod p.

    Accepts any bytes-like value (bytes, bytearray, memoryview).
    """
    return FieldElement(int.from_bytes(bits, "big") % p, p)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW primality check; no composite that passes it is known.

    Trial division by the primes up to 37, one strong (Miller-Rabin) round to
    base 2, then the almost-extra-strong Lucas test (Baillie, Fiori and
    Wagstaff, "Strengthening the Baillie-PSW primality test", Math. Comp. 90,
    2021): with the least P >= 3 for which (P^2 - 4 / n) = -1 and
    n + 1 = d*2^s, n passes iff V_d = +-2 or V_{d*2^r} = 0 for some r < s - 1,
    where V_k = V_k(P, 1) = 2*T_k(P/2) mod n is cheb_eval's own sequence.
    A fixed set of Miller-Rabin bases would not do: composites that pass
    every base up to 37 are known, and more can be built for any set. An n
    not exactly an int is a TypeError: 7.0 would pass, and True fail, as ints.
    """
    _require(n, int, "n")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    y = pow(2, d, n)
    if y != 1 and y != n - 1:
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    if isqrt(n) ** 2 == n:  # no P would give -1
        return False
    P = 3
    while (symbol := _jacobi(P * P - 4, n)) == 1:
        P += 1
    if symbol == 0:  # a factor shared with P^2 - 4; a prime n > 37 meets a -1 before P = n - 2
        return False
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    v = 2 * cheb_eval(d, FieldElement(P * pow(2, -1, n) % n, n)).value % n
    return v in (2, n - 2) or 0 in _doublings(v, s - 1, n)
