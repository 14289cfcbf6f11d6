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
V_{2^j}^2 - 2). _cheb_pure keeps the T-form fast-doubling kernel as the
reference the tests compare it against.

The squarings depend on the base alone. A base evaluated again and again,
an authenticated user's long-term key K, has them stored once: 64 values,
after which an exponent below 2^64 costs one product per bit. Only
_tabulate fills that process-wide memo.
"""

from ._value import Frozen, _set

#: Name of the evaluation kernel. There is one; the CLI reports carry it.
backend_name: str = "pure"

#: Default modulus: the 256-bit prime 2**256 - 2**32 - 977 (the secp256k1
#: base field prime). Tests override it with small primes such as 17 or 101
#: when comparing against the naive recurrence.
DEFAULT_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F


class FieldElement(Frozen):
    """An integer in [0, p) with its modulus attached.

    The modulus is assumed prime; primality is validated once at parameter
    setup (see is_probable_prime), not on every element. An odd p > 3 keeps
    T_0, T_1 and the doubling identities non-degenerate and makes 2
    invertible, which the V-form kernel's final halving needs.
    """

    __slots__ = __match_args__ = ("value", "p")

    def __init__(self, value: int, p: int):
        if p <= 3 or p % 2 == 0:
            raise ValueError("modulus must be a prime greater than 3")
        if not 0 <= value < p:
            raise ValueError("value out of range [0, p)")
        _set(self, "value", value)
        _set(self, "p", p)

    @property
    def byte_width(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Canonical fixed-width big-endian encoding, as hashed on the wire."""
        return self.value.to_bytes(self.byte_width, "big")

    def __str__(self):
        return str(self.value)


# Memo entries cover RandomSource.EXPONENT_RANGE (primitives imports this
# module): one V_{2^j} per bit of an exponent below 2^64.
_TABLE_LIMIT = 1 << 64
_tables: dict = {}  # (value, p) -> (V_1, V_2, V_4, ..., V_{2^63})


def _tabulate(x: FieldElement) -> None:
    """Store the squaring chain of x, which cheb_eval reads from then on.

    Entry j is V_{2^j} = 2*T_{2^j}(x) mod p, each the previous one squared
    minus 2: 63 squarings, about half an evaluation without the chain. There
    is no eviction: a chain is 64 field elements, about 4.5 KB at the
    256-bit prime.
    """
    key = (x.value, x.p)
    if key in _tables:
        return
    p = x.p
    c = 2 * x.value % p
    chain = [c]
    for _ in range(_TABLE_LIMIT.bit_length() - 2):
        c = (c * c - 2) % p
        chain.append(c)
    _tables[key] = tuple(chain)


def cheb_eval(n: int, x: FieldElement) -> FieldElement:
    """Evaluate T_n(x) mod p in O(log n) field multiplications.

    T_0(x) = 1, T_1(x) = x, T_n(x) = 2*x*T_{n-1}(x) - T_{n-2}(x). n = 0 is
    accepted (and returns 1) even though the protocol never samples it.

    Works on V_k = 2*T_k from the low bit of n up, by V_{a+b} = V_a*V_b -
    V_{a-b}. With s = n mod 2^j it carries v = V_s and w = V_{2^j - s}, and
    at bit j, with c = V_{2^j}, sets
        v = v*c - w   on a 1 (s grows by 2^j),
        w = w*c - v   on a 0,
    then halves V_n once. A base that _tabulate has stored reads c from its
    chain when n < 2^64: one product per bit. Any other base or exponent
    squares c = c^2 - 2 as it goes, two products per bit.
    """
    if n < 0:
        raise ValueError("exponent must be non-negative")
    p = x.p
    if n == 0:
        return FieldElement(1, p)
    v, w = 2, 2 * x.value % p
    bits = bin(n)[:2:-1]  # below the top bit, least significant first
    chain = _tables.get((x.value, p)) if n < _TABLE_LIMIT else None
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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check.

    Deterministic for n < 3.3e24 with the fixed base set; for larger n a
    strong pseudoprime to all twelve bases is not a practical concern for
    validating configuration input.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True
