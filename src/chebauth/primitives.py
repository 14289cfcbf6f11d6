"""Bit strings as bytes, hashing, randomness, logical time, op counters.

Every value a protocol message carries is either bytes of the system width,
a FieldElement, or a Timestamp; all three have canonical fixed-width
big-endian encodings so concatenations hash identically everywhere, and a
Timestamp refuses ticks its 8 bytes cannot hold. Map exponents are drawn
below chaotic.EXPONENT_LIMIT, the kernel's bound.

h_digest, H_digest and xor_bytes are what the protocol phases call, and
_require the package's one check of an argument's exact class. tally adds one
exit's entry of protocol.COSTS to an OpCounts, the package's one count:
protocol.run_login_session books a login's by how it ended, and registration
and change_password book their own. hash_h, hash_H, xor and concat are the
public forms at a width in bits; they take and return bytes and count
nothing. BitString is only the shell of a retired bit-string type, kept for
the constructor hook that perfbench/tracer.py replaces; nothing in the
package builds one.
"""

import hashlib
import random

from ._value import Frozen, Record
from .chaotic import EXPONENT_LIMIT, FieldElement

#: Default system width l in bits. Must be a multiple of 8 and at most 256
#: (digests are truncated SHA-256). Small widths exist for collision tests.
DEFAULT_WIDTH = 256

# SHA-256 states that have absorbed the domain-separation prefix of h (byte
# strings) and of H (field elements). Never updated; users work on copies.
_H_PREFIX = hashlib.sha256(b"\x01")
_BIG_H_PREFIX = hashlib.sha256(b"\x02")

#: A fresh copy of h's prefix state: h(data) at width w is ``state.update(data)``
#: then ``state.digest()[: w // 8]``. Only the guess predicate uses it: ``digest()``
#: leaves the state usable, so it hashes cand || b by continuing from h(cand).
h_state = _H_PREFIX.copy

# Bound once: reading the classmethod int.from_bytes builds a bound method each time.
_from_bytes = int.from_bytes


class WidthMismatch(ValueError):
    """Operands of a width-preserving operation disagree on bit width."""


def _check_width(width: int):
    if width % 8 != 0 or not 8 <= width <= 256:
        raise ValueError(f"width must be a multiple of 8 in [8, 256], got {width}")


def as_bytes(value, name: str) -> bytes:
    """Coerce str (UTF-8) or bytes-like input to bytes; an int or any other type is a TypeError naming name."""
    if isinstance(value, str):
        return value.encode("utf-8")
    try:
        return bytes(memoryview(value))
    except TypeError as exc:
        raise TypeError(f"{name} must be str or bytes-like, got {type(value).__name__}") from exc


def _require(value, cls: type, name: str):
    """Refuse, with a TypeError naming name, a value not exactly a cls: a look-alike or subclass skips cls's checks."""
    if type(value) is not cls:
        raise TypeError(f"{name} must be {'an' if cls is int else 'a'} {cls.__name__}, got {type(value).__name__}")


class BitString(Frozen):
    """A non-empty bytes value in a class of its own; no phase builds one."""

    __slots__ = __match_args__ = ("data",)

    def __init__(self, data: bytes):
        self._fill(data)
        self.__post_init__()

    # A method of its own, looked up on the class per construction:
    # perfbench/tracer.py counts constructions by replacing it.
    def __post_init__(self):
        if not isinstance(self.data, bytes):
            self._fill(bytes(memoryview(self.data)))  # TypeError unless bytes-like
        if len(self.data) == 0:
            raise ValueError("BitString may not be empty")


class Timestamp(Frozen):
    """Logical time instant: an int of ticks in [0, 2^64), the range its 8-byte encoding holds."""

    __slots__ = __match_args__ = ("ticks",)

    def __init__(self, ticks: int):
        _require(ticks, int, "ticks")
        if not 0 <= ticks < 1 << 64:
            raise ValueError(f"ticks must be in [0, 2**64), got {ticks}")
        self._fill(ticks)

    def to_bytes(self) -> bytes:
        return self.ticks.to_bytes(8, "big")

    def __sub__(self, other: "Timestamp") -> int:
        return self.ticks - other.ticks


class LogicalClock:
    """Monotone time shared by the parties: now() is the Timestamp held, advance(n) moves it to after(n)."""

    _now = Timestamp(0)  # every clock starts here; advance rebinds it on the instance

    def now(self) -> Timestamp:
        return self._now

    def after(self, ticks: int) -> Timestamp:
        """The time ticks from now, without moving the clock; a non-int (a bool too) or one past 2^64 is refused."""
        _require(ticks, int, "ticks")  # now + True would be an int Timestamp takes
        if ticks < 0:
            raise ValueError("clock cannot move backwards")
        return Timestamp(self._now.ticks + ticks)

    def advance(self, ticks: int) -> Timestamp:
        self._now = self.after(ticks)
        return self._now


class OpCounts(Record):
    """Tallies of hash, XOR, and Chebyshev-map evaluations."""

    __slots__ = __match_args__ = ("n_hash", "n_xor", "n_cheb")

    def __init__(self, n_hash: int = 0, n_xor: int = 0, n_cheb: int = 0):
        self.n_hash = n_hash
        self.n_xor = n_xor
        self.n_cheb = n_cheb

    def as_dict(self) -> dict:
        return {"hash": self.n_hash, "xor": self.n_xor, "cheb": self.n_cheb}


def tally(counts: OpCounts | None, cost: tuple[int, int, int]):
    """Add one exit's (hash, xor, cheb), an entry of protocol.COSTS, to counts, unless counts is None."""
    if counts is not None:
        n_hash, n_xor, n_cheb = cost
        counts.n_hash += n_hash
        counts.n_xor += n_xor
        counts.n_cheb += n_cheb


class RandomSource:
    """Seeded deterministic random stream: same seed, same draw sequence."""

    def __init__(self, seed: int):
        _require(seed, int, "seed")  # random.Random seeds None from the OS, and 1.0 and True as 1
        if seed < 0:  # and -7 as 7, so either would break replay
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._rng = random.Random(seed)

    def draw_bytes(self, n: int) -> bytes:
        """Next 8n-bit draw from the stream, as n big-endian bytes."""
        return self._rng.getrandbits(8 * n).to_bytes(n, "big")

    def draw_exponent(self) -> int:
        """Next map exponent, uniform over [2, EXPONENT_LIMIT): 0 and 1 are degenerate."""
        return self._rng.randrange(2, EXPONENT_LIMIT)


def h_digest(n: int, *parts: bytes) -> bytes:
    """h of the concatenated parts, truncated to n bytes: the one h of the package."""
    state = _H_PREFIX.copy()
    state.update(b"".join(parts))
    return state.digest()[:n]


def H_digest(n: int, *parts: bytes) -> bytes:
    """H of the concatenated field encodings, truncated to n bytes: the one H."""
    state = _BIG_H_PREFIX.copy()
    state.update(b"".join(parts))
    return state.digest()[:n]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bitwise XOR of equal-length byte strings, as ints back to the full width."""
    n = len(a)
    if n != len(b):
        raise WidthMismatch(f"cannot XOR widths {8 * n} and {8 * len(b)}")
    return (_from_bytes(a, "big") ^ _from_bytes(b, "big")).to_bytes(n, "big")


def hash_h(data, width: int = DEFAULT_WIDTH) -> bytes:
    """One-way hash h of an arbitrary byte sequence to width bits, as bytes.

    Truncated SHA-256 with a domain prefix distinguishing h from H.
    """
    _check_width(width)
    return h_digest(width // 8, as_bytes(data, "data"))


def hash_H(a: FieldElement, b: FieldElement, c: FieldElement, width: int = DEFAULT_WIDTH) -> bytes:
    """One-way hash H of three field elements to width bits, order-sensitive."""
    _check_width(width)
    return H_digest(width // 8, a.to_bytes(), b.to_bytes(), c.to_bytes())


def xor(a: bytes, b: bytes) -> bytes:
    """Bitwise exclusive-or of two equal-width byte strings."""
    return xor_bytes(a, b)


def concat(parts) -> bytes:
    """Join canonical encodings of bytes / FieldElement / Timestamp.

    Every protocol-carried component has a fixed width, which is what makes
    the (prefix-free) concatenation injective. Raw bytes (passwords,
    identities) are variable-length and only ever appear first, ahead of
    fixed-width components, so they stay recoverable too.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, (FieldElement, Timestamp)):
            out += part.to_bytes()
        elif isinstance(part, (bytes, bytearray)):
            out += part
        else:
            raise TypeError(f"cannot serialize {type(part).__name__} into a concatenation")
    return bytes(out)
