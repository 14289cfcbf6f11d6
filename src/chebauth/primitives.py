"""Fixed-width bit strings, hashing, randomness, logical time, op counters.

Every value a protocol message carries is either a BitString of the system
width, a FieldElement, or a Timestamp; all three have canonical fixed-width
big-endian encodings so concatenations hash identically everywhere.
"""

import hashlib
import random
from dataclasses import dataclass

from .chaotic import FieldElement

#: Default system width l in bits. Must be a multiple of 8 and at most 256
#: (digests are truncated SHA-256). Small widths exist for collision tests.
DEFAULT_WIDTH = 256

_DOMAIN_H = b"\x01"  # domain-separation prefix for h (byte-string hash)
_DOMAIN_BIG_H = b"\x02"  # domain-separation prefix for H (field-element hash)

_H_PREFIX = hashlib.sha256(_DOMAIN_H)  # never updated; h_state() hands out copies


class WidthMismatch(ValueError):
    """Operands of a width-preserving operation disagree on bit width."""


def _check_width(width: int):
    if width % 8 != 0 or not 8 <= width <= 256:
        raise ValueError(f"width must be a multiple of 8 in [8, 256], got {width}")


def as_bytes(value) -> bytes:
    """Coerce str (UTF-8) or bytes-like input to bytes."""
    if isinstance(value, str):
        return value.encode("utf-8")
    return bytes(value)


@dataclass(frozen=True)
class BitString:
    """Immutable bit vector; width is len(data) * 8, most significant bit first."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) == 0:
            raise ValueError("BitString may not be empty")

    @classmethod
    def zeros(cls, width: int) -> "BitString":
        _check_width(width)
        return cls(bytes(width // 8))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        _check_width(width)
        return cls(value.to_bytes(width // 8, "big"))

    @property
    def width(self) -> int:
        return len(self.data) * 8

    def to_int(self) -> int:
        return int.from_bytes(self.data, "big")

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True, order=True)
class Timestamp:
    """Logical time instant, in non-negative integer ticks."""

    ticks: int

    def __post_init__(self):
        if self.ticks < 0:
            raise ValueError("ticks must be non-negative")

    def to_bytes(self) -> bytes:
        return self.ticks.to_bytes(8, "big")

    def __sub__(self, other: "Timestamp") -> int:
        return self.ticks - other.ticks


class LogicalClock:
    """Monotone tick counter shared by the simulated parties."""

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("clock cannot start before tick 0")
        self.ticks = start

    def now(self) -> Timestamp:
        return Timestamp(self.ticks)

    def advance(self, ticks: int):
        if ticks < 0:
            raise ValueError("clock cannot move backwards")
        self.ticks += ticks


@dataclass
class OpCounts:
    """Tallies of hash, XOR, and Chebyshev-map evaluations."""

    n_hash: int = 0
    n_xor: int = 0
    n_cheb: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.n_hash + other.n_hash,
            self.n_xor + other.n_xor,
            self.n_cheb + other.n_cheb,
        )

    def as_dict(self) -> dict:
        return {"hash": self.n_hash, "xor": self.n_xor, "cheb": self.n_cheb}


class RandomSource:
    """Seeded deterministic random stream: same seed, same draw sequence."""

    EXPONENT_RANGE = (2, 1 << 64)  # degenerate exponents 0 and 1 excluded

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def draw_bits(self, width: int = DEFAULT_WIDTH) -> BitString:
        """Next width-bit string from the stream."""
        _check_width(width)
        return BitString.from_int(self._rng.getrandbits(width), width)

    def draw_exponent(self) -> int:
        """Next map exponent, uniform over [2, 2**64)."""
        return self._rng.randrange(*self.EXPONENT_RANGE)


def h_state():
    """A fresh SHA-256 state that has absorbed h's domain prefix.

    h(data) at width w is ``state.update(data)`` followed by
    ``state.digest()[: w // 8]``. Callers that hash many inputs sharing a
    leading part update one state with that part and read ``digest()``,
    which leaves the state usable, instead of rehashing it per input.
    """
    return _H_PREFIX.copy()


def hash_h(data, width: int = DEFAULT_WIDTH, counts: OpCounts | None = None) -> BitString:
    """One-way hash h of an arbitrary byte sequence to a width-bit string.

    Truncated SHA-256 with a domain prefix distinguishing h from H.
    """
    _check_width(width)
    if counts is not None:
        counts.n_hash += 1
    state = h_state()
    state.update(as_bytes(data))
    return BitString(state.digest()[: width // 8])


def hash_H(
    a: FieldElement,
    b: FieldElement,
    c: FieldElement,
    width: int = DEFAULT_WIDTH,
    counts: OpCounts | None = None,
) -> BitString:
    """One-way hash H of three field elements, order-sensitive."""
    _check_width(width)
    if counts is not None:
        counts.n_hash += 1
    payload = _DOMAIN_BIG_H + a.to_bytes() + b.to_bytes() + c.to_bytes()
    return BitString(hashlib.sha256(payload).digest()[: width // 8])


def xor(a: BitString, b: BitString, counts: OpCounts | None = None) -> BitString:
    """Bitwise exclusive-or of two equal-width strings."""
    if a.width != b.width:
        raise WidthMismatch(f"cannot XOR widths {a.width} and {b.width}")
    if counts is not None:
        counts.n_xor += 1
    n = len(a.data)
    value = int.from_bytes(a.data, "big") ^ int.from_bytes(b.data, "big")
    return BitString(value.to_bytes(n, "big"))


def concat(parts) -> bytes:
    """Join canonical encodings of BitString / FieldElement / Timestamp / bytes.

    Every protocol-carried component has a fixed width, which is what makes
    the (prefix-free) concatenation injective. Raw bytes (passwords,
    identities) are variable-length and only ever appear first, ahead of
    fixed-width components, so they stay recoverable too.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, BitString):
            out += part.data
        elif isinstance(part, (FieldElement, Timestamp)):
            out += part.to_bytes()
        elif isinstance(part, (bytes, bytearray)):
            out += part
        else:
            raise TypeError(f"cannot serialize {type(part).__name__} into a concatenation")
    return bytes(out)
