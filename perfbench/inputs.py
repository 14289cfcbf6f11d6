"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its seed: the same seed gives the
same inputs, byte for byte, on every machine (string seeds to
``random.Random`` are hashed with SHA-512, independent of PYTHONHASHSEED).
Nothing here imports chebauth, so the library only ever sees the values
these functions return.
"""

import random
from dataclasses import dataclass
from pathlib import Path

_ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-!@#%+="
# Two- and three-byte UTF-8 characters for the multi-byte candidates.
_MULTIBYTE = "éüßøñçжщλΩあ漢字€"

#: Candidate passwords are this many UTF-8 bytes long, inclusive.
PASSWORD_BYTES = (6, 16)
#: Share of generated passwords that contain at least one multi-byte character.
MULTIBYTE_SHARE = 0.25

#: login-mix operation kinds and their counts in every block of 20 operations.
LOGIN_MIX = (("login", 16), ("wrong", 2), ("change", 1), ("reissue", 1))
LOGIN_MIX_BLOCK = sum(count for _, count in LOGIN_MIX)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def password(rng: random.Random, ascii_only: bool = False) -> str:
    """One password of 6-16 UTF-8 bytes; about a quarter hold multi-byte characters."""
    size = rng.randint(*PASSWORD_BYTES)
    multibyte = not ascii_only and rng.random() < MULTIBYTE_SHARE
    chars, used = [], 0
    while used < size:
        char = rng.choice(_ASCII)
        if multibyte:
            wide = rng.choice(_MULTIBYTE)
            if used + len(wide.encode("utf-8")) <= size:
                char, multibyte = wide, rng.random() < 0.5
        chars.append(char)
        used += len(char.encode("utf-8"))
    return "".join(chars)


@dataclass(frozen=True)
class Op:
    """One login-mix operation on the card at index ``card``."""

    kind: str  # "login" | "wrong" | "change" | "reissue"
    card: int
    new_password: str | None = None  # set for "change"


def login_population(seed: int, size: int) -> list[tuple[str, str]]:
    """``size`` (identity, password) pairs with distinct identities."""
    rng = _rng(seed, "population")
    return [(f"user-{index:05d}-{rng.getrandbits(32):08x}", password(rng)) for index in range(size)]


def login_mix_ops(seed: int, population: int):
    """Endless login-mix operation stream over cards ``0 .. population-1``.

    Each block of 20 operations holds exactly 16 honest logins, 2 wrong-password
    logins, 1 password change and 1 re-issue, in shuffled order; every
    operation picks its card uniformly at random.
    """
    rng = _rng(seed, "ops")
    block = [kind for kind, count in LOGIN_MIX for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            card = rng.randrange(population)
            yield Op(kind, card, password(rng) if kind == "change" else None)


def dictionary_words(rng: random.Random, size: int, true_password: str) -> list[str]:
    """``size`` distinct candidates with ``true_password`` planted last."""
    seen = {true_password}
    words = []
    while len(words) < size - 1:
        word = password(rng)
        if word not in seen:
            seen.add(word)
            words.append(word)
    words.append(true_password)
    return words


def write_dictionary(path: Path, words: list[str]):
    """Write a word list in the ``Dictionary.from_file`` format: UTF-8, LF-terminated."""
    path.write_bytes(("\n".join(words) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class Victim:
    """A registered user whose login the attacker eavesdrops."""

    server_seed: int
    rng_seed: int
    identity: str
    password: str


def victim(seed: int) -> Victim:
    rng = _rng(seed, "victim")
    server_seed, rng_seed = rng.getrandbits(32), rng.getrandbits(32)
    return Victim(server_seed, rng_seed, f"victim-{rng.getrandbits(32):08x}", password(rng))


def guess_scan_words(seed: int, size: int, true_password: str) -> list[str]:
    """The guess-scan dictionary: ``size`` candidates, the victim's password last."""
    return dictionary_words(_rng(seed, "guess-dictionary"), size, true_password)


@dataclass(frozen=True)
class CliInputs:
    """Fixture of one cli-runs cycle: flags shared by all six invocations."""

    seed: int
    identity: str
    password: str
    absent_password: str
    words: tuple


def cli_inputs(seed: int, dict_size: int) -> CliInputs:
    """CLI fixture; passwords on the command line are ASCII, the word list is not."""
    rng = _rng(seed, "cli")
    pw = password(rng, ascii_only=True)
    words = dictionary_words(rng, dict_size, pw)
    absent = pw
    while absent in words:
        absent = password(rng, ascii_only=True)
    return CliInputs(rng.getrandbits(31), f"cli-{rng.getrandbits(32):08x}", pw, absent, tuple(words))


def cli_argvs(inputs: CliInputs, dict_path: str) -> list[list[str]]:
    """The six README invocations of one cycle, as ``chebauth`` argument lists.

    Values are attached with ``=``: a generated password may start with ``-``,
    which argparse would otherwise read as the next option.
    """
    common = [f"--seed={inputs.seed}", f"--id={inputs.identity}"]
    password, absent, words = (f"--password={inputs.password}",
                               f"--password={inputs.absent_password}", f"--dict={dict_path}")
    return [
        ["honest-run", *common, password],
        ["guess-attack", *common, password, words],
        ["guess-attack", *common, absent, words, "--expect-miss"],
        ["wrong-login-demo", *common, password],
        ["dos-demo", *common, password],
        ["dos-demo", *common, password, "--correct-old-password"],
    ]


def kernel_sample(seed: int, size: int, prime: int) -> list[tuple[int, int]]:
    """(64-bit exponent, field point) pairs for the kernel-agreement gate."""
    rng = _rng(seed, "kernel")
    return [(rng.randrange(2, 1 << 64), rng.randrange(prime)) for _ in range(size)]
