"""Adversary toolkit: card extraction, transcript capture, three attacks.

The threat model gives the attacker two leaks: the values stored on the
victim's card, and the messages of an eavesdropped login. Both are needed;
either one alone validates nothing (the tests check this explicitly).
"""

import os

from ._value import Frozen, Record
from .primitives import LogicalClock, OpCounts, RandomSource, _from_bytes, _require, as_bytes, h_state

# Not called here. It stays bound because perfbench/tracer.py wraps hash_h
# under every module name bound to it, and its tests expect this one.
from .primitives import hash_h  # noqa: F401
from .protocol import (
    COSTS,
    ChannelEvent,
    LoginRequest,
    RejectReason,
    ServerState,
    SmartCard,
    change_password,
    run_login_session,
)


class ExperimentInvalid(RuntimeError):
    """An experiment's fixture violates its precondition (bad configuration)."""


class ExtractedCard(SmartCard):
    """Attacker's copy of the card's stored tuple at extraction time.

    It inherits the card's bytes fields and their checks, which the guess
    predicate relies on because it XORs the fields as integers. It is never
    equal to a SmartCard, whatever the fields.
    """

    __slots__ = ()

    @classmethod
    def from_card(cls, card: SmartCard) -> "ExtractedCard":
        return cls(im1=card.im1, im2=card.im2, d1=card.d1, d2=card.d2)


class Transcript(Frozen):
    """Time-ordered record of the messages an eavesdropper intercepted."""

    __slots__ = __match_args__ = ("events",)

    def __init__(self, events: tuple):
        events = tuple(events)
        times = [e.delivered_at.ticks for e in events]
        if times != sorted(times):
            raise ValueError("transcript events must be ordered by delivery time")
        self._fill(events)

    @classmethod
    def from_events(cls, events: list[ChannelEvent]) -> "Transcript":
        return cls(tuple(events))

    def login_requests(self) -> list[LoginRequest]:
        return [e.message for e in self.events if isinstance(e.message, LoginRequest)]


_DUPLICATES = "dictionary contains duplicate candidates"


class Dictionary(Frozen):
    """Finite candidate-password list, a tuple or list scanned in its order, no duplicates."""

    __slots__ = __match_args__ = ("candidates",)

    def __init__(self, candidates: tuple):
        # a lone password would iterate as characters or ints, and a set in PYTHONHASHSEED's order
        if type(candidates) not in (tuple, list):
            raise TypeError(f"candidates must be a tuple or list of passwords, got {type(candidates).__name__}")
        candidates = tuple(c if type(c) is bytes else as_bytes(c, "candidate") for c in candidates)
        if len(set(candidates)) != len(candidates):
            raise ValueError(_DUPLICATES)
        self._fill(candidates)

    @classmethod
    def from_file(cls, path) -> "Dictionary":
        """Load a UTF-8 word list: one password per line, LF-terminated, no blanks, no BOM.

        One pass after the split: a single set of the lines answers both the
        blank-line and the duplicate check, and the lines, already bytes, are
        stored without going back through __init__'s per-candidate conversion.
        """
        with open(os.fspath(path), "rb") as file:  # fspath refuses an int, which open takes as a descriptor
            data = file.read()  # no newline translation
        if data.startswith(b"\xef\xbb\xbf"):  # it would become part of the first candidate
            raise ValueError(f"{path}: starts with a UTF-8 byte-order mark; remove it")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 at byte {exc.start}") from exc
        if b"\r" in data:
            raise ValueError(f"{path}: CR characters found; lines must be LF-terminated")
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()  # the final LF terminator
        unique = set(lines)
        if b"" in unique:
            raise ValueError(f"{path}: blank lines are not allowed")
        if len(unique) != len(lines):
            raise ValueError(_DUPLICATES)
        dictionary = cls.__new__(cls)
        dictionary._fill(tuple(lines))
        return dictionary

    def __len__(self):
        return len(self.candidates)


class GuessReport(Record):
    """Outcome and cost of one offline dictionary scan; recovered is None on a miss."""

    __slots__ = __match_args__ = ("recovered", "guesses", "counts")


class DosReport(Record):
    """Probe verdicts and cost of one password-change denial-of-service run."""

    __slots__ = __match_args__ = ("probes", "counts")

    @property
    def dos_confirmed(self) -> bool:
        """True exactly when every probe login was rejected."""
        return all(verdict == "rejected" for verdict in self.probes.values())


def scan_target(card: SmartCard, m1: LoginRequest) -> tuple:
    """The attacker's precomputation from the two leaks, for guess_predicate.

    Everything the predicate needs that depends only on the card and M1: the
    byte width n, D1 and D2 as ints, the tail IM1 || IM2 || T_u(K) || T1 as
    one bytes value, X1, and a copier of h's prefix state. A pair that no
    candidate can verify is refused before any hash: a card that is not a
    SmartCard, or an m1 that is not a LoginRequest, is a TypeError, and an
    IM1, IM2 or X1 not of the card's width a ValueError.
    """
    if not isinstance(card, SmartCard):  # an ExtractedCard is one
        raise TypeError(f"card must be a SmartCard, got {type(card).__name__}")
    _require(m1, LoginRequest, "m1")
    d1, d2 = card.d1, card.d2
    for field in (m1.im1, m1.im2, m1.x1):
        if len(field) != len(d1):
            raise ValueError(f"M1 field of {8 * len(field)} bits, but the card set width {8 * len(d1)}")
    return (
        len(d1), _from_bytes(d1, "big"), _from_bytes(d2, "big"),
        m1.im1 + m1.im2 + m1.tuk.to_bytes() + m1.t1.to_bytes(),
        m1.x1, h_state().copy,
    )


def guess_predicate(candidate, target: tuple) -> bool:
    """Test one password candidate against scan_target(card, m1) of the two leaks.

    Recomputes the blinding value and long-term key the card would derive for
    this candidate and checks whether they reproduce M1's authenticator X1:

        b = D2 xor h(cand),  k = D1 xor h(cand || b),
        accept iff h(k || IM1 || IM2 || T_u(K) || T1) == X1.

    Pure: no server interaction, deterministic per candidate. This is the
    attacker's inner loop, so it works on bytes and ints: h(cand || b)
    continues the state that hashed cand, and the XORs are integer XORs at
    the card's byte width. The cost is COSTS["guess"], 3 hashes and 2 XORs
    per call, which offline_guess books once per scan; the predicate counts
    nothing.
    """
    n, d1, d2, tail, x1, fresh = target
    state = fresh()
    state.update(candidate if type(candidate) is bytes else as_bytes(candidate, "candidate"))
    b_guess = d2 ^ _from_bytes(state.digest()[:n], "big")
    state.update(b_guess.to_bytes(n, "big"))
    k_guess = d1 ^ _from_bytes(state.digest()[:n], "big")
    check = fresh()
    check.update(k_guess.to_bytes(n, "big") + tail)
    return check.digest()[:n] == x1


def offline_guess(card: SmartCard, m1: LoginRequest, dictionary: Dictionary) -> GuessReport:
    """Scan the dictionary in order and stop at the first candidate that verifies.

    The reported guess count is the 1-based index of that candidate (or the
    dictionary size when the scan misses), so predicate evaluations equal
    the guess count. The op counts, COSTS["guess"] (3 hashes and 2 XORs) per
    evaluation, are set once after the loop. The scan builds one scan_target
    for all of them, after refusing a dictionary that is not a Dictionary.
    """
    _require(dictionary, Dictionary, "dictionary")
    target = scan_target(card, m1)
    recovered = None
    guesses = 0
    for guesses, candidate in enumerate(dictionary.candidates, start=1):
        if guess_predicate(candidate, target):
            recovered = candidate
            break
    return GuessReport(recovered, guesses, OpCounts(*(guesses * n for n in COSTS["guess"])))


def wrong_login_experiment(
    card: SmartCard,
    wrong_password,
    server: ServerState,
    clock: LogicalClock,
    rng: RandomSource,
    channel_delay: int = 1,
) -> OpCounts:
    """Run one login round with a wrong password and return the wasted work.

    The card emits M1 regardless, the server does its full recovery and
    authenticator check before rejecting, and the returned OpCounts cover
    both sides of the discarded round. Unless the server rejects for the
    password mistake it raises ExperimentInvalid, also when a wrong password
    passes X1 by truncation collision, about 2^(1-w) of them at width w.
    """
    counts = OpCounts()
    session = run_login_session(
        server, card, wrong_password, clock, rng,
        channel_delay=channel_delay, user_counts=counts, server_counts=counts,
    )
    if session.rejected_by != "server":
        raise ExperimentInvalid("server accepted the login: the supplied password is the"
                                f" true one or collides with it at width {server.params.width}")
    reason = session.reject.reason
    if reason is not RejectReason.AUTH_FAILURE:
        raise ExperimentInvalid(f"rejected for {reason.value}, not the password mistake")
    return counts


def dos_experiment(
    card: SmartCard,
    true_password,
    wrong_old_password,
    new_password,
    server: ServerState,
    clock: LogicalClock,
    rng: RandomSource,
    channel_delay: int = 1,
    correct_old: bool = False,
) -> DosReport:
    """Corrupt a card through an unverified password change, then probe logins.

    Steps: (1) a baseline login with the true password must succeed, else
    ExperimentInvalid names how it ended; (2) the password change runs with
    the wrong old password (or, with correct_old=True, the true one as a
    control); (3) the new, true, and wrong-old passwords are each tried
    against the server. The report's dos_confirmed is True exactly when
    every probe is rejected; its OpCounts total all three stages.
    """
    _require(correct_old, bool, "correct_old")  # by truth value, "no" and 1 would run the control
    true_password, wrong_old_password, new_password = (  # refused here, before the baseline draws
        as_bytes(true_password, "true_password"), as_bytes(wrong_old_password, "wrong_old_password"),
        as_bytes(new_password, "new_password"))
    if not correct_old and wrong_old_password == true_password:
        raise ExperimentInvalid("wrong_old_password equals the true password")
    counts = OpCounts()
    baseline = run_login_session(
        server, card, true_password, clock, rng,
        channel_delay=channel_delay, user_counts=counts, server_counts=counts,
    )
    if not baseline.keys_match:  # rejected, or at a toy width accepted through X1 and Y3 collisions
        ended = f"rejected for {baseline.reject.reason.value}" if baseline.reject else "accepted, keys differ"
        raise ExperimentInvalid(f"baseline login with the true password {ended}")
    card = baseline.card
    old = true_password if correct_old else wrong_old_password
    card = change_password(card, old, new_password, counts=counts)
    probes = {}
    for label, password in (
        ("new_password", new_password),
        ("true_password", true_password),
        ("wrong_old_password", wrong_old_password),
    ):
        session = run_login_session(
            server, card, password, clock, rng,
            channel_delay=channel_delay, user_counts=counts, server_counts=counts,
        )
        probes[label] = "accepted" if session.ok else "rejected"
        card = session.card
    return DosReport(probes, counts)
