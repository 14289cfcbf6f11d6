"""Adversary toolkit: card extraction, transcript capture, three attacks.

The threat model gives the attacker two leaks: the values stored on the
victim's card, and the messages of an eavesdropped login. Both are needed;
either one alone validates nothing (the tests check this explicitly).
"""

import time
from pathlib import Path

from ._value import Frozen, Record, _set
from .primitives import BitString, LogicalClock, OpCounts, RandomSource, as_bytes, h_state

# Not called here. It stays bound because perfbench/tracer.py wraps hash_h
# under every module name bound to it, and its tests expect this one.
from .primitives import hash_h  # noqa: F401
from .protocol import (
    ChannelEvent,
    LoginRequest,
    LoginResponse,
    Reject,
    RejectReason,
    ServerState,
    SmartCard,
    change_password,
    run_login_session,
    server_handle_login,
    user_login_start,
)


class ExperimentInvalid(RuntimeError):
    """An experiment's fixture violates its precondition (bad configuration)."""


class ExtractedCard(SmartCard):
    """Attacker's copy of the card's stored tuple at extraction time.

    It inherits the card's fields and their equal-width check, which the
    guess predicate relies on because it XORs the fields as integers. It is
    never equal to a SmartCard, whatever the fields.
    """

    __slots__ = ()

    @classmethod
    def from_card(cls, card: SmartCard) -> "ExtractedCard":
        return cls(im1=card.im1, im2=card.im2, d1=card.d1, d2=card.d2)

    @classmethod
    def zeroed(cls, width: int) -> "ExtractedCard":
        """All-zero stand-in used to show the card leak is necessary."""
        z = BitString.zeros(width)
        return cls(im1=z, im2=z, d1=z, d2=z)


class Transcript(Frozen):
    """Time-ordered record of the messages an eavesdropper intercepted."""

    __slots__ = __match_args__ = ("events",)

    def __init__(self, events: tuple):
        events = tuple(events)
        times = [e.delivered_at.ticks for e in events]
        if times != sorted(times):
            raise ValueError("transcript events must be ordered by delivery time")
        _set(self, "events", events)

    @classmethod
    def from_events(cls, events: list[ChannelEvent]) -> "Transcript":
        return cls(tuple(events))

    def login_requests(self) -> list[LoginRequest]:
        return [e.message for e in self.events if isinstance(e.message, LoginRequest)]

    def login_responses(self) -> list[LoginResponse]:
        return [e.message for e in self.events if isinstance(e.message, LoginResponse)]


class Dictionary(Frozen):
    """Finite candidate-password list, scanned in fixed order, no duplicates."""

    __slots__ = __match_args__ = ("candidates",)

    def __init__(self, candidates: tuple):
        candidates = tuple(c if type(c) is bytes else as_bytes(c) for c in candidates)
        if len(set(candidates)) != len(candidates):
            raise ValueError("dictionary contains duplicate candidates")
        _set(self, "candidates", candidates)

    @classmethod
    def from_file(cls, path) -> "Dictionary":
        """Load a UTF-8 word list: one password per line, LF-terminated, no blanks."""
        data = Path(path).read_bytes()  # no newline translation
        data.decode("utf-8")  # raises UnicodeDecodeError unless the whole file is UTF-8
        if b"\r" in data:
            raise ValueError(f"{path}: CR characters found; lines must be LF-terminated")
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()  # the final LF terminator
        if b"" in lines:
            raise ValueError(f"{path}: blank lines are not allowed")
        return cls(tuple(lines))

    def __len__(self):
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


class AttackReport(Record):
    """Outcome and cost accounting of one attack run; counts default to a fresh OpCounts."""

    __slots__ = __match_args__ = (
        "recovered", "guesses", "multiple_matches", "server_rejected",
        "dos_confirmed", "probes", "counts", "wall_time_s",
    )

    def __init__(
        self,
        recovered: bytes | None = None,
        guesses: int = 0,
        multiple_matches: bool = False,
        server_rejected: bool | None = None,
        dos_confirmed: bool | None = None,
        probes: dict | None = None,
        counts: OpCounts | None = None,
        wall_time_s: float = 0.0,
    ):
        self.recovered = recovered
        self.guesses = guesses
        self.multiple_matches = multiple_matches
        self.server_rejected = server_rejected
        self.dos_confirmed = dos_confirmed
        self.probes = probes
        self.counts = OpCounts() if counts is None else counts
        self.wall_time_s = wall_time_s


def guess_predicate(
    candidate,
    card: ExtractedCard,
    m1: LoginRequest,
    counts: OpCounts | None = None,
) -> bool:
    """Test one password candidate against the extracted card and intercepted M1.

    Recomputes the blinding value and long-term key the card would derive for
    this candidate and checks whether they reproduce M1's authenticator X1:

        b = D2 xor h(cand),  k = D1 xor h(cand || b),
        accept iff h(k || IM1 || IM2 || T_u(K) || T1) == X1.

    Pure: no server interaction, deterministic per candidate. This is the
    attacker's inner loop, so it works on bytes and ints: h(cand || b)
    continues the state that hashed cand, and the XORs are integer XORs at
    the card's byte width. The cost is still 3 hashes and 2 XORs.
    """
    cand = as_bytes(candidate)
    n = len(card.d1.data)
    state = h_state()
    state.update(cand)
    b_guess = int.from_bytes(card.d2.data, "big") ^ int.from_bytes(state.digest()[:n], "big")
    state.update(b_guess.to_bytes(n, "big"))
    k_guess = int.from_bytes(card.d1.data, "big") ^ int.from_bytes(state.digest()[:n], "big")
    check = h_state()
    check.update(k_guess.to_bytes(n, "big"))
    check.update(m1.im1.data)
    check.update(m1.im2.data)
    check.update(m1.tuk.to_bytes())
    check.update(m1.t1.to_bytes())
    if counts is not None:
        counts.n_hash += 3
        counts.n_xor += 2
    return check.digest()[:n] == m1.x1.data


def offline_guess(
    card: ExtractedCard,
    m1: LoginRequest,
    dictionary: Dictionary,
    exhaustive: bool = False,
) -> AttackReport:
    """Scan the dictionary in order and report the first candidate that verifies.

    The reported guess count is the 1-based index of the first hit (or the
    dictionary size when the scan misses). By default the scan stops at the
    first hit, so predicate evaluations equal the guess count; pass
    exhaustive=True to keep scanning and expose multiple matching candidates
    (only observable at small hash widths).
    """
    counts = OpCounts()
    start = time.perf_counter()
    recovered = None
    first_index = 0
    matches = 0
    for index, candidate in enumerate(dictionary, start=1):
        if guess_predicate(candidate, card, m1, counts=counts):
            matches += 1
            if recovered is None:
                recovered = candidate
                first_index = index
                if not exhaustive:
                    break
    guesses = first_index if recovered is not None else len(dictionary)
    return AttackReport(
        recovered=recovered,
        guesses=guesses,
        multiple_matches=matches > 1,
        counts=counts,
        wall_time_s=time.perf_counter() - start,
    )


def wrong_login_experiment(
    card: SmartCard,
    wrong_password,
    server: ServerState,
    clock: LogicalClock,
    rng: RandomSource,
    channel_delay: int = 1,
) -> AttackReport:
    """Run one login round with a wrong password and account the wasted work.

    The card emits M1 regardless, the server does its full recovery and
    authenticator check before rejecting, and the report's OpCounts cover
    both sides of the discarded round.
    """
    counts = OpCounts()
    start = time.perf_counter()
    m1, _ = user_login_start(card, wrong_password, clock, rng, prime=server.p, counts=counts)
    clock.advance(channel_delay)
    result = server_handle_login(server, m1, clock, rng, counts=counts)
    if not isinstance(result, Reject):
        raise ExperimentInvalid("server accepted the login; the supplied password was not wrong")
    if result.reason is not RejectReason.AUTH_FAILURE:
        raise ExperimentInvalid(f"rejected for {result.reason.value}, not the password mistake")
    return AttackReport(
        server_rejected=True,
        counts=counts,
        wall_time_s=time.perf_counter() - start,
    )


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
) -> AttackReport:
    """Corrupt a card through an unverified password change, then probe logins.

    Steps: (1) a baseline login with the true password must succeed, else the
    fixture is invalid; (2) the password change runs with the wrong old
    password (or, with correct_old=True, the true one as a control); (3) the
    new, true, and wrong-old passwords are each tried against the server.
    dos_confirmed is True exactly when every probe is rejected. OpCounts
    total all three stages.
    """
    if not correct_old and as_bytes(wrong_old_password) == as_bytes(true_password):
        raise ExperimentInvalid("wrong_old_password equals the true password")
    counts = OpCounts()
    start = time.perf_counter()
    baseline = run_login_session(
        server, card, true_password, clock, rng,
        channel_delay=channel_delay, user_counts=counts, server_counts=counts,
    )
    if not baseline.ok or not baseline.keys_match:
        raise ExperimentInvalid("baseline login with the true password failed; fixture is broken")
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
    return AttackReport(
        dos_confirmed=all(v == "rejected" for v in probes.values()),
        probes=probes,
        counts=counts,
        wall_time_s=time.perf_counter() - start,
    )
