"""The four protocol phases: setup, registration, login, password change.

All state is explicit and immutable: operations take a card or server value
and return a new one, so a rejected step provably leaves state untouched.
Two behaviors are reproduced on purpose because the adversary experiments
measure them: the card checks nothing locally at login time, and a password
change is applied without verifying the old password.
"""

from enum import Enum

from ._value import Frozen, Record, _set
from .chaotic import DEFAULT_PRIME, FieldElement, bits_to_field, cheb_eval, is_probable_prime
from .primitives import (
    DEFAULT_WIDTH,
    BitString,
    LogicalClock,
    OpCounts,
    RandomSource,
    Timestamp,
    as_bytes,
    concat,
    hash_H,
    hash_h,
    xor,
)

#: Default freshness window, in clock ticks.
DEFAULT_DELTA_T = 5


class EmptyCredential(ValueError):
    """Registration was attempted with an empty identity or password."""


class RejectReason(Enum):
    STALE_TIMESTAMP = "stale_timestamp"
    AUTH_FAILURE = "auth_failure"


class Reject(Frozen):
    """Terminal refusal of a protocol step; all party state is unchanged."""

    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: RejectReason):
        _set(self, "reason", reason)


class ServerState(Frozen):
    """Long-term server state: master key, modulus, freshness window.

    There is no per-user table; identities are recovered from the pseudonym
    pair carried in each login request.
    """

    __slots__ = __match_args__ = ("mk", "p", "delta_t")

    def __init__(self, mk: BitString, p: int, delta_t: int):
        _set(self, "mk", mk)
        _set(self, "p", p)
        _set(self, "delta_t", delta_t)

    @property
    def width(self) -> int:
        return self.mk.width


class SmartCard(Frozen):
    """The card's stored tuple {IM1, IM2, D1, D2}, all of system width."""

    __slots__ = __match_args__ = ("im1", "im2", "d1", "d2")

    def __init__(self, im1: BitString, im2: BitString, d1: BitString, d2: BitString):
        widths = {im1.width, im2.width, d1.width, d2.width}
        if len(widths) != 1:
            raise ValueError(f"card fields disagree on width: {sorted(widths)}")
        _set(self, "im1", im1)
        _set(self, "im2", im2)
        _set(self, "d1", d1)
        _set(self, "d2", d2)

    @property
    def width(self) -> int:
        return self.im1.width


class LoginRequest(Frozen):
    """First wire message M1 = {IM1, IM2, T_u(K), X1, T1}."""

    __slots__ = __match_args__ = ("im1", "im2", "tuk", "x1", "t1")

    def __init__(self, im1: BitString, im2: BitString, tuk: FieldElement, x1: BitString, t1: Timestamp):
        _set(self, "im1", im1)
        _set(self, "im2", im2)
        _set(self, "tuk", tuk)
        _set(self, "x1", x1)
        _set(self, "t1", t1)


class LoginResponse(Frozen):
    """Second wire message M2 = {Y1, Y2, Y3, T_v(K'), T2}."""

    __slots__ = __match_args__ = ("y1", "y2", "y3", "tvk", "t2")

    def __init__(self, y1: BitString, y2: BitString, y3: BitString, tvk: FieldElement, t2: Timestamp):
        _set(self, "y1", y1)
        _set(self, "y2", y2)
        _set(self, "y3", y3)
        _set(self, "tvk", tvk)
        _set(self, "t2", t2)


class UserLoginContext(Frozen):
    """Card-side secrets held between sending M1 and handling M2."""

    __slots__ = __match_args__ = ("u", "k", "tuk", "t1")

    def __init__(self, u: int, k: BitString, tuk: FieldElement, t1: Timestamp):
        _set(self, "u", u)
        _set(self, "k", k)
        _set(self, "tuk", tuk)
        _set(self, "t1", t1)


class ServerLoginOutcome(Frozen):
    """Server-side result of an accepted login: session key, fresh pseudonyms."""

    __slots__ = __match_args__ = ("session_key", "im1_new", "im2_new")

    def __init__(self, session_key: BitString, im1_new: BitString, im2_new: BitString):
        _set(self, "session_key", session_key)
        _set(self, "im1_new", im1_new)
        _set(self, "im2_new", im2_new)


def _cheb(n: int, x: FieldElement, counts: OpCounts | None) -> FieldElement:
    if counts is not None:
        counts.n_cheb += 1
    return cheb_eval(n, x)


def server_setup(
    seed: int,
    width: int = DEFAULT_WIDTH,
    prime: int = DEFAULT_PRIME,
    delta_t: int = DEFAULT_DELTA_T,
) -> ServerState:
    """Generate server parameters: a fresh master key plus run constants."""
    if not is_probable_prime(prime) or prime <= 3:
        raise ValueError("modulus must be a prime greater than 3")
    if delta_t < 0:
        raise ValueError("freshness window must be non-negative")
    mk = RandomSource(seed).draw_bits(width)
    return ServerState(mk=mk, p=prime, delta_t=delta_t)


def registration(
    server: ServerState,
    identity,
    password,
    rng: RandomSource,
    counts: OpCounts | None = None,
) -> SmartCard:
    """Personalize a smart card for (identity, password).

    Draw order is fixed for replay: the user's blinding nonce b first, then
    the server's pseudonym nonce r. The identity is hashed to an l-bit value
    before masking so every XOR operand has the system width.
    """
    identity = as_bytes(identity)
    password = as_bytes(password)
    if not identity or not password:
        raise EmptyCredential("identity and password must be non-empty")
    w = server.width
    b = rng.draw_bits(w)
    r = rng.draw_bits(w)
    id_l = hash_h(identity, w, counts)
    im1 = xor(server.mk, r, counts)
    im2 = xor(hash_h(concat([server.mk, r]), w, counts), id_l, counts)
    d1 = xor(
        hash_h(concat([id_l, server.mk]), w, counts),
        hash_h(concat([password, b]), w, counts),
        counts,
    )
    d2 = xor(hash_h(password, w, counts), b, counts)
    return SmartCard(im1=im1, im2=im2, d1=d1, d2=d2)


def user_login_start(
    card: SmartCard,
    password,
    clock: LogicalClock,
    rng: RandomSource,
    prime: int = DEFAULT_PRIME,
    counts: OpCounts | None = None,
) -> tuple[LoginRequest, UserLoginContext]:
    """Build the login request M1 from the inserted card and typed password.

    The card performs no local password check: a wrong password still yields
    a well-formed M1 (with a garbage key under the hood) and the mistake is
    only caught server-side, one wasted round trip later.
    """
    password = as_bytes(password)
    w = card.width
    u = rng.draw_exponent()
    b = xor(card.d2, hash_h(password, w, counts), counts)
    k = xor(card.d1, hash_h(concat([password, b]), w, counts), counts)
    tuk = _cheb(u, bits_to_field(k, prime), counts)
    t1 = clock.now()
    x1 = hash_h(concat([k, card.im1, card.im2, tuk, t1]), w, counts)
    request = LoginRequest(im1=card.im1, im2=card.im2, tuk=tuk, x1=x1, t1=t1)
    return request, UserLoginContext(u=u, k=k, tuk=tuk, t1=t1)


def server_handle_login(
    server: ServerState,
    m1: LoginRequest,
    clock: LogicalClock,
    rng: RandomSource,
    counts: OpCounts | None = None,
):
    """Verify M1 and, on success, answer with M2 and refreshed pseudonyms.

    Returns (LoginResponse, ServerLoginOutcome) or a Reject that says which
    check failed: freshness first (before any keyed computation), then the
    X1 authenticator. Draw order on success is r_new, then v.
    """
    t2 = clock.now()
    if t2 - m1.t1 > server.delta_t:
        return Reject(RejectReason.STALE_TIMESTAMP)
    w = server.width
    r_rec = xor(m1.im1, server.mk, counts)
    id_rec = xor(m1.im2, hash_h(concat([server.mk, r_rec]), w, counts), counts)
    k_rec = hash_h(concat([id_rec, server.mk]), w, counts)
    expected_x1 = hash_h(concat([k_rec, m1.im1, m1.im2, m1.tuk, m1.t1]), w, counts)
    if expected_x1 != m1.x1:
        return Reject(RejectReason.AUTH_FAILURE)
    r_new = rng.draw_bits(w)
    v = rng.draw_exponent()
    im1_new = xor(server.mk, r_new, counts)
    im2_new = xor(hash_h(concat([server.mk, r_new]), w, counts), id_rec, counts)
    tvtuk = _cheb(v, m1.tuk, counts)
    tvk = _cheb(v, bits_to_field(k_rec, server.p), counts)
    session_key = hash_H(m1.tuk, tvk, tvtuk, w, counts)
    pad = hash_h(concat([session_key, t2]), w, counts)
    y1 = xor(im1_new, pad, counts)
    y2 = xor(im2_new, pad, counts)
    y3 = hash_h(concat([session_key, im1_new, im2_new, tvk, t2]), w, counts)
    response = LoginResponse(y1=y1, y2=y2, y3=y3, tvk=tvk, t2=t2)
    return response, ServerLoginOutcome(session_key=session_key, im1_new=im1_new, im2_new=im2_new)


def user_handle_response(
    card: SmartCard,
    ctx: UserLoginContext,
    m2: LoginResponse,
    clock: LogicalClock,
    delta_t: int = DEFAULT_DELTA_T,
    counts: OpCounts | None = None,
):
    """Check M2, derive the session key, and adopt the refreshed pseudonyms.

    Returns (session_key, updated card) or a Reject; on any Reject the card
    passed in remains the caller's current card, bit for bit.
    """
    t3 = clock.now()
    if t3 - m2.t2 > delta_t:
        return Reject(RejectReason.STALE_TIMESTAMP)
    w = card.width
    tutvk = _cheb(ctx.u, m2.tvk, counts)
    session_key = hash_H(ctx.tuk, m2.tvk, tutvk, w, counts)
    pad = hash_h(concat([session_key, m2.t2]), w, counts)
    im1_new = xor(m2.y1, pad, counts)
    im2_new = xor(m2.y2, pad, counts)
    expected_y3 = hash_h(concat([session_key, im1_new, im2_new, m2.tvk, m2.t2]), w, counts)
    if expected_y3 != m2.y3:
        return Reject(RejectReason.AUTH_FAILURE)
    return session_key, SmartCard(im1=im1_new, im2=im2_new, d1=card.d1, d2=card.d2)


def change_password(
    card: SmartCard,
    old_password,
    new_password,
    counts: OpCounts | None = None,
) -> SmartCard:
    """Rewrite the password-derived card fields D1 and D2, unconditionally.

    The old password is never verified. With the correct old password the
    card afterwards works with the new one; with a wrong old password both
    fields are rewritten relative to a garbage blinding value and the card
    is permanently unable to produce a valid login, under any password.
    """
    old = as_bytes(old_password)
    new = as_bytes(new_password)
    w = card.width
    b = xor(card.d2, hash_h(old, w, counts), counts)
    d1 = xor(
        xor(card.d1, hash_h(concat([old, b]), w, counts), counts),
        hash_h(concat([new, b]), w, counts),
        counts,
    )
    d2 = xor(hash_h(new, w, counts), b, counts)
    return SmartCard(im1=card.im1, im2=card.im2, d1=d1, d2=d2)


class ChannelEvent(Frozen):
    """One message crossing the public channel, as an eavesdropper sees it."""

    __slots__ = __match_args__ = ("direction", "message", "sent_at", "delivered_at")

    def __init__(
        self,
        direction: str,  # "user->server" or "server->user"
        message: object,  # LoginRequest | LoginResponse
        sent_at: Timestamp,
        delivered_at: Timestamp,
    ):
        _set(self, "direction", direction)
        _set(self, "message", message)
        _set(self, "sent_at", sent_at)
        _set(self, "delivered_at", delivered_at)


class LoginSession(Record):
    """Outcome of one driven login round trip."""

    __slots__ = __match_args__ = ("card", "user_key", "server_key", "reject", "rejected_by", "events")

    def __init__(
        self,
        card: SmartCard,
        user_key: BitString | None,
        server_key: BitString | None,
        reject: Reject | None,
        rejected_by: str | None,  # "server" | "user" | None
        events: list,
    ):
        self.card = card
        self.user_key = user_key
        self.server_key = server_key
        self.reject = reject
        self.rejected_by = rejected_by
        self.events = events

    @property
    def ok(self) -> bool:
        return self.reject is None

    @property
    def keys_match(self) -> bool:
        return self.user_key is not None and self.user_key == self.server_key


def run_login_session(
    server: ServerState,
    card: SmartCard,
    password,
    clock: LogicalClock,
    rng: RandomSource,
    channel_delay: int = 1,
    user_counts: OpCounts | None = None,
    server_counts: OpCounts | None = None,
) -> LoginSession:
    """Drive one full login: M1 out, M2 back, each leg taking channel_delay ticks.

    On success the returned session carries the refreshed card; on any
    rejection it carries the original card unchanged.
    """
    m1, ctx = user_login_start(card, password, clock, rng, prime=server.p, counts=user_counts)
    clock.advance(channel_delay)
    events = [ChannelEvent("user->server", m1, m1.t1, clock.now())]
    result = server_handle_login(server, m1, clock, rng, counts=server_counts)
    if isinstance(result, Reject):
        return LoginSession(card, None, None, result, "server", events)
    m2, outcome = result
    clock.advance(channel_delay)
    events.append(ChannelEvent("server->user", m2, m2.t2, clock.now()))
    result = user_handle_response(card, ctx, m2, clock, delta_t=server.delta_t, counts=user_counts)
    if isinstance(result, Reject):
        return LoginSession(card, None, outcome.session_key, result, "user", events)
    user_key, refreshed = result
    return LoginSession(refreshed, user_key, outcome.session_key, None, None, events)
