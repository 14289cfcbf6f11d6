"""The four protocol phases: setup, registration, login, password change.

All state is explicit and immutable: operations take a card or server value
and return a new one, so a rejected step provably leaves state untouched.
Card and server share one Params (prime p, width l, freshness window),
validated once when built: server_setup, user_login_start and the login
context, which carries the card and its Params from M1 to M2, refuse anything
else. Each phase likewise refuses, before all else, a state (server, card,
login context, Params, clock, rng) or int argument not exactly of its annotated
class, with primitives._require's TypeError: a look-alike skips its checks.
Two behaviors are reproduced on purpose because the adversary experiments
measure them: the card checks nothing locally at login time, and a password
change is applied without verifying the old password.

The phases compute on bytes and ints: one join per hashed tuple into
h_digest or H_digest, so h(pw) and h(pw || b) are one call each as the
scheme writes them, and XOR through xor_bytes. What they store and send
(master key, card and message fields, session keys) is plain bytes. COSTS
states what each exit costs, and what one offline guess costs, and nothing
else in the package does: the login phases count nothing, run_login_session
books each party's entry by how the login ended, registration and
change_password book their one exit each, and offline_guess books the guess
entry once per candidate it tried; these are the package's only counts. A
receiver rejects as malformed, before all else, anything not of its message
class (an M2, None or a tuple at the server, an M1 at the card), a field of
the wrong type or width, or an element mod another prime.

Once X1 verifies, the server has the chaotic kernel tabulate the recovered
K, so that T_v(K) here and the card's T_u(K) in later logins read K's
squaring chain instead of computing it. That memo is not protocol state: no
decision reads it, and every value is the one an evaluation without it
gives. Bases that fail X1 and the per-session bases T_u(K) and T_v(K) are
never tabulated.
"""

from enum import Enum

from ._value import Frozen, Record
from .chaotic import DEFAULT_PRIME, FieldElement, _tabulate, bits_to_field, cheb_eval, is_probable_prime
from .primitives import (DEFAULT_WIDTH, H_digest, LogicalClock, OpCounts, RandomSource, Timestamp,
                         _check_width, _require, as_bytes, h_digest, tally, xor_bytes)

#: Default freshness window, in clock ticks.
DEFAULT_DELTA_T = 5

#: Each exit's (hash, xor, cheb): registration, a password change, the card's
#: M1 and its check of an M2, and the server's check of an M1 by how it ended;
#: and the attacker's test of one password guess, which offline_guess books.
COSTS = {"registration": (5, 4, 0), "change_password": (4, 4, 0), "card_m1": (3, 2, 1), "card_m2": (3, 2, 1),
         "accept": (7, 6, 2), "auth_failure": (3, 2, 0), "stale_timestamp": (0, 0, 0), "malformed": (0, 0, 0),
         "guess": (3, 2, 0)}


class EmptyCredential(ValueError):
    """Registration was attempted with an empty identity or password."""


class RejectReason(Enum):
    MALFORMED = "malformed"
    STALE_TIMESTAMP = "stale_timestamp"
    AUTH_FAILURE = "auth_failure"


class Reject(Frozen):
    """Terminal refusal of a protocol step; all party state is unchanged."""

    __slots__ = __match_args__ = ("reason",)


class Params(Frozen):
    """Prime p, width l of h and freshness window, shared by card and server and validated once, here."""

    __slots__ = __match_args__ = ("p", "width", "delta_t")

    def __init__(self, p: int = DEFAULT_PRIME, width: int = DEFAULT_WIDTH, delta_t: int = DEFAULT_DELTA_T):
        if not type(p) is type(width) is type(delta_t) is int:
            raise TypeError(f"Params fields must be ints: {[type(f).__name__ for f in (p, width, delta_t)]}")
        if p != DEFAULT_PRIME and (not is_probable_prime(p) or p <= 3):
            raise ValueError("modulus must be a prime greater than 3")
        if delta_t < 0:
            raise ValueError("freshness window must be non-negative")
        _check_width(width)
        self._fill(p, width, delta_t)


class ServerState(Frozen):
    """Long-term server state: the run's Params and a master key of exactly their width in bytes.

    There is no per-user table; identities are recovered from the pseudonym
    pair carried in each login request.
    """

    __slots__ = __match_args__ = ("mk", "params")

    def __init__(self, mk: bytes, params: Params):
        if type(params) is not Params or type(mk) is not bytes:
            raise TypeError(f"server state takes bytes and a Params: {[type(f).__name__ for f in (mk, params)]}")
        if len(mk) != params.width // 8:
            raise ValueError(f"master key of {8 * len(mk)} bits, but Params set width {params.width}")
        self._fill(mk, params)


class SmartCard(Frozen):
    """The card's stored tuple {IM1, IM2, D1, D2}: exact bytes, non-empty, all of one width."""

    __slots__ = __match_args__ = ("im1", "im2", "d1", "d2")

    def __init__(self, im1: bytes, im2: bytes, d1: bytes, d2: bytes):
        if not (type(im1) is type(im2) is type(d1) is type(d2) is bytes):
            raise TypeError(f"card fields must be bytes: {[type(f).__name__ for f in (im1, im2, d1, d2)]}")
        n = len(im1)
        if not n or len(im2) != n or len(d1) != n or len(d2) != n:
            widths = sorted({8 * len(im1), 8 * len(im2), 8 * len(d1), 8 * len(d2)})
            problem = "may not be empty" if 0 in widths else "disagree on width"
            raise ValueError(f"card fields {problem}: {widths}")
        _check_width(8 * n)
        self._fill(im1, im2, d1, d2)


class LoginRequest(Frozen):
    """Wire message M1 = {IM1, IM2, T_u(K), X1, T1}; at the server anything else (M2, None) is MALFORMED."""

    __slots__ = __match_args__ = ("im1", "im2", "tuk", "x1", "t1")


class LoginResponse(Frozen):
    """Wire message M2 = {Y1, Y2, Y3, T_v(K'), T2}; at the card anything else (M1, None) is MALFORMED."""

    __slots__ = __match_args__ = ("y1", "y2", "y3", "tvk", "t2")


class UserLoginContext(Frozen):
    """Held from M1 to M2: the card and Params the login began with, u and T_u(K) in their field."""

    __slots__ = __match_args__ = ("card", "params", "u", "tuk")

    def __init__(self, card: SmartCard, params: Params, u: int, tuk: FieldElement):
        _require(card, SmartCard, "card")
        _require(params, Params, "params")
        _require(u, int, "u")  # cheb_eval would refuse a bool only at M2, naming no u
        _require(tuk, FieldElement, "tuk")
        if tuk.p != params.p:
            raise ValueError(f"tuk mod {tuk.p}, but Params set another prime")
        self._fill(card, params, u, tuk)


def server_setup(seed: int, params: Params = Params()) -> ServerState:
    """Draw a fresh master key of params.width bits; params were validated when built."""
    _require(params, Params, "params")
    return ServerState(RandomSource(seed).draw_bytes(params.width // 8), params)


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
    _require(server, ServerState, "server")
    _require(rng, RandomSource, "rng")
    identity, password = as_bytes(identity, "identity"), as_bytes(password, "password")
    if not identity or not password:
        raise EmptyCredential("identity and password must be non-empty")
    mk = server.mk
    n = len(mk)
    b = rng.draw_bytes(n)
    r = rng.draw_bytes(n)
    id_l = h_digest(n, identity)
    d1 = xor_bytes(h_digest(n, id_l, mk), h_digest(n, password, b))
    im2 = xor_bytes(h_digest(n, mk, r), id_l)
    d2 = xor_bytes(h_digest(n, password), b)
    tally(counts, COSTS["registration"])
    return SmartCard(xor_bytes(mk, r), im2, d1, d2)


def user_login_start(
    card: SmartCard,
    password,
    clock: LogicalClock,
    rng: RandomSource,
    params: Params,
) -> tuple[LoginRequest, UserLoginContext]:
    """Build the login request M1 from the inserted card and typed password.

    The card performs no local password check: a wrong password still yields
    a well-formed M1 (with a garbage key under the hood) and the mistake is
    only caught server-side, one wasted round trip later.
    """
    _require(card, SmartCard, "card")
    _require(clock, LogicalClock, "clock")
    _require(rng, RandomSource, "rng")
    _require(params, Params, "params")
    n = len(card.d2)
    if n != params.width // 8:  # refused before u is drawn, as ServerState refuses its master key
        raise ValueError(f"card of {8 * n} bits, but Params set width {params.width}")
    password = as_bytes(password, "password")
    u = rng.draw_exponent()
    b = xor_bytes(card.d2, h_digest(n, password))
    k = xor_bytes(card.d1, h_digest(n, password, b))
    tuk = cheb_eval(u, bits_to_field(k, params.p))
    t1 = clock.now()
    x1 = h_digest(n, k, card.im1, card.im2, tuk.to_bytes(), t1.to_bytes())
    return LoginRequest(card.im1, card.im2, tuk, x1, t1), UserLoginContext(card, params, u, tuk)


def server_handle_login(
    server: ServerState,
    m1: LoginRequest,
    clock: LogicalClock,
    rng: RandomSource,
):
    """Verify M1 and, on success, answer with M2 carrying refreshed pseudonyms.

    Returns (LoginResponse, session_key) or a Reject naming the failed check:
    MALFORMED first, for anything but a LoginRequest (an M2, None, a tuple),
    a field of the wrong type, IM1, IM2 or X1 not of the master key's width,
    or T_u(K) outside the server's field; then freshness, both before keyed
    work; then X1. The server keeps no state; it draws r_new, then v. A
    server, clock or rng of the wrong type raises TypeError instead: the
    server's own state is not a delivered message.
    """
    _require(server, ServerState, "server")
    _require(clock, LogicalClock, "clock")
    _require(rng, RandomSource, "rng")
    mk, params = server.mk, server.params
    n = len(mk)
    im1, im2, tuk, x1, t1 = fields = m1._key if type(m1) is LoginRequest else (None,) * 5
    if (tuple(map(type, fields)) != (bytes, bytes, FieldElement, bytes, Timestamp)
            or len(im1) != n or len(im2) != n or len(x1) != n or tuk.p != params.p):
        return Reject(RejectReason.MALFORMED)
    t2 = clock.now()
    if t2 - t1 > params.delta_t:
        return Reject(RejectReason.STALE_TIMESTAMP)
    id_rec = xor_bytes(im2, h_digest(n, mk, xor_bytes(im1, mk)))
    k_rec = h_digest(n, id_rec, mk)
    tuk_bytes = tuk.to_bytes()
    if h_digest(n, k_rec, im1, im2, tuk_bytes, t1.to_bytes()) != x1:
        return Reject(RejectReason.AUTH_FAILURE)
    r_new = rng.draw_bytes(n)
    v = rng.draw_exponent()
    im1_new = xor_bytes(mk, r_new)
    im2_new = xor_bytes(h_digest(n, mk, r_new), id_rec)
    k = bits_to_field(k_rec, params.p)
    _tabulate(k)
    tvtuk = cheb_eval(v, tuk)
    tvk = cheb_eval(v, k)
    tvk_bytes, t2_bytes = tvk.to_bytes(), t2.to_bytes()
    session_key = H_digest(n, tuk_bytes, tvk_bytes, tvtuk.to_bytes())
    pad = h_digest(n, session_key, t2_bytes)
    y3 = h_digest(n, session_key, im1_new, im2_new, tvk_bytes, t2_bytes)
    y1, y2 = xor_bytes(im1_new, pad), xor_bytes(im2_new, pad)
    return LoginResponse(y1=y1, y2=y2, y3=y3, tvk=tvk, t2=t2), session_key


def user_handle_response(
    ctx: UserLoginContext,
    m2: LoginResponse,
    clock: LogicalClock,
):
    """Check M2 against the login ctx started, derive the session key, adopt the refreshed pseudonyms.

    Returns (session_key, ctx.card with the new pseudonyms) or a Reject, which
    leaves ctx.card bit for bit as it was. MALFORMED comes first: anything but
    a LoginResponse (an M1, None, a tuple), a field of the wrong type, Y1, Y2
    or Y3 not of the card's width, or T_v(K) outside the login's field. A
    ctx or clock of the wrong type raises TypeError instead.
    """
    _require(ctx, UserLoginContext, "ctx")
    _require(clock, LogicalClock, "clock")
    n = len(ctx.card.d1)
    y1, y2, y3, tvk, t2 = fields = m2._key if type(m2) is LoginResponse else (None,) * 5
    if (tuple(map(type, fields)) != (bytes, bytes, bytes, FieldElement, Timestamp)
            or len(y1) != n or len(y2) != n or len(y3) != n or tvk.p != ctx.params.p):
        return Reject(RejectReason.MALFORMED)
    t3 = clock.now()
    if t3 - t2 > ctx.params.delta_t:
        return Reject(RejectReason.STALE_TIMESTAMP)
    tvk_bytes, t2_bytes = tvk.to_bytes(), t2.to_bytes()
    tutvk = cheb_eval(ctx.u, tvk)
    session_key = H_digest(n, ctx.tuk.to_bytes(), tvk_bytes, tutvk.to_bytes())
    pad = h_digest(n, session_key, t2_bytes)
    im1_new = xor_bytes(y1, pad)
    im2_new = xor_bytes(y2, pad)
    if h_digest(n, session_key, im1_new, im2_new, tvk_bytes, t2_bytes) != y3:
        return Reject(RejectReason.AUTH_FAILURE)
    return session_key, SmartCard(im1_new, im2_new, ctx.card.d1, ctx.card.d2)


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
    Nor is the new password checked: an empty one is accepted, although
    registration raises EmptyCredential for it, and the card then logs in
    with b"".
    """
    _require(card, SmartCard, "card")
    old_password, new_password = as_bytes(old_password, "old_password"), as_bytes(new_password, "new_password")
    n = len(card.d2)
    b = xor_bytes(card.d2, h_digest(n, old_password))
    k = xor_bytes(card.d1, h_digest(n, old_password, b))
    d1 = xor_bytes(k, h_digest(n, new_password, b))
    d2 = xor_bytes(h_digest(n, new_password), b)
    tally(counts, COSTS["change_password"])
    return SmartCard(card.im1, card.im2, d1, d2)


class ChannelEvent(Frozen):
    """One message crossing the public channel, as an eavesdropper sees it.

    The message's type gives the direction and its T1 or T2 the send time.
    """

    __slots__ = __match_args__ = ("message", "delivered_at")


class LoginSession(Record):
    """Outcome of one driven login round trip; rejected_by is "server", "user" or None."""

    __slots__ = __match_args__ = ("card", "user_key", "server_key", "reject", "rejected_by", "events")

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
    rejection it carries the original card unchanged. A channel_delay that
    is not an int (a bool too) raises TypeError, and one that the clock
    refuses for M2's delivery, 2 * channel_delay ticks on, a ValueError that
    names the delay and then the clock's reason, before anything is drawn.

    Each party's COSTS entries are added to its counts by how the login
    ended: the card's M1, and its check of an M2 once the server answered
    (an M2 the server built is well-formed, and fresh whenever M1 was, both
    legs taking channel_delay); the server's entry for its outcome.
    """
    _require(server, ServerState, "server")
    _require(clock, LogicalClock, "clock")  # user_login_start checks card and rng before they are read
    _require(channel_delay, int, "channel_delay")  # 2 * True is an int the clock would take
    try:
        clock.after(2 * channel_delay)
    except ValueError as exc:  # the clock's message names M2's delivery tick, not the delay passed
        raise ValueError(f"channel_delay {channel_delay} refused by the clock: {exc}") from exc
    m1, ctx = user_login_start(card, password, clock, rng, server.params)
    tally(user_counts, COSTS["card_m1"])
    events = [ChannelEvent(m1, clock.advance(channel_delay))]
    result = server_handle_login(server, m1, clock, rng)
    if isinstance(result, Reject):
        tally(server_counts, COSTS[result.reason.value])
        return LoginSession(card, None, None, result, "server", events)
    tally(server_counts, COSTS["accept"])
    m2, server_key = result
    events.append(ChannelEvent(m2, clock.advance(channel_delay)))
    result = user_handle_response(ctx, m2, clock)
    tally(user_counts, COSTS["card_m2"])
    if isinstance(result, Reject):
        return LoginSession(card, None, server_key, result, "user", events)
    user_key, refreshed = result
    return LoginSession(refreshed, user_key, server_key, None, None, events)
