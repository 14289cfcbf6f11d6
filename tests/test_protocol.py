import inspect

import pytest

from chebauth import protocol
from chebauth.chaotic import DEFAULT_PRIME, bits_to_field
from chebauth.primitives import (
    DEFAULT_WIDTH,
    LogicalClock,
    RandomSource,
    Timestamp,
    h_digest,
)
from chebauth.protocol import (
    DEFAULT_DELTA_T,
    EmptyCredential,
    LoginRequest,
    LoginResponse,
    Params,
    Reject,
    RejectReason,
    change_password,
    registration,
    run_login_session,
    server_handle_login,
    server_setup,
    user_handle_response,
    user_login_start,
)

from helpers import card_fields, clock_at, flipped, make_fixture


class TestServerSetup:
    def test_keeps_the_params_it_is_given(self):
        params = Params(101, 64, 3)
        assert server_setup(1, params).params is params
        assert server_setup(1).params == Params() == Params(DEFAULT_PRIME, DEFAULT_WIDTH, DEFAULT_DELTA_T)


class TestParams:
    """Params is the one place the prime, the width and the window are checked."""

    def test_only_non_default_moduli_are_primality_tested(self, monkeypatch):
        tested = []
        real = protocol.is_probable_prime
        monkeypatch.setattr(protocol, "is_probable_prime", lambda n: tested.append(n) or real(n))
        Params()
        Params(DEFAULT_PRIME)
        assert tested == []
        params = Params(101)
        server_setup(1, params)
        server_setup(2, params)  # a setup tests no prime of its own
        assert tested == [101]
        for bad in (15, 3, DEFAULT_PRIME - 2):
            with pytest.raises(ValueError, match=r"^modulus must be a prime greater than 3$"):
                Params(bad)
        assert tested == [101, 15, 3, DEFAULT_PRIME - 2]

    def test_edges_accepted(self):
        params = Params(5, 8, 0)  # the smallest prime, width and window
        assert (params.p, params.width, params.delta_t) == (5, 8, 0)
        assert Params(width=256).width == 256  # the largest width


class TestLogin:
    @pytest.mark.parametrize("ahead", [1, 990])
    def test_future_dated_request_accepted(self, ahead):
        # documented behaviour: the freshness check is one-sided, so an M1
        # stamped by a clock running ahead of the server's always passes it
        fx = make_fixture(31, delta_t=3)
        user_clock, server_clock = clock_at(10 + ahead), clock_at(10)
        m1, _ = user_login_start(fx.card, fx.password, user_clock, fx.rng, fx.server.params)
        result = server_handle_login(fx.server, m1, server_clock, fx.rng)
        assert not isinstance(result, Reject)

    def test_replayed_request_accepted_inside_window(self):
        # documented behaviour: the server keeps no record of seen requests,
        # so the same M1 delivered twice inside the window is accepted twice
        fx = make_fixture(32)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        fx.clock.advance(1)
        first = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        fx.clock.advance(1)
        second = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert not isinstance(first, Reject) and not isinstance(second, Reject)

    def test_response_at_window_edge_accepted_one_tick_later_stale(self):
        # the card's window is inclusive, as the server's is; one delay drives
        # both legs of run_login_session, so the halves are driven by hand
        fx = make_fixture(30, delta_t=3)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        fx.clock.advance(1)
        m2, server_key = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        edge, late = clock_at(m2.t2.ticks + 3), clock_at(m2.t2.ticks + 4)
        session_key, _ = user_handle_response(ctx, m2, edge)
        assert session_key == server_key
        assert user_handle_response(ctx, m2, late) == Reject(RejectReason.STALE_TIMESTAMP)

    def test_card_side_takes_prime_and_delta_t_explicitly(self):
        # no card-side default can disagree with a non-default server (a call
        # without Params is refused); the M2 check reads card and Params from ctx
        fx = make_fixture(33, prime=17, width=8, delta_t=3)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        assert ctx.card is fx.card and ctx.params is fx.server.params
        fx.clock.advance(1)
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert list(inspect.signature(user_handle_response).parameters) == ["ctx", "m2", "clock"]
        assert not isinstance(user_handle_response(ctx, m2, fx.clock), Reject)

    def test_a_login_ends_on_the_card_and_window_it_started_with(self):
        # M2 arrives 50 ticks late: the window that judges it is the one of
        # the Params the login started with, and every reject of the second
        # half leaves ctx.card bit for bit as it was
        fx = make_fixture(37, delta_t=3)
        before = card_fields(fx.card)

        def late_m2(delta_t, tamper=False):
            params = Params(fx.server.params.p, fx.server.params.width, delta_t)
            m1, ctx = user_login_start(fx.card, fx.password, clock_at(0), fx.rng, params)
            m2, server_key = server_handle_login(fx.server, m1, clock_at(1), fx.rng)
            if tamper:
                m2 = flipped(m2, 2, 0)
            result = user_handle_response(ctx, m2, clock_at(51))
            assert ctx.card is fx.card and card_fields(ctx.card) == before
            return result, server_key

        assert late_m2(3)[0] == Reject(RejectReason.STALE_TIMESTAMP)
        assert late_m2(100, tamper=True)[0] == Reject(RejectReason.AUTH_FAILURE)
        (user_key, refreshed), server_key = late_m2(100)
        assert user_key == server_key and (refreshed.d1, refreshed.d2) == (fx.card.d1, fx.card.d2)

    def test_server_is_stateless(self, cold_memo):
        # the same request against equal clocks and equal rng states must
        # produce the identical response; nothing is remembered per user.
        # The first call runs with K untabulated, the second reads its table.
        fx = make_fixture(30)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        first = server_handle_login(fx.server, m1, clock_at(1), RandomSource(77))
        assert cold_memo
        second = server_handle_login(fx.server, m1, clock_at(1), RandomSource(77))
        assert first == second


def memo_key(fx) -> tuple:
    """(K, p) for the fixture's user, K = h(h(ID) || mk) as a field element."""
    mk = fx.server.mk
    k = h_digest(len(mk), h_digest(len(mk), fx.identity), mk)
    return bits_to_field(k, fx.server.params.p).value, fx.server.params.p


class TestFixedBaseMemo:
    """Only an authenticated user's K gets a table in the kernel's memo."""

    def test_honest_login_adds_exactly_k(self, cold_memo):
        fx = make_fixture(34)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        assert session.ok and session.keys_match
        assert list(cold_memo) == [memo_key(fx)]
        table = cold_memo[memo_key(fx)]
        # later logins, after a password change and on a re-issued card, reuse that table
        changed = change_password(session.card, fx.password, b"new-pw")
        reissued = registration(fx.server, fx.identity, fx.password, fx.rng)
        for card, password in ((session.card, fx.password), (changed, b"new-pw"), (reissued, fx.password)):
            session = run_login_session(fx.server, card, password, fx.clock, fx.rng)
            assert session.ok and session.keys_match
        assert list(cold_memo) == [memo_key(fx)] and cold_memo[memo_key(fx)] is table

    def test_unauthenticated_bases_add_nothing(self, cold_memo):
        fx = make_fixture(35, delta_t=3)
        wrong = run_login_session(fx.server, fx.card, b"typo", fx.clock, fx.rng)
        assert wrong.reject == Reject(RejectReason.AUTH_FAILURE)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        rejected = server_handle_login(fx.server, flipped(m1, 3, 0), fx.clock, fx.rng)
        assert rejected == Reject(RejectReason.AUTH_FAILURE)
        stale = server_handle_login(fx.server, m1, clock_at(m1.t1.ticks + 4), fx.rng)
        assert stale == Reject(RejectReason.STALE_TIMESTAMP)
        assert not cold_memo
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert list(cold_memo) == [memo_key(fx)]
        result = user_handle_response(ctx, m2, fx.clock)
        assert not isinstance(result, Reject)
        assert list(cold_memo) == [memo_key(fx)]


class TestEdges:
    """Edge behaviour pinned as it stands."""

    def test_password_types_agree(self):
        fx = make_fixture(63)
        outputs = []
        for password in (b"pw-\xc3\xa9", bytearray(b"pw-\xc3\xa9"), "pw-é"):
            card = registration(fx.server, "id", password, RandomSource(9))
            m1, _ = user_login_start(card, password, LogicalClock(), RandomSource(10), fx.server.params)
            changed = change_password(card, password, bytearray(b"new"))
            outputs.append((card, m1, changed))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_every_reject_returns_the_given_card(self):
        fx = make_fixture(64, delta_t=3)
        stale = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng, channel_delay=4)
        wrong = run_login_session(fx.server, fx.card, b"typo", fx.clock, fx.rng)
        assert stale.reject == Reject(RejectReason.STALE_TIMESTAMP) and stale.card is fx.card
        assert wrong.reject == Reject(RejectReason.AUTH_FAILURE) and wrong.card is fx.card
        # at width 8 some wrong password passes X1 by collision; the card's key
        # is still garbage, so the user side rejects M2
        for i in range(4096):
            tiny = make_fixture(65, width=8, prime=17)
            session = run_login_session(tiny.server, tiny.card, f"typo-{i}", tiny.clock, tiny.rng)
            if session.rejected_by == "user":
                break
        assert session.reject == Reject(RejectReason.AUTH_FAILURE) and session.card is tiny.card

    def test_timestamps_stay_in_their_eight_bytes(self):
        # a stamp no 8-byte encoding holds is never built, so no receiver
        # raises on one; a message stamped with the last tick is only forged
        last = (1 << 64) - 1
        assert Timestamp(last).to_bytes() == b"\xff" * 8
        fx = make_fixture(67)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        forged = LoginRequest(m1.im1, m1.im2, m1.tuk, m1.x1, Timestamp(last))
        assert server_handle_login(fx.server, forged, fx.clock, fx.rng) == Reject(RejectReason.AUTH_FAILURE)
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        forged = LoginResponse(m2.y1, m2.y2, m2.y3, m2.tvk, Timestamp(last))
        assert user_handle_response(ctx, forged, fx.clock) == Reject(RejectReason.AUTH_FAILURE)
        assert user_handle_response(ctx, m2, fx.clock)[0]  # the honest M2 still completes the login
        # the longest delay a login takes (M2 would arrive at 2^64 - 2): M1 is long stale
        late = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng, channel_delay=(1 << 63) - 1)
        assert late.reject == Reject(RejectReason.STALE_TIMESTAMP)


class TestChangePassword:
    def test_no_op_when_new_equals_old(self):
        fx = make_fixture(42)
        card = change_password(fx.card, fx.password, fx.password)
        assert card == fx.card

    def test_empty_new_password_accepted_though_registration_refuses_it(self):
        # the card checks neither password; only registration refuses b""
        fx = make_fixture(44)
        card = change_password(fx.card, fx.password, b"")
        session = run_login_session(fx.server, card, b"", fx.clock, fx.rng)
        assert session.ok and session.keys_match
        with pytest.raises(EmptyCredential):
            registration(fx.server, fx.identity, b"", fx.rng)


class TestBytesFields:
    """Cards, messages and session keys hold plain bytes."""

    @pytest.mark.parametrize("width", [8, 256])
    def test_every_stored_and_sent_string_is_exact_bytes_of_the_width(self, width):
        fx = make_fixture(70, width=width, prime=101 if width == 8 else DEFAULT_PRIME)
        n = fx.server.params.width // 8  # the card works at the width the server's Params set

        def assert_exact(*values):
            assert [type(value) for value in values] == [bytes] * len(values)
            assert [len(value) for value in values] == [n] * len(values)

        assert_exact(fx.server.mk, *card_fields(fx.card))
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        assert_exact(m1.im1, m1.im2, m1.x1)
        m2, server_key = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert_exact(m2.y1, m2.y2, m2.y3, server_key)
        user_key, refreshed = user_handle_response(ctx, m2, fx.clock)
        assert user_key == server_key
        assert_exact(user_key, *card_fields(refreshed), *card_fields(change_password(refreshed, fx.password, b"new")))
