import copy
import inspect
import re
from types import SimpleNamespace

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
    ServerState,
    SmartCard,
    change_password,
    registration,
    run_login_session,
    server_handle_login,
    server_setup,
    user_handle_response,
    user_login_start,
)

from helpers import PSI_12, PSI_13, card_fields, clock_at, flipped, make_fixture

# Pinned master keys for seeds 1 and 2 (first draw of the seeded stream).
MK_SEED1 = "1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5"
MK_SEED2 = "5c6e433715ba2bdd177219d30e7a269fd95bafc8f2a4d27bdcf4bb99f4bea973"


class TestServerSetup:
    def test_deterministic(self):
        assert server_setup(7).mk == server_setup(7).mk

    def test_pinned_distinct_seeds(self):
        assert server_setup(1).mk.hex() == MK_SEED1
        assert server_setup(2).mk.hex() == MK_SEED2

    def test_master_key_width(self):
        assert len(server_setup(1).mk) * 8 == 256
        assert len(server_setup(1, Params(width=64)).mk) * 8 == 64

    @pytest.mark.parametrize("look_alike", [SimpleNamespace(p=9, width=64, delta_t=-1), 101, None],
                             ids=["namespace", "int", "None"])
    def test_refuses_anything_but_params(self, look_alike):
        # a look-alike skips Params' checks: the namespace would give a server with p = 9 and window -1
        with pytest.raises(TypeError, match=rf"^params must be a Params, got {type(look_alike).__name__}$"):
            server_setup(1, look_alike)

    @pytest.mark.parametrize("seed", [None, 7.0, True, -7], ids=["None", "float", "bool", "negative"])
    def test_refuses_a_seed_that_would_not_replay(self, seed):
        # server_setup(None) drew a new key per call, and server_setup(-7) gave server_setup(7)'s
        with pytest.raises((TypeError, ValueError), match=r"^seed must be "):
            server_setup(seed)

    def test_keeps_the_params_it_is_given(self):
        params = Params(101, 64, 3)
        assert server_setup(1, params).params is params
        assert server_setup(1).params == Params() == Params(DEFAULT_PRIME, DEFAULT_WIDTH, DEFAULT_DELTA_T)

    @pytest.mark.parametrize("mk", [bytes(40), bytes(8)], ids=["320-bit", "64-bit"])
    def test_state_refuses_a_master_key_not_of_its_width(self, mk):
        # 40 bytes failed registration's XOR after b and r were drawn; 8 ran the scheme at 64 bits
        with pytest.raises(ValueError, match=rf"^master key of {8 * len(mk)} bits, but Params set width 256$"):
            ServerState(mk, Params())
        assert ServerState(bytes(32), Params()).mk == bytes(32)
        assert ServerState(bytes(1), Params(width=8)).mk == bytes(1)

    @pytest.mark.parametrize("mk, params, names", [
        ("x", Params(width=8), "['str', 'Params']"),
        (bytearray(32), Params(), "['bytearray', 'Params']"),
        (bytes(32), SimpleNamespace(p=9, width=256, delta_t=-1), "['bytes', 'SimpleNamespace']"),
        (bytes(32), None, "['bytes', 'NoneType']"),
    ], ids=["str", "bytearray", "namespace", "None"])
    def test_state_refuses_anything_but_bytes_and_params(self, mk, params, names):
        with pytest.raises(TypeError, match=rf"^server state takes bytes and a Params: {re.escape(names)}$"):
            ServerState(mk, params)

class TestParams:
    """Params is the one place the prime, the width and the window are checked."""

    def test_composite_modulus_rejected(self):
        # 41 * 43 and the strong pseudoprimes 3215031751, psi12 and psi13: only the
        # base-2 round or the Lucas test rejects them
        for p in (9, 15, 3, DEFAULT_PRIME - 2, 2**256 - 1, 1763, 3215031751, PSI_12, PSI_13):
            with pytest.raises(ValueError, match=r"^modulus must be a prime greater than 3$"):
                Params(p)

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

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match=r"^freshness window must be non-negative$"):
            Params(delta_t=-1)
        assert Params(delta_t=0).delta_t == 0

    @pytest.mark.parametrize("width", [0, 12, 264])
    def test_bad_width_rejected(self, width):
        with pytest.raises(ValueError, match=rf"^width must be a multiple of 8 in \[8, 256\], got {width}$"):
            Params(width=width)

    @pytest.mark.parametrize("fields, names", [
        (dict(width=256.0), "['int', 'float', 'int']"),
        (dict(delta_t=2.5), "['int', 'int', 'float']"),
        (dict(delta_t=True), "['int', 'int', 'bool']"),
        (dict(p=101.0), "['float', 'int', 'int']"),
    ], ids=["width-float", "delta_t-float", "delta_t-bool", "p-float"])
    def test_non_int_fields_rejected(self, fields, names):
        # refused when built, not later inside draw_bytes or a window comparison
        with pytest.raises(TypeError, match=rf"^Params fields must be ints: {re.escape(names)}$"):
            Params(**fields)

    def test_edges_accepted(self):
        params = Params(5, 8, 0)  # the smallest prime, width and window
        assert (params.p, params.width, params.delta_t) == (5, 8, 0)
        assert Params(width=256).width == 256  # the largest width


class TestRegistration:
    def test_empty_credentials_rejected(self):
        fx = make_fixture(1)
        with pytest.raises(EmptyCredential):
            registration(fx.server, b"", b"pw", fx.rng)
        with pytest.raises(EmptyCredential):
            registration(fx.server, b"id", b"", fx.rng)


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
        # a card-side default would silently disagree with a non-default server;
        # the M2 check takes neither card nor Params, it reads both from ctx
        fx = make_fixture(33, prime=17, width=8, delta_t=3)
        with pytest.raises(TypeError):
            user_login_start(fx.card, fx.password, fx.clock, fx.rng)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        assert ctx.card is fx.card and ctx.params is fx.server.params
        fx.clock.advance(1)
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert list(inspect.signature(user_handle_response).parameters) == ["ctx", "m2", "clock"]
        assert not isinstance(user_handle_response(ctx, m2, fx.clock), Reject)

    @pytest.mark.parametrize("look_alike", [
        SimpleNamespace(p=9), SimpleNamespace(p=9, width=64, delta_t=-1), 101, None, (DEFAULT_PRIME, 256, 5),
    ], ids=["namespace-p", "namespace", "int", "None", "tuple"])
    def test_login_start_refuses_anything_but_params_before_any_draw(self, look_alike):
        # a look-alike skips Params' checks: SimpleNamespace(p=9) would send an M1 mod 9
        fx = make_fixture(38)
        rng_before = copy.deepcopy(fx.rng)
        with pytest.raises(TypeError, match=rf"^params must be a Params, got {type(look_alike).__name__}$"):
            user_login_start(fx.card, fx.password, fx.clock, fx.rng, look_alike)
        assert fx.rng.draw_exponent() == rng_before.draw_exponent()
        assert fx.clock.now() == LogicalClock().now()

    @pytest.mark.parametrize("server_width, card_width", [(256, 8), (8, 256), (256, 64), (64, 256)],
                             ids=["narrow-card", "wide-card", "64-bit-card-same-prime", "256-bit-card-same-prime"])
    def test_login_refuses_a_card_not_of_the_params_width_before_any_draw(self, server_width, card_width):
        # a 1-byte card at a 256-bit server drew u, evaluated the map mod the
        # 256-bit prime and moved the clock before the server rejected M1; the
        # width alone decides, also where card and server share their prime
        primes = {8: 17, 64: DEFAULT_PRIME, 256: DEFAULT_PRIME}
        server = make_fixture(5, width=server_width, prime=primes[server_width]).server
        fx = make_fixture(6, width=card_width, prime=primes[card_width])
        rng_before = copy.deepcopy(fx.rng)
        with pytest.raises(ValueError, match=rf"^card of {card_width} bits, but Params set width {server_width}$"):
            run_login_session(server, fx.card, fx.password, fx.clock, fx.rng)
        assert fx.rng.draw_exponent() == rng_before.draw_exponent()
        assert fx.clock.now() == LogicalClock().now()

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

    def test_integer_credentials_rejected(self):
        # bytes(3) would be three zero bytes: a card issued for, or a login
        # with, a password nobody typed
        fx = make_fixture(66)
        with pytest.raises(TypeError):
            registration(fx.server, 7, b"pw", RandomSource(9))
        with pytest.raises(TypeError):
            registration(fx.server, b"id", 3, RandomSource(9))
        with pytest.raises(TypeError):
            user_login_start(fx.card, 3, fx.clock, fx.rng, fx.server.params)
        with pytest.raises(TypeError):
            change_password(fx.card, 3, b"new")
        with pytest.raises(TypeError):
            change_password(fx.card, fx.password, [110, 101, 119])

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

    def test_mixed_width_card_names_its_widths(self):
        with pytest.raises(ValueError, match=r"^card fields disagree on width: \[16, 64, 256\]$"):
            SmartCard(bytes(32), bytes(8), bytes(32), bytes(2))

    @pytest.mark.parametrize("delay, error, message", [
        (-1, ValueError, r"^clock cannot move backwards$"),
        (True, TypeError, r"^channel_delay must be an int, got bool$"),  # 2 * True is a 1-tick delay's int
        (False, TypeError, r"^channel_delay must be an int, got bool$"),
        (1.0, TypeError, r"^channel_delay must be an int, got float$"),  # not the clock's "ticks must be"
        (1 << 63, ValueError, r"^ticks must be in \[0, 2\*\*64\)"),  # M2 would arrive at 2^64
    ], ids=["negative", "true", "false", "float", "past-the-last-tick"])
    def test_refused_channel_delay_draws_nothing(self, delay, error, message):
        fx, replay = make_fixture(66), make_fixture(66)
        with pytest.raises(error, match=message):
            run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng, channel_delay=delay)
        assert fx.clock.now() == replay.clock.now()
        assert fx.rng.draw_exponent() == replay.rng.draw_exponent()

    def test_timestamps_stay_in_their_eight_bytes(self):
        # a stamp no 8-byte encoding holds is never built, so no receiver
        # raises on one; a message stamped with the last tick is only forged
        last = (1 << 64) - 1
        assert Timestamp(last).to_bytes() == b"\xff" * 8
        with pytest.raises(ValueError, match=r"^ticks must be in \[0, 2\*\*64\), got 18446744073709551616$"):
            Timestamp(1 << 64)
        with pytest.raises(TypeError):
            Timestamp(1.0)  # no to_bytes
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

    @pytest.mark.parametrize("bad", [bytearray(4), "abcd"], ids=type)
    def test_card_field_that_is_not_bytes_is_a_type_error(self, bad):
        for position in range(4):
            fields = [bytes(4)] * 4
            fields[position] = bad
            names = ["bytes"] * 4
            names[position] = type(bad).__name__
            with pytest.raises(TypeError, match=re.escape(f"card fields must be bytes: {names}")):
                SmartCard(*fields)

    def test_empty_or_unequal_fields_are_a_value_error_in_bits(self):
        with pytest.raises(ValueError, match=r"^card fields may not be empty: \[0\]$"):
            SmartCard(b"", b"", b"", b"")
        with pytest.raises(ValueError, match=r"^card fields may not be empty: \[0, 32\]$"):
            SmartCard(bytes(4), bytes(4), b"", bytes(4))
        with pytest.raises(ValueError, match=r"^card fields disagree on width: \[32, 40\]$"):
            SmartCard(bytes(4), bytes(4), bytes(4), bytes(5))
        SmartCard(bytes(1), bytes(1), bytes(1), bytes(1))  # one byte a field, the narrowest width

    def test_fields_wider_than_h_are_a_value_error(self):
        # a 33-byte card drew u at login, then failed its first XOR; the guess predicate said False
        with pytest.raises(ValueError, match=r"^width must be a multiple of 8 in \[8, 256\], got 264$"):
            SmartCard(*[bytes(33)] * 4)
        for n in (1, 32):
            assert SmartCard(*[bytes(n)] * 4).d1 == bytes(n)

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
