import pytest

from chebauth.chaotic import DEFAULT_PRIME
from chebauth.primitives import (
    BitString,
    LogicalClock,
    OpCounts,
    RandomSource,
    concat,
    hash_h,
    xor,
)
from chebauth.protocol import (
    EmptyCredential,
    LoginRequest,
    LoginResponse,
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

from helpers import make_fixture

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
        assert server_setup(1).width == 256
        assert server_setup(1, width=64).mk.width == 64

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            server_setup(1, prime=15)


class TestRegistration:
    def test_card_field_inversions(self):
        fx = make_fixture(11)
        # replay the draw order (b first, then r) to recover the nonces
        replay = RandomSource(12)
        b = replay.draw_bits(256)
        r = replay.draw_bits(256)
        assert xor(fx.card.d2, hash_h(fx.password)) == b
        assert xor(fx.card.im1, fx.server.mk) == r
        id_l = hash_h(fx.identity)
        assert xor(fx.card.im2, hash_h(concat([fx.server.mk, r]))) == id_l
        assert xor(fx.card.d1, hash_h(concat([fx.password, b]))) == hash_h(
            concat([id_l, fx.server.mk])
        )

    def test_empty_credentials_rejected(self):
        fx = make_fixture(1)
        with pytest.raises(EmptyCredential):
            registration(fx.server, b"", b"pw", fx.rng)
        with pytest.raises(EmptyCredential):
            registration(fx.server, b"id", b"", fx.rng)

    def test_fresh_card_authenticates(self):
        fx = make_fixture(13)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        assert session.ok and session.keys_match


class TestLogin:
    def test_honest_round_trip_agrees_on_key(self):
        fx = make_fixture(20)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        assert session.ok
        assert session.user_key == session.server_key
        assert session.user_key.width == 256

    def test_pseudonym_refresh_consistency(self):
        fx = make_fixture(21)
        # session draw order: u (user), then r_new, then v (server)
        replay = RandomSource(22)
        for _ in range(2):  # registration drew b and r from the same stream
            replay.draw_bits(256)
        replay.draw_exponent()  # u
        r_new = replay.draw_bits(256)
        session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        assert session.ok
        refreshed = session.card
        assert refreshed.im1 != fx.card.im1 and refreshed.im2 != fx.card.im2
        assert xor(refreshed.im1, fx.server.mk) == r_new
        assert xor(refreshed.im2, hash_h(concat([fx.server.mk, r_new]))) == hash_h(fx.identity)
        # d1/d2 are password material and must survive the refresh untouched
        assert refreshed.d1 == fx.card.d1 and refreshed.d2 == fx.card.d2

    def test_second_session_with_refreshed_card(self):
        fx = make_fixture(22)
        first = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
        second = run_login_session(fx.server, first.card, fx.password, fx.clock, fx.rng)
        assert first.ok and second.ok
        assert first.keys_match and second.keys_match
        assert first.user_key != second.user_key  # fresh exponents, fresh key

    def test_wrong_password_still_emits_request(self):
        fx = make_fixture(23)
        m1, ctx = user_login_start(fx.card, b"not-the-password", fx.clock, fx.rng, prime=fx.server.p)
        assert m1.im1 == fx.card.im1 and ctx.u >= 2
        fx.clock.advance(1)
        result = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert isinstance(result, Reject)
        assert result.reason is RejectReason.AUTH_FAILURE

    def test_login_start_op_counts(self):
        fx = make_fixture(24)
        counts = OpCounts()
        user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p, counts=counts)
        assert counts.as_dict() == {"hash": 3, "xor": 2, "cheb": 1}

    def test_stale_request_rejected(self):
        fx = make_fixture(25, delta_t=3)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        fx.clock.advance(4)
        result = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert result == Reject(RejectReason.STALE_TIMESTAMP)

    def test_delivery_at_window_edge_accepted(self):
        fx = make_fixture(26, delta_t=3)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        fx.clock.advance(3)
        result = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert not isinstance(result, Reject)

    @pytest.mark.parametrize("ahead", [1, 990])
    def test_future_dated_request_accepted(self, ahead):
        # documented behaviour: the freshness check is one-sided, so an M1
        # stamped by a clock running ahead of the server's always passes it
        fx = make_fixture(31, delta_t=3)
        user_clock, server_clock = LogicalClock(10 + ahead), LogicalClock(10)
        m1, _ = user_login_start(fx.card, fx.password, user_clock, fx.rng, prime=fx.server.p)
        result = server_handle_login(fx.server, m1, server_clock, fx.rng)
        assert not isinstance(result, Reject)

    def test_replayed_request_accepted_inside_window(self):
        # documented behaviour: the server keeps no record of seen requests,
        # so the same M1 delivered twice inside the window is accepted twice
        fx = make_fixture(32)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        fx.clock.advance(1)
        first = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        fx.clock.advance(1)
        second = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        assert not isinstance(first, Reject) and not isinstance(second, Reject)

    def test_tampered_x1_rejected(self):
        fx = make_fixture(27)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        flipped = bytearray(m1.x1.data)
        flipped[0] ^= 0x80
        tampered = LoginRequest(m1.im1, m1.im2, m1.tuk, BitString(bytes(flipped)), m1.t1)
        fx.clock.advance(1)
        result = server_handle_login(fx.server, tampered, fx.clock, fx.rng)
        assert result == Reject(RejectReason.AUTH_FAILURE)

    def test_tampered_y3_leaves_card_unchanged(self):
        fx = make_fixture(28)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        fx.clock.advance(1)
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        flipped = bytearray(m2.y3.data)
        flipped[-1] ^= 0x01
        tampered = LoginResponse(m2.y1, m2.y2, BitString(bytes(flipped)), m2.tvk, m2.t2)
        fx.clock.advance(1)
        result = user_handle_response(fx.card, ctx, tampered, fx.clock, delta_t=fx.server.delta_t)
        assert result == Reject(RejectReason.AUTH_FAILURE)

    def test_stale_response_leaves_card_unchanged(self):
        fx = make_fixture(29)
        m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        fx.clock.advance(1)
        m2, _ = server_handle_login(fx.server, m1, fx.clock, fx.rng)
        fx.clock.advance(fx.server.delta_t + 1)
        result = user_handle_response(fx.card, ctx, m2, fx.clock, delta_t=fx.server.delta_t)
        assert result == Reject(RejectReason.STALE_TIMESTAMP)

    def test_server_is_stateless(self):
        # the same request against equal clocks and equal rng states must
        # produce the identical response; nothing is remembered per user
        fx = make_fixture(30)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, prime=fx.server.p)
        first = server_handle_login(fx.server, m1, LogicalClock(1), RandomSource(77))
        second = server_handle_login(fx.server, m1, LogicalClock(1), RandomSource(77))
        assert first == second

    def test_key_agreement_over_many_seeds(self):
        for seed in range(25):
            fx = make_fixture(seed)
            session = run_login_session(fx.server, fx.card, fx.password, fx.clock, fx.rng)
            assert session.ok and session.keys_match, seed


class TestChangePassword:
    def test_correct_old_password_switches_cleanly(self):
        fx = make_fixture(40)
        card = change_password(fx.card, fx.password, b"brand-new-pw")
        good = run_login_session(fx.server, card, b"brand-new-pw", fx.clock, fx.rng)
        assert good.ok and good.keys_match
        stale = run_login_session(fx.server, good.card, fx.password, fx.clock, fx.rng)
        assert not stale.ok  # the old password is gone

    def test_wrong_old_password_corrupts_card(self):
        fx = make_fixture(41)
        card = change_password(fx.card, b"wrong-old", b"brand-new-pw")
        for password in (b"brand-new-pw", fx.password, b"wrong-old"):
            session = run_login_session(fx.server, card, password, fx.clock, fx.rng)
            assert not session.ok
            assert session.reject.reason is RejectReason.AUTH_FAILURE
            card = session.card

    def test_no_op_when_new_equals_old(self):
        fx = make_fixture(42)
        card = change_password(fx.card, fx.password, fx.password)
        assert card == fx.card

    def test_never_signals_wrong_password(self):
        # faithful non-verification: any old password is accepted silently
        fx = make_fixture(43)
        card = change_password(fx.card, b"garbage", b"whatever")
        assert card.im1 == fx.card.im1  # pseudonyms untouched
        assert card.d1 != fx.card.d1 and card.d2 != fx.card.d2
