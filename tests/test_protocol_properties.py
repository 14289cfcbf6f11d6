"""Property test: the message boundary rejects every malformed message alike.

This is the one home of the receivers' MALFORMED exit. Replace any one field
of an honest M1 or M2 with a byte string of another width, a field element
of another field, or a value of another type, or replace the whole message
by the other message class, None, a bare tuple of the honest fields or the
fixture's SmartCard. Delivered in time or past the freshness window, the
receiver returns Reject(MALFORMED) (the shape is judged before the clock),
counts nothing, draws nothing, writes no memo entry and leaves the card as
it was. The untouched message, handed to the same receiver afterwards, still
completes the round trip with matching keys.
"""

import pickle
from functools import cache
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chebauth import chaotic  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME, FieldElement  # noqa: E402
from chebauth.primitives import OpCounts, RandomSource, Timestamp  # noqa: E402
from chebauth.protocol import (  # noqa: E402
    LoginRequest,
    Reject,
    RejectReason,
    server_handle_login,
    user_handle_response,
    user_login_start,
)

from helpers import clock_at, make_fixture  # noqa: E402

CONFIGS = [(8, 101), (8, DEFAULT_PRIME), (256, 101), (256, DEFAULT_PRIME)]
PRIMES = (17, 101, DEFAULT_PRIME)
SERVER_SEED = 77
TEXT = "aZ9-é€日\U0001f642"  # 1- to 4-byte UTF-8


@cache
def honest(width: int, prime: int) -> SimpleNamespace:
    """One honest round trip at (width, prime): M1, M2, and what each receiver returned."""
    fx = make_fixture(700 + width + prime % 1000, width=width, prime=prime)
    m1, ctx = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
    m2, server_key = server_handle_login(
        fx.server, m1, clock_at(m1.t1.ticks + 1), RandomSource(SERVER_SEED))
    user_key, refreshed = user_handle_response(ctx, m2, clock_at(m2.t2.ticks + 1))
    assert user_key == server_key
    return SimpleNamespace(fx=fx, ctx=ctx, m1=m1, m2=m2, server_key=server_key, refreshed=refreshed)


def other_types(value):
    """Values of another type than value's, some carrying the same content."""
    if type(value) is bytes:
        lookalikes = [bytearray(value), memoryview(value), value.decode("latin-1"), list(value),
                      int.from_bytes(value, "big")]
    elif type(value) is FieldElement:
        lookalikes = [value.value, value.to_bytes(), str(value), Timestamp(value.value % (1 << 64))]
    else:
        lookalikes = [value.ticks, value.to_bytes(), float(value.ticks), FieldElement(value.ticks, 101)]
    anything = [st.none(), st.integers(0, 1 << 300), st.text(alphabet=TEXT, max_size=40)]
    if type(value) is not bytes:
        anything.append(st.binary(max_size=40))
    return st.one_of(st.sampled_from(lookalikes), *anything)


def malformed(value):
    """A replacement for one honest field that the receiver must refuse."""
    if type(value) is bytes:
        other_width = st.binary(max_size=40).filter(lambda b: len(b) != len(value))
        return st.one_of(other_width, other_types(value))
    if type(value) is FieldElement:
        foreign = [FieldElement(value.value % q, q) for q in PRIMES if q != value.p]
        return st.one_of(st.sampled_from(foreign), other_types(value))
    return other_types(value)


@st.composite
def tampered(draw):
    """(honest round trip, the honest message, a copy with one field replaced or another object)."""
    session = honest(*draw(st.sampled_from(CONFIGS)))
    message = draw(st.sampled_from((session.m1, session.m2)))
    name = draw(st.sampled_from((*message.__match_args__, "whole message")))
    fields = {name: getattr(message, name) for name in message.__match_args__}
    if name == "whole message":
        other = session.m2 if message is session.m1 else session.m1
        return session, message, draw(st.sampled_from((other, None, tuple(fields.values()), session.fx.card)))
    fields[name] = draw(malformed(fields[name]))
    return session, message, type(message)(**fields)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tampered())
def test_one_bad_field_is_malformed_and_changes_nothing(case):
    session, message, bad = case
    fx, memo = session.fx, set(chaotic._tables)
    card, card_before = session.ctx.card, pickle.loads(pickle.dumps(session.ctx.card))
    sent = message.t1 if isinstance(message, LoginRequest) else message.t2
    clock = clock_at(sent.ticks + 1)
    for at in (clock, clock_at(sent.ticks + fx.server.params.delta_t + 1)):  # in time, then stale
        counts = OpCounts()
        if isinstance(message, LoginRequest):
            rng = RandomSource(SERVER_SEED)
            result = server_handle_login(fx.server, bad, at, rng, counts=counts)
            assert rng.draw_exponent() == RandomSource(SERVER_SEED).draw_exponent()
        else:
            result = user_handle_response(session.ctx, bad, at, counts=counts)
        assert result == Reject(RejectReason.MALFORMED)
        assert counts == OpCounts(0, 0, 0)
        assert set(chaotic._tables) == memo
        assert card == card_before
    # the receiver is as it was: the untouched message completes the round trip
    if isinstance(message, LoginRequest):
        assert server_handle_login(fx.server, message, clock, RandomSource(SERVER_SEED)) == (
            session.m2, session.server_key)
    else:
        assert user_handle_response(session.ctx, message, clock) == (
            session.server_key, session.refreshed)
