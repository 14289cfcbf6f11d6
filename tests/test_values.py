"""The value-type contract shared by every record the package defines.

Positional and keyword construction, field order, equality by class and
fields, hashing and immutability of the frozen types, repr, pickle and
deepcopy round trips.
"""

import copy
import pickle

import pytest

from chebauth.adversary import AttackReport, Dictionary, ExtractedCard, Transcript
from chebauth.chaotic import FieldElement
from chebauth.primitives import BitString, OpCounts, Timestamp
from chebauth.protocol import (
    ChannelEvent,
    LoginRequest,
    LoginResponse,
    LoginSession,
    Reject,
    RejectReason,
    ServerLoginOutcome,
    ServerState,
    SmartCard,
    UserLoginContext,
)

A, B, C, D = (BitString(bytes([i, i + 1])) for i in (1, 3, 5, 7))
F = FieldElement(3, 17)
T1, T2 = Timestamp(4), Timestamp(5)
CARD = dict(im1=A, im2=B, d1=C, d2=D)
M1 = LoginRequest(A, B, F, C, T1)
EVENT = ChannelEvent("user->server", M1, T1, T2)

# (class, fields in declared order, one field changed, frozen)
CASES = [
    (FieldElement, dict(value=3, p=17), dict(value=4), True),
    (BitString, dict(data=b"ab"), dict(data=b"ac"), True),
    (Timestamp, dict(ticks=4), dict(ticks=5), True),
    (OpCounts, dict(n_hash=6, n_xor=4, n_cheb=1), dict(n_cheb=2), False),
    (Reject, dict(reason=RejectReason.AUTH_FAILURE), dict(reason=RejectReason.STALE_TIMESTAMP), True),
    (ServerState, dict(mk=A, p=17, delta_t=5), dict(delta_t=6), True),
    (SmartCard, CARD, dict(d2=A), True),
    (LoginRequest, dict(im1=A, im2=B, tuk=F, x1=C, t1=T1), dict(x1=D), True),
    (LoginResponse, dict(y1=A, y2=B, y3=C, tvk=F, t2=T2), dict(y3=D), True),
    (UserLoginContext, dict(u=9, k=A, tuk=F, t1=T1), dict(u=10), True),
    (ServerLoginOutcome, dict(session_key=A, im1_new=B, im2_new=C), dict(session_key=D), True),
    (ChannelEvent, dict(direction="user->server", message=M1, sent_at=T1, delivered_at=T2),
     dict(delivered_at=Timestamp(6)), True),
    (LoginSession, dict(card=SmartCard(**CARD), user_key=A, server_key=A, reject=None,
                        rejected_by=None, events=[EVENT]), dict(server_key=B), False),
    (ExtractedCard, CARD, dict(im1=D), True),
    (Transcript, dict(events=(EVENT,)), dict(events=()), True),
    (Dictionary, dict(candidates=(b"alpha", b"beta")), dict(candidates=(b"beta", b"alpha")), True),
    (AttackReport, dict(recovered=b"pw", guesses=3, multiple_matches=True, server_rejected=None,
                        dos_confirmed=False, probes={"new_password": "rejected"},
                        counts=OpCounts(3, 2, 0), wall_time_s=0.5), dict(guesses=4), False),
]


@pytest.mark.parametrize("cls, fields, changed, frozen", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type_contract(cls, fields, changed, frozen):
    value = cls(*fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value == cls(**fields)
    assert value != cls(**{**fields, **changed})
    assert value != object()
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(restored) is cls and restored == value
    name = next(iter(changed))
    if frozen:
        assert hash(value) == hash(cls(**fields))
        with pytest.raises(AttributeError):
            setattr(value, name, changed[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, name, changed[name])
        assert value == cls(**{**fields, **changed})


def test_repr_literal():
    assert repr(BitString(b"ab")) == "BitString(data=b'ab')"
    assert repr(FieldElement(3, 17)) == "FieldElement(value=3, p=17)"


def test_equality_requires_the_same_class():
    card, extracted = SmartCard(**CARD), ExtractedCard(**CARD)
    assert card != extracted and extracted != card
    assert ExtractedCard.from_card(card) == extracted


def test_timestamp_ordering():
    assert T1 < T2 and T1 <= T2 and T2 > T1 and T2 >= T1 and T1 <= Timestamp(4)
    assert sorted([T2, T1]) == [T1, T2]
    for compare in (lambda: T1 < 5, lambda: T1 <= 5, lambda: T1 > 5, lambda: T1 >= 5):
        with pytest.raises(TypeError):
            compare()


def test_attack_report_counts_are_fresh_per_instance():
    first, second = AttackReport(), AttackReport()
    assert first.counts == OpCounts() and first.counts is not second.counts
    first.counts.n_hash += 1
    assert second.counts == OpCounts()
