"""The value-type contract shared by every record the package defines.

Positional and keyword construction, field order, the TypeError of a bad
call, equality by class and fields, hashing and immutability of the frozen
types, repr, pickle and deepcopy round trips. Each class's compiled _fill
stores exactly what a slot-by-slot object.__setattr__ stores, and is the
__init__ of every class that writes none.
"""

import copy
import pickle

import pytest

import chebauth.cli  # noqa: F401  (every module loaded, for the Record walk)
from chebauth._value import Frozen, Record
from chebauth.adversary import (
    Dictionary,
    DosReport,
    ExtractedCard,
    GuessReport,
    Transcript,
    dos_experiment,
    offline_guess,
    wrong_login_experiment,
)
from chebauth.chaotic import FieldElement
from chebauth.primitives import BitString, OpCounts, Timestamp
from chebauth.protocol import (
    ChannelEvent,
    LoginRequest,
    LoginResponse,
    LoginSession,
    Params,
    Reject,
    RejectReason,
    ServerState,
    SmartCard,
    UserLoginContext,
    user_login_start,
)

from helpers import make_fixture

A, B, C, D = (bytes([i, i + 1]) for i in (1, 3, 5, 7))
F = FieldElement(3, 17)
T1, T2 = Timestamp(4), Timestamp(5)
CARD = dict(im1=A, im2=B, d1=C, d2=D)
M1 = LoginRequest(A, B, F, C, T1)
EVENT = ChannelEvent(M1, T2)

# (class, fields in declared order, one field changed, frozen)
CASES = [
    (FieldElement, dict(value=3, p=17), dict(value=4), True),
    (BitString, dict(data=b"ab"), dict(data=b"ac"), True),
    (Timestamp, dict(ticks=4), dict(ticks=5), True),
    (OpCounts, dict(n_hash=6, n_xor=4, n_cheb=1), dict(n_cheb=2), False),
    (Reject, dict(reason=RejectReason.AUTH_FAILURE), dict(reason=RejectReason.STALE_TIMESTAMP), True),
    (Params, dict(p=17, width=16, delta_t=5), dict(delta_t=6), True),
    (ServerState, dict(mk=A, params=Params(17, 16, 5)), dict(params=Params(17, 16, 6)), True),
    (SmartCard, CARD, dict(d2=A), True),
    (LoginRequest, dict(im1=A, im2=B, tuk=F, x1=C, t1=T1), dict(x1=D), True),
    (LoginResponse, dict(y1=A, y2=B, y3=C, tvk=F, t2=T2), dict(y3=D), True),
    (UserLoginContext, dict(card=SmartCard(**CARD), params=Params(17, 16, 5), u=9, tuk=F), dict(u=10), True),
    (ChannelEvent, dict(message=M1, delivered_at=T2), dict(delivered_at=Timestamp(6)), True),
    (LoginSession, dict(card=SmartCard(**CARD), user_key=A, server_key=A, reject=None,
                        rejected_by=None, events=[EVENT]), dict(server_key=B), False),
    (ExtractedCard, CARD, dict(im1=D), True),
    (Transcript, dict(events=(EVENT,)), dict(events=()), True),
    (Dictionary, dict(candidates=(b"alpha", b"beta")), dict(candidates=(b"beta", b"alpha")), True),
    (GuessReport, dict(recovered=b"pw", guesses=3, counts=OpCounts(9, 6, 0)), dict(guesses=4), False),
    (DosReport, dict(probes={"new_password": "rejected"}, counts=OpCounts(13, 10, 4)),
     dict(probes={"new_password": "accepted"}), False),
]

# The classes whose __init__ checks its input or has defaults, and ExtractedCard,
# which inherits SmartCard's; every other class's __init__ is its _fill.
WRITE_THEIR_OWN_INIT = {FieldElement, BitString, Timestamp, OpCounts, Params, SmartCard, ExtractedCard,
                        Transcript, Dictionary}


@pytest.mark.parametrize("cls, fields, changed, frozen", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type_contract(cls, fields, changed, frozen):
    value = cls(*fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value == cls(**fields)
    assert value != cls(**{**fields, **changed})
    assert (cls.__init__ is cls._fill) == (cls not in WRITE_THEIR_OWN_INIT)
    filled, set_by_name = cls.__new__(cls), cls.__new__(cls)
    filled._fill(*fields.values())
    for name, field in fields.items():
        object.__setattr__(set_by_name, name, field)
    assert filled == value == set_by_name
    assert value != object()
    assert (value == object()) is False  # NotImplemented, then identity, not a bare None
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for restored in (*pickled, copy.deepcopy(value)):
        assert type(restored) is cls and restored == value
    name = next(iter(changed))
    if frozen:
        assert hash(value) == hash(cls(**fields))
        with pytest.raises(AttributeError):
            setattr(value, name, changed[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == cls(**fields) and getattr(value, name) == fields[name]
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, name, changed[name])
        assert value == cls(**{**fields, **changed})


@pytest.mark.parametrize("cls, fields, changed, frozen", CASES, ids=[c[0].__name__ for c in CASES])
def test_constructor_rejects_a_bad_call(cls, fields, changed, frozen):
    # __reduce__ rebuilds through __init__, so it must take exactly the fields, in order
    values = list(fields.values())
    first = next(iter(fields))
    bad_calls = {
        "extra positional": lambda: cls(*values, values[0]),
        "unknown keyword": lambda: cls(*values, unknown=values[0]),
        "field given twice": lambda: cls(*values, **{first: values[0]}),
    }
    if cls not in (OpCounts, Params):  # which default every field
        bad_calls["missing field"] = lambda: cls(*values[:-1])
    for label, call in bad_calls.items():
        try:
            call()
        except TypeError:
            continue
        pytest.fail(f"{cls.__name__} accepted a call with a {label}")


def test_every_value_type_has_a_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {cls for cls in subclasses(Record) if cls.__module__.startswith("chebauth.")}
    assert defined - {Frozen} == {case[0] for case in CASES}


def test_a_bad_call_names_the_class_init():
    # the compiled _fill is the __init__, and Python names it in its TypeErrors
    with pytest.raises(TypeError, match=r"^LoginRequest\.__init__\(\) missing 5 required positional"):
        LoginRequest()


def test_repr_literal():
    assert repr(BitString(b"ab")) == "BitString(data=b'ab')"
    assert repr(FieldElement(3, 17)) == "FieldElement(value=3, p=17)"


def test_equality_requires_the_same_class():
    card, extracted = SmartCard(**CARD), ExtractedCard(**CARD)
    assert card != extracted and extracted != card
    assert ExtractedCard.from_card(card) == extracted


def test_experiment_results_are_equal_across_identical_fixtures():
    # No wall time inside: an experiment's result is a function of its inputs.
    def results(seed):
        fx = make_fixture(seed)
        m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
        words = Dictionary((b"decoy-1", fx.password, b"decoy-2"))
        guess = offline_guess(ExtractedCard.from_card(fx.card), m1, words)
        wasted = wrong_login_experiment(fx.card, b"oops", fx.server, fx.clock, fx.rng)
        dos = dos_experiment(
            fx.card, fx.password, b"wrong-old", b"new-pw", fx.server, fx.clock, fx.rng
        )
        return guess, dos, wasted

    first, second = results(90), results(90)
    assert [type(value) for value in first] == [GuessReport, DosReport, OpCounts]
    assert first == second
    assert first[0].guesses == 2 and first[1].dos_confirmed
