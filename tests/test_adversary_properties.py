"""Property test: no order of guess_predicate calls changes a verdict.

The predicate keeps its per-(card, M1) values from the previous call. Any
sequence of calls, across widths, victims, and equal but distinct copies of
the card and of M1, must give the verdicts of the oracle.
"""

import pickle
from functools import cache
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chebauth.adversary import ExtractedCard, guess_predicate  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME  # noqa: E402
from chebauth.protocol import user_login_start  # noqa: E402

from helpers import guess_predicate_oracle, make_fixture  # noqa: E402

WIDTHS = (8, 64, 256)


@cache
def victims(width):
    """Victims A and B at one width: cards (A, copy of A, B), M1s (A, reloaded A, B)."""
    prime = 17 if width == 8 else DEFAULT_PRIME
    fx_a = make_fixture(400 + width, width=width, prime=prime, password=f"pâté-€-{width}")
    fx_b = make_fixture(500 + width, width=width, prime=prime)
    m1_a, _ = user_login_start(fx_a.card, fx_a.password, fx_a.clock, fx_a.rng, fx_a.server.params)
    m1_b, _ = user_login_start(fx_b.card, fx_b.password, fx_b.clock, fx_b.rng, fx_b.server.params)
    return SimpleNamespace(
        cards=tuple(ExtractedCard.from_card(fx.card) for fx in (fx_a, fx_a, fx_b)),
        m1s=(m1_a, pickle.loads(pickle.dumps(m1_a)), m1_b),
        passwords=(fx_a.password, fx_a.password.encode(), fx_b.password),
    )


candidates = st.one_of(
    st.integers(0, 2),  # an index into the victims' passwords, the likely hits
    st.text(alphabet="aZ9-é€日\U0001f642", max_size=12),  # 1- to 4-byte UTF-8
    st.binary(max_size=12),
)
steps = st.lists(
    st.tuples(st.sampled_from(WIDTHS), st.integers(0, 2), st.integers(0, 2), candidates),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(steps)
def test_any_call_order_agrees_with_oracle(steps):
    for width, card_index, m1_index, candidate in steps:
        pool = victims(width)
        if isinstance(candidate, int):
            candidate = pool.passwords[candidate]
        card, m1 = pool.cards[card_index], pool.m1s[m1_index]
        verdict = guess_predicate(candidate, card, m1)
        assert verdict == guess_predicate_oracle(candidate, card, m1), (width, card_index, m1_index)
