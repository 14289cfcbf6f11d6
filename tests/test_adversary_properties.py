"""Property test: random text and binary candidates get the oracle's verdict.

At each width, one scan_target of a victim's extracted card and intercepted
M1 serves every candidate, as it does in offline_guess; text candidates span
1- to 4-byte UTF-8, and the victim's password, as str and as bytes, is drawn
too, so that hits are tested as well as misses.
"""

from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chebauth.adversary import guess_predicate, scan_target  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME  # noqa: E402
from chebauth.protocol import user_login_start  # noqa: E402

from helpers import guess_predicate_oracle, make_fixture  # noqa: E402

WIDTHS = (8, 64, 256)


@cache
def victim(width):
    """(passwords as str and bytes, the card, M1, their one scan_target) at one width."""
    fx = make_fixture(400 + width, width=width, prime=17 if width == 8 else DEFAULT_PRIME,
                      password=f"pâté-€-{width}")
    m1, _ = user_login_start(fx.card, fx.password, fx.clock, fx.rng, fx.server.params)
    return (fx.password, fx.password.encode()), fx.card, m1, scan_target(fx.card, m1)


candidates = st.lists(
    st.one_of(
        st.integers(0, 1),  # an index into the victim's passwords, the likely hits
        st.text(alphabet="aZ9-é€日\U0001f642", max_size=12),  # 1- to 4-byte UTF-8
        st.binary(max_size=12),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("width", WIDTHS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(candidates)
def test_candidates_agree_with_oracle(width, candidates):
    passwords, card, m1, target = victim(width)
    for candidate in candidates:
        if isinstance(candidate, int):
            candidate = passwords[candidate]
        assert guess_predicate(candidate, target) == guess_predicate_oracle(candidate, card, m1), width
