"""Property test: random text and binary candidates get the oracle's verdict.

This is the one home of the guess predicate's agreement with its oracle. At
each width and prime, a victim's extracted card and intercepted M1 give one
scan_target that serves every candidate, as it does in offline_guess; so do
an all-zero card with that M1 and the extracted card with another user's
M1, each a scan missing one of the two leaks, one test per leak. Text candidates span 1- to
4-byte UTF-8, and the victim's password, as str and as bytes, is drawn too,
so that hits are tested as well as misses.
"""

from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chebauth.adversary import guess_predicate, scan_target  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME  # noqa: E402

from helpers import guess_predicate_oracle, intercepted_m1, make_fixture, zeroed_card  # noqa: E402

WIDTHS = (8, 64, 256)


@cache
def victim(width, prime):
    """(passwords as str and bytes, and by leak the (card, M1, their one scan_target)) at one width and prime."""
    fx = make_fixture(400 + width, width=width, prime=prime, password=f"pâté-€-{width}")
    card, m1 = intercepted_m1(fx)
    _, foreign_m1 = intercepted_m1(make_fixture(401 + width, width=width, prime=prime))
    leaks = {"extracted": (card, m1), "zeroed_card": (zeroed_card(width), m1), "foreign_m1": (card, foreign_m1)}
    return (fx.password, fx.password.encode()), {leak: (c, m, scan_target(c, m)) for leak, (c, m) in leaks.items()}


candidates = st.lists(
    st.one_of(
        st.integers(0, 1),  # an index into the victim's passwords, the likely hits
        st.text(alphabet="aZ9-é€日\U0001f642", max_size=12),  # 1- to 4-byte UTF-8
        st.binary(max_size=12),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("leak", ("extracted", "zeroed_card", "foreign_m1"))
@pytest.mark.parametrize("prime", (17, DEFAULT_PRIME), ids=("p17", "p256"))
@pytest.mark.parametrize("width", WIDTHS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(candidates)
def test_candidates_agree_with_oracle(width, prime, leak, candidates):
    passwords, scans = victim(width, prime)
    card, m1, target = scans[leak]
    for candidate in candidates:
        if isinstance(candidate, int):
            candidate = passwords[candidate]
        assert guess_predicate(candidate, target) == guess_predicate_oracle(candidate, card, m1), width
