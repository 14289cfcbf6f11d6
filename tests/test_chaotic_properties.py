"""Property test: the semigroup identity holds on both evaluation paths.

T_u(T_v(x)) = T_v(T_u(x)) = T_uv(x), with x tabulated or not. u and v are
below 2^64, the memo's range, so uv reaches 2^128, where a tabulated base
squares its own chain as an untabulated one does.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chebauth import chaotic  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME, FieldElement, cheb_eval  # noqa: E402

exponents = st.integers(0, (1 << 64) - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((17, 101, DEFAULT_PRIME)), st.integers(0, DEFAULT_PRIME - 1), exponents, exponents,
       st.booleans())
def test_semigroup_on_both_paths(p, value, u, v, tabulated):
    x = FieldElement(value % p, p)
    key = (x.value, p)
    added = tabulated and key not in chaotic._tables
    if tabulated:
        chaotic._tabulate(x)
    try:
        uv_x = cheb_eval(u * v, x)
        assert cheb_eval(u, cheb_eval(v, x)) == uv_x
        assert cheb_eval(v, cheb_eval(u, x)) == uv_x
    finally:
        if added:
            del chaotic._tables[key]
