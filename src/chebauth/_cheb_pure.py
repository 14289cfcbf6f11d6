"""Reference kernel for Chebyshev evaluation mod p: T-form fast doubling.

chaotic.cheb_eval runs the faster V-form recurrence. This kernel stays only
as the reference of the benchmark's kernel-agreement gate; nothing in the
package calls it. The test suite's T-form oracle is tests/reference_scheme.cheb,
and only tests/test_shims.py tests this module.
"""


def cheb_eval_int(n: int, x: int, p: int) -> int:
    """T_n(x) mod p by fast doubling over the bits of n, most significant first.

    Carries the pair (T_k, T_{k+1}) and per bit applies
        T_{2k}   = 2*T_k^2 - 1
        T_{2k+1} = 2*T_k*T_{k+1} - x
        T_{2k+2} = 2*T_{k+1}^2 - 1
    so the work is O(log n) multiplications instead of the O(n) recurrence.
    """
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if p < 2:
        raise ValueError("modulus must be >= 2")
    x %= p
    t0, t1 = 1 % p, x
    for i in range(n.bit_length() - 1, -1, -1):
        if (n >> i) & 1:
            t0, t1 = (2 * t0 * t1 - x) % p, (2 * t1 * t1 - 1) % p
        else:
            t0, t1 = (2 * t0 * t0 - 1) % p, (2 * t0 * t1 - x) % p
    return t0
