"""Executable reference of the scheme, on hashlib and ints only.

Written straight from the scheme's equations and independent of
chebauth.primitives and chebauth.protocol, so that agreement with the
package means something. Values are bytes of the system byte width n,
field elements are ints mod p, timestamps are int ticks. Random draws come
from a random.Random in the package's draw order; a reject is its reason.

    h(x)        = SHA-256(0x01 || x), first n bytes
    H(a, b, c)  = SHA-256(0x02 || a || b || c), first n bytes (field encodings)
"""

import hashlib


def h(n, *parts):
    return hashlib.sha256(b"\x01" + b"".join(parts)).digest()[:n]


def field(x, p):
    return x.to_bytes((p.bit_length() + 7) // 8, "big")


def H(n, p, *elements):
    return hashlib.sha256(b"\x02" + b"".join(field(e, p) for e in elements)).digest()[:n]


def xor(a, b):
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def cheb(k, x, p):
    """T_k(x) mod p, carrying (T_j, T_j+1) down the bits of k."""
    t, t_next = 1 % p, x % p
    for bit in bin(k)[2:]:
        if bit == "1":
            t, t_next = (2 * t * t_next - x) % p, (2 * t_next * t_next - 1) % p
        else:
            t, t_next = (2 * t * t - 1) % p, (2 * t * t_next - x) % p
    return t


def tick(t):
    return t.to_bytes(8, "big")


def draw(rng, n):
    return rng.getrandbits(8 * n).to_bytes(n, "big")


def exponent(rng):
    return rng.randrange(2, 1 << 64)


def register(mk, identity, password, rng):
    """Card (IM1, IM2, D1, D2); the user's b is drawn before the server's r."""
    n = len(mk)
    b, r = draw(rng, n), draw(rng, n)
    id_l = h(n, identity)
    return xor(mk, r), xor(h(n, mk, r), id_l), xor(h(n, id_l, mk), h(n, password, b)), xor(h(n, password), b)


def login_start(card, password, rng, t1, p):
    """M1 (IM1, IM2, T_u(K), X1, T1) and the card's (u, T_u(K))."""
    im1, im2, d1, d2 = card
    n = len(d1)
    u = exponent(rng)
    b = xor(d2, h(n, password))
    k = xor(d1, h(n, password, b))
    tuk = cheb(u, int.from_bytes(k, "big") % p, p)
    x1 = h(n, k, im1, im2, field(tuk, p), tick(t1))
    return (im1, im2, tuk, x1, t1), (u, tuk)


def server_respond(mk, p, delta_t, m1, t2, rng):
    """M2 (Y1, Y2, Y3, T_v(K'), T2) and the server's session key, or a reject reason."""
    im1, im2, tuk, x1, t1 = m1
    if t2 - t1 > delta_t:
        return "stale_timestamp"
    n = len(mk)
    r = xor(im1, mk)
    identity = xor(im2, h(n, mk, r))
    k = h(n, identity, mk)
    if h(n, k, im1, im2, field(tuk, p), tick(t1)) != x1:
        return "auth_failure"
    r_new = draw(rng, n)
    v = exponent(rng)
    im1_new, im2_new = xor(mk, r_new), xor(h(n, mk, r_new), identity)
    tvk = cheb(v, int.from_bytes(k, "big") % p, p)
    key = H(n, p, tuk, tvk, cheb(v, tuk, p))
    pad = h(n, key, tick(t2))
    y3 = h(n, key, im1_new, im2_new, field(tvk, p), tick(t2))
    return (xor(im1_new, pad), xor(im2_new, pad), y3, tvk, t2), key


def user_verify(card, ctx, m2, t3, delta_t, p):
    """The user's session key and refreshed card, or a reject reason."""
    y1, y2, y3, tvk, t2 = m2
    if t3 - t2 > delta_t:
        return "stale_timestamp"
    u, tuk = ctx
    n = len(card[0])
    key = H(n, p, tuk, tvk, cheb(u, tvk, p))
    pad = h(n, key, tick(t2))
    im1_new, im2_new = xor(y1, pad), xor(y2, pad)
    if h(n, key, im1_new, im2_new, field(tvk, p), tick(t2)) != y3:
        return "auth_failure"
    return key, (im1_new, im2_new, card[2], card[3])


def login(mk, card, password, rng, t1, delay_m1, delay_m2, delta_t, p):
    """One login, M1 sent at t1 and each leg taking its delay: M1, the card's
    context, the server's result and the card's result (the server's reason
    when no M2 came)."""
    m1, ctx = login_start(card, password, rng, t1, p)
    reply = server_respond(mk, p, delta_t, m1, t1 + delay_m1, rng)
    if isinstance(reply, str):
        return m1, ctx, reply, reply
    return m1, ctx, reply, user_verify(card, ctx, reply[0], t1 + delay_m1 + delay_m2, delta_t, p)


def change(card, old, new):
    """The card with D1, D2 rewritten for new; the old password is never checked."""
    im1, im2, d1, d2 = card
    n = len(d1)
    b = xor(d2, h(n, old))
    return im1, im2, xor(xor(d1, h(n, old, b)), h(n, new, b)), xor(h(n, new), b)
