"""Shortest round-trip text of float64 arrays, byte for byte what ``repr`` writes.

``cells`` writes each value's text into a NUL-padded slot of ``WIDTH`` bytes.
Its digits are Schubfach's (R. Giulietti, *The Schubfach way to render
doubles*, 2020): v = c 2^q times a 126-bit upper approximation of 10^-k, with
10^k at most the width of v's rounding interval, rounded to odd at v and at
both bounds, decides exactly whether a multiple of 10^(k+1) reads back as v,
and otherwise which multiple of 10^k next to v is nearest.  That is the
shortest decimal that reads back, the nearest among those, ties to even, as
``repr`` picks it.  All of it is uint64 arithmetic, the 64 x 64-bit products
in 32-bit limbs.  g is multiplied by v once: the bounds differ from v by a
power of two, so their products are those words plus or minus a shift of g.
Trailing zeros are stripped by exact division (times the inverse of 5^j
modulo 2^64, then a rotation), the digit count is a binary search in the
powers of ten, and one ``np.take`` gathers each value's bytes by its layout.
The layout is ``repr``'s: positional for decimal exponents -5 < e < 16,
with ``.0`` on integers, else ``d.ddde±XX``; and ``nan``, ``inf``,
``-inf``, ``-0.0``.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest text: len(repr(-2.2250738585072014e-308))

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that doubles need
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
# Slots of the per-value source rows that a layout picks bytes from: 17 digits,
# right-aligned, then four constants, the exponent's sign, its 3 digits and NUL.
_ZERO, _DOT, _MINUS, _E, _EXP_SIGN, _EXP, _NUL = 17, 18, 19, 20, 21, 22, 25
_FORMS = 22  # decimal point after digit -3 .. 16 (positional), then 2- and 3-digit exponents


def _layout(negative: bool, n_digits: int, form: int) -> list[int]:
    """The source slots, in order, of one layout; unused places point at NUL."""
    digits = [17 - n_digits + j for j in range(n_digits)]
    out = [_MINUS] if negative else []
    if form < 20:
        point = form - 3
        if point <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < n_digits:
            out += digits[:point] + [_DOT] + digits[point:]
        else:
            out += digits + [_ZERO] * (point - n_digits) + [_DOT, _ZERO]
    else:
        out += digits[:1] + ([_DOT] + digits[1:] if n_digits > 1 else [])
        out += [_E, _EXP_SIGN] + list(range(_EXP + 21 - form, _EXP + 3))
    return out + [_NUL] * (WIDTH - len(out))


@functools.cache
def _tables():
    """g per k from k = -324, as rows g >> 63 and g & (2^63 - 1), and r; every
    layout; the powers of ten 10 .. 10^16; per decimal exponent from -324, its
    sign and three digits, and the form its layouts take.

    10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1,
    exact in Python ints.  Built on first use, not at import.
    """
    g_halves, shifts = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10**-k
            r = n.bit_length() - 126
            g = (n >> r if r >= 0 else n << -r) + 1
        else:
            d = 10**k
            r = -125 - d.bit_length()
            g = (1 << -r) // d + 1
        g_halves.append([g >> 63, g & _M63])
        shifts.append(r)
    layouts = [_layout(negative, n_digits, form) for negative in (False, True)
               for n_digits in range(1, 18) for form in range(_FORMS)]
    exponents = range(-324, 309)
    return (np.array(g_halves, dtype=np.uint64).T.copy(), np.array(shifts, dtype=np.int64),
            np.array(layouts, dtype=np.uint8), 10 ** np.arange(1, 17, dtype=np.uint64),
            np.frombuffer("".join(f"{e:+04d}" for e in exponents).encode(),
                          dtype=np.uint8).reshape(-1, 4).T.copy(),
            np.array([e + 4 if -5 < e < 16 else 20 + (abs(e) >= 100) for e in exponents]))


def _mul128(a: np.ndarray, b: np.ndarray):
    """The high and low 64-bit words of a * b, uint64 arrays that broadcast, in 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return (a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32),
            (low & _M32) | (mid << 32))


def _round_to_odd(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g cp / 2^127 rounded to odd, for g = g1 2^63 + g0.

    high and low are the words of g1 cp (row 0) and g0 cp (row 1).  As in the
    reference, the low bit of g1 cp and the low word of g0 cp are dropped,
    which cancels the + 1 of g where 10^-k 2^-r is an integer.
    """
    z = (low[0] >> 1) + high[1]
    return (high[0] + (z >> 63)) | ((z & _M63) != 0)


def _bounds(c: np.ndarray, q: np.ndarray):
    """k, and Schubfach's vbl, vb, vbr: 4 v 10^-k and its interval's bounds, rounded to odd.

    v = c 2^q, and each is rop(g, x 2^h) at x = 4c - 2 (4c - 1 where the gap
    below v is half the gap above), 4c and 4c + 2.  g cp is multiplied out
    once, at 4c 2^h; the bounds add or take away g 2^(h+1) (g 2^h), a shift
    of g, word by word with the carry or borrow.
    """
    g, r = _tables()[:2]
    asymmetric = (c == 1 << 52) & (q > -1074)
    k = (q * 661_971_961_083 - asymmetric * 274_743_187_321) >> 41  # floor(log10(width))
    at = k - _K_MIN
    h = (q + np.take(r, at) + 127).astype(np.uint64)  # 2 .. 5
    g = np.take(g, at, axis=1)  # rows g1 and g0
    high, low = _mul128(g, c << (h + 2))  # the words of g1 cp and g0 cp at cp = 4c 2^h
    vb = _round_to_odd(high, low)
    shift = h + 1
    gl, gh = g << shift, g >> (64 - shift)  # the words of g 2^(h+1)
    up = low + gl
    vbr = _round_to_odd(high + gh + (up < gl), up)
    shift -= asymmetric
    gl, gh = g << shift, g >> (64 - shift)
    vbl = _round_to_odd(high - gh - (low < gl), low - gl)
    return k, vbl, vb, vbr


def _shortest(c: np.ndarray, q: np.ndarray):
    """Schubfach's (digits, k): the decimal digits 10^k that ``repr`` writes for c 2^q.

    c > 0 is the integer significand, q the binary exponent.  The digits end
    in no zero.
    """
    k, vbl, vb, vbr = _bounds(c, q)
    odd = c & 1  # an even c reads back from the bounds of its interval too
    s = vb >> 2
    sp10 = s // 10 * 10  # the multiples of 10^(k+1) either side of v
    tp10 = sp10 + 10
    upin = vbl + odd <= sp10 << 2
    wpin = (tp10 << 2) + odd <= vbr
    t = s + 1  # the multiples of 10^k either side of v
    uin = vbl + odd <= s << 2
    win = (t << 2) + odd <= vbr
    cmp = vb.astype(np.int64) - ((s + t) << 1).astype(np.int64)
    nearer_s = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & (s & 1 == 0)))
    digits = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(nearer_s, s, t))
    for j in (16, 8, 4, 2, 1):  # strip trailing zeros by exact division, 10^j = 5^j 2^j
        x = digits * pow(5, -j, 1 << 64)  # digits / 5^j modulo 2^64
        x = (x >> j) | (x << (64 - j))  # rotated: digits / 10^j where that is exact, else larger
        hit = x <= ((1 << 64) - 1) // 10**j
        np.copyto(digits, x, where=hit)
        k += hit * j
    return digits, k


def _sources(bits: np.ndarray):
    """The source rows, one per slot and one column per value, and each value's layout."""
    n = len(bits)
    exponent = (bits >> 52) & 0x7FF
    fraction = bits & ((1 << 52) - 1)
    zero = (bits << 1) == 0
    c = np.where(exponent != 0, fraction | (1 << 52), fraction)
    c[zero | (exponent == 0x7FF)] = 1  # formatted as 5e-324, then overwritten
    digits, k = _shortest(c, np.maximum(exponent.astype(np.int64), 1) - 1075)
    digits[zero] = 0
    _, _, _, tens, exponents, forms = _tables()
    n_digits = np.searchsorted(tens, digits, side="right") + 1
    e = np.where(zero, 0, k + n_digits - 1) + 324  # the decimal exponent, from -324

    # the digits, right-aligned in 17 slots, split 9 + 8 into uint32
    src = np.empty((_NUL + 1, n), dtype=np.uint8)
    high = (digits // 10**8).astype(np.uint32)
    low = (digits - high * np.uint64(10**8)).astype(np.uint32)
    for part, slots in ((low, range(16, 8, -1)), (high, range(8, -1, -1))):
        for slot in slots:
            rest = part // 10
            src[slot] = part - rest * 10 + ord("0")
            part = rest
    src[_ZERO:_EXP_SIGN] = np.frombuffer(b"0.-e", dtype=np.uint8)[:, None]
    src[_EXP_SIGN:_NUL] = np.take(exponents, e, axis=1)
    src[_NUL] = 0
    return src, ((bits >> 63).astype(np.intp) * 17 + n_digits - 1) * _FORMS + np.take(forms, e)


def cells(values) -> np.ndarray:
    """Each float's ``repr`` text as ASCII bytes, NUL-padded to ``WIDTH``.

    Returns uint8 of shape ``np.shape(values) + (WIDTH,)``.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = len(flat)
    src, rows = _sources(flat.view(np.uint64))
    # each value's layout as offsets into src
    at = np.take(np.multiply(_tables()[2], n, dtype=np.intp), rows, axis=0)
    at += np.arange(n)[:, None]
    out = np.take(src.reshape(-1), at)
    if not np.isfinite(flat).all():
        for text, hit in ((b"nan", np.isnan(flat)), (b"inf", flat == np.inf),
                          (b"-inf", flat == -np.inf)):
            out[hit] = np.frombuffer(text.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(np.shape(values) + (WIDTH,))
