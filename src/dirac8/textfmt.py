"""Shortest round-trip text of float64 arrays, byte for byte what ``repr`` writes.

``cells`` writes each value's text into a NUL-padded slot of ``WIDTH`` bytes.
Its digits are Schubfach's (R. Giulietti, *The Schubfach way to render
doubles*, 2020): v = c 2^q times a 126-bit upper approximation of 10^-k, with
10^k at most the width of v's rounding interval, rounded to odd at v and at
both bounds, decides exactly whether a multiple of 10^(k+1) reads back as v,
and otherwise which multiple of 10^k next to v is nearest.  That is the
shortest decimal that reads back, the nearest among those, ties to even, as
``repr`` picks it.  All of it is uint64 arithmetic, the 64 x 64-bit products
in 32-bit limbs.  The layout is ``repr``'s: positional for decimal exponents
-5 < e < 16, with ``.0`` on integers, else ``d.ddde±XX``; and ``nan``,
``inf``, ``-inf``, ``-0.0``.
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
    """g as (g >> 63, g & (2^63 - 1)) and r per k, from k = -324; every layout.

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
    return (np.array(g_halves, dtype=np.uint64), np.array(shifts, dtype=np.int64),
            np.array(layouts, dtype=np.uint8))


def _mul128(a: np.ndarray, b: np.ndarray):
    """The high and low 64-bit halves of a * b for uint64 arrays, in 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return (a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32),
            (low & _M32) | (mid << 32))


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g cp / 2^127 for g = g1 2^63 + g0, rounded to odd.

    As in the reference, the low 64 bits of g0 cp are dropped, which cancels
    the + 1 of g where 10^-k 2^-r is an integer.
    """
    y1, y0 = _mul128(g1, cp)
    z = (y0 >> 1) + _mul128(g0, cp)[0]
    return (y1 + (z >> 63)) | ((z & _M63) != 0)


def _shortest(c: np.ndarray, q: np.ndarray):
    """Schubfach's (digits, k): the decimal digits 10^k that ``repr`` writes for c 2^q.

    c > 0 is the integer significand, q the binary exponent.  The digits may
    end in zeros.
    """
    g, r, _ = _tables()
    odd = c & 1  # an even c reads back from the bounds of its interval too
    asymmetric = (c == 1 << 52) & (q > -1074)  # the gap below v is half the gap above
    k = (q * 661_971_961_083 - asymmetric * 274_743_187_321) >> 41  # floor(log10(width))
    at = k - _K_MIN
    cb, h, g1, g0 = c << 2, (q + r[at] + 127).astype(np.uint64), g[at, 0], g[at, 1]
    vbl, vb, vbr = (_round_to_odd(g1, g0, x << h)  # 4 v 10^-k and its bounds
                    for x in (cb - 2 + asymmetric.astype(np.uint64), cb, cb + 2))

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
    return digits, k


def cells(values) -> np.ndarray:
    """Each float's ``repr`` text as ASCII bytes, NUL-padded to ``WIDTH``.

    Returns uint8 of shape ``np.shape(values) + (WIDTH,)``.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = flat.view(np.uint64)
    n = len(bits)
    exponent = (bits >> 52) & 0x7FF
    fraction = bits & ((1 << 52) - 1)
    special = exponent == 0x7FF
    zero = (bits << 1) == 0
    c = np.where(exponent != 0, fraction | (1 << 52), fraction)
    c[zero | special] = 1  # formatted as 5e-324, then overwritten
    digits, k = _shortest(c, np.maximum(exponent.astype(np.int64), 1) - 1075)
    digits[zero] = 0

    # one source row per slot, one column per value; 17 digits fit 9 + 8 in uint32
    src = np.empty((_NUL + 1, n), dtype=np.uint8)
    high = (digits // 10**8).astype(np.uint32)
    low = (digits - high * np.uint64(10**8)).astype(np.uint32)
    for part, slots in ((low, range(16, 8, -1)), (high, range(8, -1, -1))):
        for slot in slots:
            rest = part // 10
            src[slot] = part - rest * 10 + ord("0")
            part = rest
    src[_ZERO:_EXP_SIGN] = np.frombuffer(b"0.-e", dtype=np.uint8)[:, None]
    src[_NUL] = 0
    nonzero = src[:17] != ord("0")
    lead = np.where(zero, 16, nonzero.argmax(axis=0))
    trail = np.where(zero, 0, nonzero[::-1].argmax(axis=0)).astype(np.uint8)
    point = np.where(zero, 1, k + 17 - lead)  # digits before the decimal point
    exp10 = point - 1
    mag = np.abs(exp10)
    src[_EXP_SIGN] = np.where(exp10 < 0, ord("-"), ord("+"))
    src[_EXP] = mag // 100 + ord("0")
    src[_EXP + 1] = mag // 10 % 10 + ord("0")
    src[_EXP + 2] = mag % 10 + ord("0")

    form = np.where((point > -4) & (point <= 16), point + 3, np.where(mag >= 100, 21, 20))
    n_digits = 17 - lead - trail
    index = _tables()[2][((bits >> 63).astype(np.int64) * 17 + n_digits - 1) * _FORMS + form]
    index -= (index < 17) * trail[:, None]  # the digits end where the trailing zeros start
    at = index.astype(np.int32 if src.size < 2**31 else np.intp)  # the narrowest that fits
    at *= n
    at += np.arange(n, dtype=at.dtype)[:, None]
    out = src.reshape(-1)[at]
    if special.any():
        for text, hit in ((b"nan", np.isnan(flat)), (b"inf", flat == np.inf),
                          (b"-inf", flat == -np.inf)):
            out[hit] = np.frombuffer(text.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(np.shape(values) + (WIDTH,))
