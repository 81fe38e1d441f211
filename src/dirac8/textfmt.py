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
powers of ten, and ``np.take`` gathers each value's bytes by its layout.
The layout is ``repr``'s: positional for decimal exponents -5 < e < 16,
with ``.0`` on integers, else ``d.ddde±XX``; and ``nan``, ``inf``,
``-inf``, ``-0.0``.

The arithmetic runs in place, into buffers that are reused from step to
step, and the byte offsets of the gather are formed ``_GATHER`` values at a
time, so a call's working set is about 90 bytes a value (under tracemalloc,
at the CLI's passes of 4 x 2,730 values): the seven uint64 buffers of
``_bounds``, then the source rows, the output and one block of offsets.  The
calls share nothing but the cached tables, so threads can run them at once.
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
_GATHER = 1024  # values whose byte offsets are gathered at once
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
    sign and three digits, and the form its layouts take; and the four digits
    of each of 0 .. 9999.

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
            np.array(layouts, dtype=np.intp), 10 ** np.arange(1, 17, dtype=np.uint64),
            np.frombuffer("".join(f"{e:+04d}" for e in exponents).encode(),
                          dtype=np.uint8).reshape(-1, 4).T.copy(),
            np.array([e + 4 if -5 < e < 16 else 20 + (abs(e) >= 100) for e in exponents]),
            (np.arange(10_000, dtype=np.uint16) // np.array([[1000], [100], [10], [1]], np.uint16)
             % 10 + ord("0")).astype(np.uint8))


def _mul128(a0, a1, high, low, t) -> None:
    """The high and low 64-bit words of a b into high and low.

    All are uint64 arrays of one shape.  a is given as its 32-bit limbs a0 and
    a1, b as its limbs in high and low; a0, a1 and b are overwritten, and t is
    scratch.  b < 2^60, so the two cross products add up without overflow.
    """
    np.multiply(a1, high, out=t)  # the high limbs' product
    np.multiply(a0, high, out=high)
    np.multiply(a0, low, out=a0)  # the low limbs' product
    np.multiply(a1, low, out=low)
    low += high  # the cross products
    np.right_shift(a0, 32, out=high)
    low += high  # the middle word
    a0 &= _M32
    np.right_shift(low, 32, out=high)
    high += t
    low <<= 32
    low |= a0


def _round_to_odd(high0, low0, high1, out, z) -> np.ndarray:
    """Schubfach's rop into out: g cp / 2^127 rounded to odd, for g = g1 2^63 + g0.

    high0 and low0 are the words of g1 cp, high1 the high word of g0 cp; z is
    scratch.  out may be high1 and z may be low0.  As in the reference, the
    low bit of g1 cp and the low word of g0 cp are dropped, which cancels the
    + 1 of g where 10^-k 2^-r is an integer.
    """
    np.right_shift(low0, 1, out=z)
    z += high1
    np.right_shift(z, 63, out=out)
    out += high0
    z <<= 1
    np.minimum(z, 1, out=z)  # the low 63 bits of z are not all zero
    out |= z
    return out


def _bounds(c: np.ndarray, q: np.ndarray):
    """k, and Schubfach's vbl, vb, vbr: 4 v 10^-k and its interval's bounds, rounded to odd.

    v = c 2^q, and each is rop(g, x 2^h) at x = 4c - 2 (4c - 1 where the gap
    below v is half the gap above), 4c and 4c + 2.  g cp is multiplied out
    once, at 4c 2^h, as the words of g1 cp and g0 cp.  The bounds add g 2^(h+1)
    to those words, then take it and g 2^(h+1) (g 2^h) away, shifts of g, word
    by word with the carry or borrow.  All of it runs in place in seven
    buffers of 8 bytes a value, the largest working set of the kernel.
    """
    g, r = _tables()[:2]
    asymmetric = (c == 1 << 52) & (q > -1074)
    at = np.multiply(q, 661_971_961_083, dtype=np.int64)
    np.subtract(at, 274_743_187_321, out=at, where=asymmetric)
    at >>= 41  # floor(log10(width))
    k = at.astype(np.int16)
    at -= _K_MIN
    shift = np.take(r, at)
    shift += q
    shift += 128
    shift = shift.astype(np.uint8)  # h + 1, 3 .. 6
    a0, a1, t = (np.empty_like(c) for _ in range(3))
    words = []  # the high and low words of g1 cp, then of g0 cp
    for row in g:
        np.take(row, at, out=t, mode="clip")
        np.bitwise_and(t, _M32, out=a0)
        np.right_shift(t, 32, out=a1)
        high, low = np.empty_like(c), np.empty_like(c)
        np.left_shift(c, shift + 1, out=low)  # cp = 4c 2^h
        np.right_shift(low, 32, out=high)
        low &= _M32
        _mul128(a0, a1, high, low, t)
        words += [high, low]

    def add(op) -> None:
        """Add g 2^shift to the words (op np.subtract: take it away), with the carry."""
        for row, high, low in zip(g, words[::2], words[1::2]):
            np.take(row, at, out=t, mode="clip")
            np.left_shift(t, shift, out=t)  # the low word of g's row times 2^shift
            if op is np.subtract:
                carry = low < t
            op(low, t, out=low)
            if op is np.add:
                carry = low < t
            np.take(row, at, out=t, mode="clip")
            np.right_shift(t, 64 - shift, out=t)  # its high word
            op(high, t, out=high)
            op(high, carry, out=high)

    high0, low0, high1, _ = words
    vb = _round_to_odd(high0, low0, high1, a0, t)
    add(np.add)
    vbr = _round_to_odd(high0, low0, high1, a1, t)
    add(np.subtract)
    shift -= asymmetric
    add(np.subtract)
    return k, _round_to_odd(high0, low0, high1, high1, low0), vb, vbr


def _shortest(c: np.ndarray, q: np.ndarray):
    """Schubfach's (digits, k): the decimal digits 10^k that ``repr`` writes for c 2^q.

    c > 0 is the integer significand, q the binary exponent.  The digits end
    in no zero.
    """
    k, vbl, vb, vbr = _bounds(c, q)
    # an even c reads back from the bounds of its interval too: x + odd <= vbr
    # is x <= vbr - odd, and vbl + odd <= x keeps its form
    odd = c & 1
    vbl += odd
    vbr -= odd
    del odd
    digits = vb >> 2  # s, then the digits
    ten = digits // 10
    ten *= 10  # the multiple of 10^(k+1) below v; 10 more is the one above
    x = ten << 2
    upin = vbl <= x
    x += 40
    wpin = x <= vbr
    np.left_shift(digits, 2, out=x)  # the multiples s and s + 1 of 10^k either side of v
    uin = vbl <= x
    x += 4
    win = x <= vbr
    del vbl, vbr
    np.bitwise_and(vb, 3, out=x)  # vb - 4s - 2 has the sign of these bits less 2
    nearer_s = (x < 2) | ((x == 2) & (digits & 1 == 0))
    np.copyto(nearer_s, uin, where=uin != win)
    np.logical_not(nearer_s, out=nearer_s)
    digits += nearer_s
    np.copyto(digits, ten, where=upin & ~wpin)
    ten += 10
    np.copyto(digits, ten, where=wpin & ~upin)
    del ten, upin, wpin, uin, win, nearer_s
    for j in (16, 8, 4, 2, 1):  # strip trailing zeros by exact division, 10^j = 5^j 2^j
        np.multiply(digits, pow(5, -j, 1 << 64), out=x)  # digits / 5^j modulo 2^64
        np.left_shift(x, 64 - j, out=vb)
        x >>= j
        x |= vb  # rotated: digits / 10^j where that is exact, else larger
        hit = x <= ((1 << 64) - 1) // 10**j
        np.copyto(digits, x, where=hit)
        np.add(k, j, out=k, where=hit)
    return digits, k


def _sources(bits: np.ndarray):
    """The source rows, one per slot and one column per value, and each value's layout."""
    n = len(bits)
    q = (bits >> 52).astype(np.int16)
    q &= 0x7FF  # the biased exponent
    c = bits & ((1 << 52) - 1)
    np.bitwise_or(c, 1 << 52, out=c, where=q != 0)
    zero = (bits << 1) == 0
    np.copyto(c, 1, where=zero | (q == 0x7FF))  # formatted as 5e-324, then overwritten
    np.maximum(q, 1, out=q)
    q -= 1075
    digits, k = _shortest(c, q)
    del c, q
    np.copyto(digits, 0, where=zero)
    _, _, _, tens, exponents, forms, quads = _tables()
    more_digits = np.searchsorted(tens, digits, side="right")  # the digit count less one
    e = k  # the decimal exponent, from -324
    e += more_digits
    e += 324
    np.copyto(e, 324, where=zero)

    # the digits, right-aligned in 17 slots, split 9 + 8 into uint32
    src = np.empty((_NUL + 1, n), dtype=np.uint8)
    high = (digits // 10**8).astype(np.uint32)
    low = (digits - high * np.uint64(10**8)).astype(np.uint32)
    del digits
    for part, right in ((low, 13), (high, 5)):  # four digits at a time, from the right
        for slot in (right, right - 4):
            part, four = np.divmod(part, 10_000)
            np.take(quads, four, axis=1, out=src[slot:slot + 4], mode="clip")
    src[0] = part + ord("0")  # the ninth digit of high, left over from its two quads
    src[_ZERO:_EXP_SIGN] = np.frombuffer(b"0.-e", dtype=np.uint8)[:, None]
    src[_EXP_SIGN:_NUL] = np.take(exponents, e, axis=1)
    src[_NUL] = 0
    rows = (bits >> 63).astype(np.int16)
    rows *= 17
    rows += more_digits
    rows *= _FORMS
    rows += np.take(forms, e)
    return src, rows


def cells(values) -> np.ndarray:
    """Each float's ``repr`` text as ASCII bytes, NUL-padded to ``WIDTH``.

    Returns uint8 of shape ``np.shape(values) + (WIDTH,)``.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = len(flat)
    src, rows = _sources(flat.view(np.uint64))
    src = src.reshape(-1)
    layouts = _tables()[2]
    out = np.empty((n, WIDTH), dtype=np.uint8)
    at = np.empty((min(n, _GATHER), WIDTH), dtype=np.intp)
    for start in range(0, n, _GATHER):  # the (values, WIDTH) offsets a block at a time
        block = at[:n - start]
        np.take(layouts, rows[start:start + _GATHER], axis=0, out=block, mode="clip")
        block *= n  # each layout's source rows as offsets into src
        block += np.arange(start, start + len(block))[:, None]
        np.take(src, block, out=out[start:start + _GATHER], mode="clip")
    if not np.isfinite(flat).all():
        for text, hit in ((b"nan", np.isnan(flat)), (b"inf", flat == np.inf),
                          (b"-inf", flat == -np.inf)):
            out[hit] = np.frombuffer(text.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(np.shape(values) + (WIDTH,))
