"""Shortest round-trip text of float64 arrays, byte for byte what ``repr`` writes.

``cells`` writes each value's text into a NUL-padded slot of ``WIDTH`` bytes.
Its digits are Schubfach's (R. Giulietti, *The Schubfach way to render
doubles*, 2020): v = c 2^q times a 126-bit upper approximation of 10^-k, with
10^k at most the width of v's rounding interval, rounded to odd at v and at
both bounds, decides exactly whether a multiple of 10^(k+1) reads back as v,
and otherwise which multiple of 10^k next to v is nearest.  That is the
shortest decimal that reads back, the nearest among those, ties to even, as
``repr`` picks it.  All of it is uint64 arithmetic, the 64 x 64-bit products
in 32-bit limbs.  g is multiplied by v once, both 63-bit halves of g as one
(2, n) array: the bounds differ from v by a power of two, so their products
are those words plus or minus shifts of g, which the tables hold by v's
binary exponent.  Trailing zeros are stripped by exact division (times the
inverse of 5^j modulo 2^64, then a rotation), the digit count is read off the
digits' own binary exponent as a float, and ``np.take`` gathers each value's
bytes by its layout.  The layout is ``repr``'s: positional for decimal
exponents -5 < e < 16, with ``.0`` on integers, else ``d.ddde±XX``; and
``nan``, ``inf``, ``-inf``, ``0.0``, ``-0.0``, written over the others.

A call makes about 230 numpy calls whatever its size, so that on the CLI's
passes each lasts long enough for two threads to overlap: the choices are
blends in wrapping uint64 arithmetic, not ``where=``-masked calls, and shifts
and carries take operands of one dtype.  The arithmetic runs in
place, into buffers that are reused from step to step, and the byte offsets
of the gather are formed in ``_BLOCKS`` blocks, so a call's working set is
about 83 bytes a value (under tracemalloc, at the CLI's passes of 4 x 5,461
values): the four (2, n) uint64 buffers of ``_bounds``, then the source
rows, the output and one block of offsets.  The calls share nothing but the
cached tables, so threads can run them at once.
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
_BLOCKS = 8  # blocks a call gathers its bytes in: their offsets take 8 bytes a byte
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
    """``_bounds``' tables by its row (see there): k, h + 2, and as (2, 4096)
    arrays, a row per half of g, the 32-bit limbs of g1 and g0 and the words
    of the bounds' two adjustments.  Then every layout; by a float's biased
    exponent, the digit counts that ``_sources`` reads; per decimal exponent
    from -324, its sign and three digits, and the form its layouts take; and
    the four digits of each of 0 .. 9999.

    10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1,
    exact in Python ints.  Built on first use, not at import: about 0.6 MB.
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

    def by_row(dtype, *lead):
        """A table of 4096 rows, and its view as (flag, q): row q + 1075 + 2048 flag.

        q runs -1074 .. 972 (972: inf and nan); rows 0 and 2048 stay zero.
        """
        table = np.zeros(lead + (4096,), dtype=dtype)
        return table, table.reshape(lead + (2, 2048))[..., 1:]

    q = np.arange(-1074, 973)
    asym = np.arange(2)[:, None] & (q > -1074)  # the gaps either side of 2^-1022 are equal
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41  # floor(log10(width))
    k_of, view = by_row(np.int16)
    view[...] = k
    k -= _K_MIN
    h = np.array(shifts)[k]
    h += q + 127  # 2 .. 5
    shift_of, view = by_row(np.uint64)
    np.add(h, 2, out=view, casting="unsafe")
    g = np.array(g_halves, dtype=np.uint64).T[:, k]  # (half, flag, q)
    del k
    limbs, view = by_row(np.uint64, 2, 2)
    np.right_shift(g, 32, out=view[0])
    np.bitwise_and(g, _M32, out=view[1])
    # the low and high words of each half of g 2^(h+1), then of g 2^(h+1-asym)
    up, view = by_row(np.uint64, 2, 2)
    h = (h + 1).astype(np.uint64)
    np.left_shift(g, h, out=view[0])
    np.right_shift(g, 64 - h, out=view[1])
    down, low_high = by_row(np.uint64, 2, 2)
    low, high = low_high
    h -= asym.astype(np.uint64)
    np.left_shift(g, h, out=low)
    np.right_shift(g, 64 - h, out=high)
    del g, h
    low += view[0]
    high += view[1]
    high += low < view[0]
    # 2^128 less g (2^(h+1) + 2^(h+1-asym)): adding it takes away what up added and then
    # g 2^(h+1-asym), both modulo 2^128
    np.invert(high, out=high)
    high += low == 0
    np.subtract(0, low, out=low)
    del view, low_high, low, high

    layouts = np.full((2, 17, _FORMS, WIDTH), _NUL, dtype=np.intp)
    for negative in (False, True):
        for n_digits in range(1, 18):
            for form in range(_FORMS):
                layouts[int(negative), n_digits - 1, form] = _layout(negative, n_digits, form)
    # by the biased exponent 1023 + b of a float 2^b <= x < 2^(b+1), x <= 2^57:
    # floor(log10(2^b)), and 10 to the next power
    below = [len(str(1 << b)) - 1 for b in range(58)]
    digit_counts = (np.array([0] * 1023 + below, dtype=np.int16),
                    np.array([10] * 1023 + [10 ** (d + 1) for d in below], dtype=np.uint64))
    exponents = range(-324, 309)
    quads = np.arange(10_000, dtype=np.uint16) // np.array([[1000], [100], [10], [1]], np.uint16)
    quads %= 10
    quads += ord("0")
    return (k_of, shift_of, limbs, up, down, layouts.reshape(-1, WIDTH), digit_counts,
            np.frombuffer("".join(f"{e:+04d}" for e in exponents).encode(),
                          dtype=np.uint8).reshape(-1, 4).T.copy(),
            np.array([e + 4 if -5 < e < 16 else 20 + (abs(e) >= 100) for e in exponents]),
            quads.astype(np.uint8))


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


def _add(high, low, words, at, t) -> None:
    """Add the words of words' rows at to the words high and low of g1 cp and g0 cp.

    Each is (2, n): a row per half of g.  The sums carry from the low word to
    the high one and wrap modulo 2^128; t is scratch.
    """
    np.take(words[0], at, axis=1, out=t, mode="clip")
    low += t
    np.less(low, t, out=t)  # the carries
    high += t
    np.take(words[1], at, axis=1, out=t, mode="clip")
    high += t


def _bounds(c: np.ndarray, q: np.ndarray):
    """k, and Schubfach's vbl, vb, vbr: 4 v 10^-k and its interval's bounds, rounded to odd.

    v = c 2^q, and each is rop(g, x 2^h) at x = 4c - 2 (4c - 1 where the gap
    below v is half the gap above), 4c and 4c + 2.  k, h and g follow from q
    and that asymmetry alone, so ``_tables`` holds them by the row
    at = q + 1075 + 2048 asym.  g cp is multiplied out once, at cp = 4c 2^h,
    both halves of g at once, as the words of g1 cp and g0 cp.  The bounds
    add g 2^(h+1) to those words, then take it and g 2^(h+1) (g 2^h) away:
    shifts of g, read from the tables as words and added with the carry.
    All of it runs in place in four (2, n) buffers of uint64.
    """
    k_of, shift_of, limbs, up, down = _tables()[:5]
    at = np.multiply(c == 1 << 52, 2048, dtype=np.intp)
    at += q
    at += 1075
    b = np.empty((2, len(c)), dtype=np.uint64)  # cp's 32-bit limbs; then vb and vbr
    np.left_shift(c, np.take(shift_of, at, mode="clip"), out=b[1])
    np.right_shift(b[1], 32, out=b[0])
    b[1] &= _M32
    high, low, t = (np.empty_like(b) for _ in range(3))
    np.take(limbs[0], at, axis=1, out=high, mode="clip")  # the high limbs a1 of g's halves
    np.take(limbs[1], at, axis=1, out=t, mode="clip")  # and their low limbs a0
    np.multiply(high, b[1], out=low)
    high *= b[0]
    t *= b[0]
    low += t  # the cross products: cp < 2^60, so they add up without overflow
    np.take(limbs[1], at, axis=1, out=t, mode="clip")  # a0 again, in place of a fifth buffer
    t *= b[1]  # the low limbs' product
    np.right_shift(t, 32, out=b)
    low += b  # the middle word
    t &= _M32
    np.right_shift(low, 32, out=b)
    high += b
    low <<= 32
    low |= t
    vb = _round_to_odd(high[0], low[0], high[1], b[0], t[0])
    _add(high, low, up, at, t)
    vbr = _round_to_odd(high[0], low[0], high[1], b[1], t[0])
    _add(high, low, down, at, t)
    del t
    return (np.take(k_of, at, mode="clip"), _round_to_odd(high[0], low[0], high[1], high[1], low[0]),
            vb, vbr)


def _blend(a, b, mask, t) -> None:
    """a where mask is False, b where it is True, into a, by wrapping uint64 arithmetic.

    Three plain calls; t is scratch.  A ``where=``-masked copy costs many times
    that on a mask that is true at random half the time.
    """
    np.subtract(b, a, out=t)
    t *= mask
    a += t


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
    # s + 1 where it alone reads back, and where both or neither do, where it is nearer v
    # or as near and s is odd: vb - 4s - 2 > 0, or = 0 and s odd, is vb's low bits 3, 6, 7
    np.bitwise_and(vb, 7, out=x)
    np.right_shift(0b11001000, x, out=x)
    x &= 1
    del vb
    t = np.empty_like(x)
    _blend(x, win, uin != win, t)
    digits += x
    np.multiply(wpin, np.uint64(10), out=x)
    x += ten
    _blend(digits, x, upin != wpin, t)  # where one multiple of 10^(k+1) alone reads back
    del ten, upin, wpin, uin, win
    for j in (16, 8, 4, 2, 1):  # strip trailing zeros by exact division, 10^j = 5^j 2^j
        np.multiply(digits, pow(5, -j, 1 << 64), out=x)  # digits / 5^j modulo 2^64
        np.left_shift(x, 64 - j, out=t)
        x >>= j
        x |= t  # rotated: digits / 10^j where that is exact, else larger
        hit = x <= ((1 << 64) - 1) // 10**j
        if hit.any():  # on most data, at most j = 1 and 2 hit
            _blend(digits, x, hit, t)
            k += hit * np.int16(j)
    return digits, k


def _sources(bits: np.ndarray):
    """The source rows, one per slot and one column per value, and each value's layout."""
    n = len(bits)
    biased = bits >> 52
    biased &= 0x7FF  # the biased exponent
    c = bits & ((1 << 52) - 1)
    implicit = np.minimum(biased, 1)
    implicit <<= 52
    c |= implicit  # the implicit bit of normal numbers
    del implicit
    np.maximum(c, 1, out=c)  # zero is formatted as 5e-324; ``cells`` overwrites it
    q = biased.astype(np.int16)
    del biased
    np.maximum(q, 1, out=q)
    q -= 1075
    digits, k = _shortest(c, q)
    del c, q
    _, _, _, _, _, _, powers, exponents, forms, quads = _tables()
    # the digit count less one, floor(log10(digits)): from the exponent of digits as a float
    at = digits.astype(np.float64).view(np.int64)
    at >>= 52
    more_digits = np.take(powers[0], at, mode="clip")
    more_digits += digits >= np.take(powers[1], at, mode="clip")
    del at
    e = k  # the decimal exponent, from -324
    e += more_digits
    e += 324

    # the digits, right-aligned in 17 slots, split 9 + 8 into uint32; floor division by a
    # constant is a multiplication, the remainder is not
    src = np.empty((_NUL + 1, n), dtype=np.uint8)
    high = digits // 10**8
    digits -= high * 10**8
    for part, right in ((digits.astype(np.uint32), 13), (high.astype(np.uint32), 5)):
        for slot in (right, right - 4):  # four digits at a time, from the right
            rest = part // 10_000
            part -= rest * 10_000
            np.take(quads, part, axis=1, out=src[slot:slot + 4], mode="clip")
            part = rest
    del digits, high
    src[0] = part + ord("0")  # the ninth digit of high, left over from its two quads
    src[_ZERO:_EXP_SIGN] = np.frombuffer(b"0.-e", dtype=np.uint8)[:, None]
    np.take(exponents, e, axis=1, out=src[_EXP_SIGN:_NUL], mode="clip")
    src[_NUL] = 0
    rows = (bits >> 63).astype(np.int16)
    rows *= 17
    rows += more_digits
    rows *= _FORMS
    rows += np.take(forms, e, mode="clip")
    return src, rows


def cells(values) -> np.ndarray:
    """Each float's ``repr`` text as ASCII bytes, NUL-padded to ``WIDTH``.

    Returns uint8 of shape ``np.shape(values) + (WIDTH,)``.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = len(flat)
    src, rows = _sources(flat.view(np.uint64))
    src = src.reshape(-1)
    layouts = _tables()[5]
    out = np.empty((n, WIDTH), dtype=np.uint8)
    step = max(-(-n // _BLOCKS), 1)
    at = np.empty((min(n, step), WIDTH), dtype=np.intp)
    column = np.arange(len(at))[:, None]
    for start in range(0, n, step):  # the (values, WIDTH) offsets a block at a time
        block = at[:n - start]
        np.take(layouts, rows[start:start + step], axis=0, out=block, mode="clip")
        block *= n  # each layout's source rows as offsets into src from value start on
        block += column[:len(block)]
        np.take(src[start:], block, out=out[start:start + step], mode="clip")
    if not (np.isfinite(flat).all() and flat.all()):
        bits = flat.view(np.uint64)
        for text, hit in ((b"nan", np.isnan(flat)), (b"inf", flat == np.inf),
                          (b"-inf", flat == -np.inf), (b"0.0", bits == 0),
                          (b"-0.0", bits == 1 << 63)):
            out[hit] = np.frombuffer(text.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(np.shape(values) + (WIDTH,))
