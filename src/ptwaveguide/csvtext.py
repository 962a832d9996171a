"""CSV text of float64 arrays: the bytes of ``'%.15g' % x`` for every element,
computed with numpy instead of one Python format call per value.

:func:`g15_words` renders an array into slots of three 64-bit words that
hold each text's bytes in order with NUL bytes among them; the writers lay
slots, separators and constant text out in one line buffer of 64-bit words,
and :func:`line_text` keeps its non-NUL bytes.  The kernel decides almost
every element itself:

1. |x| is scaled by 10^(14-p), p = floor(log10 |x|), in double-double
   arithmetic: a Dekker two-product with the hi/lo pair of 10^(14-p), built
   exactly from Python integers, plus |x| times the lo part.  The scaled
   value carries an absolute error below 1e-15.
2. Where the scaled value falls outside [1e14, 1e15), log10 was off by one:
   p moves by one and the element is scaled again.  The value is then
   rounded to the nearest integer; a carry to 1e15 gives 1e14 at p + 1.
3. Python renders the elements the kernel cannot decide: zero, non-finite
   values, |x| outside [1e-280, 1e280] and elements whose scaled fraction
   lies within 1e-6 of one half, exact binary ties among them.
4. The 15 digits, as ASCII in two words (byte 0 a leading "0"), become the
   text by word arithmetic on tables indexed by a code (sign x 20 exponent
   cases x 15 significant-digit counts): a head mask keeps the digits before
   the decimal point, moved down one byte to leave the point's byte free,
   and a tail mask the digits after it, so that trailing zeros become NUL
   bytes; one shift places the 16 bytes in the slot, at byte 2 in
   exponential notation and at byte 7 in fixed notation; prefix words add
   the sign, a leading "0.000" and the point, and a word per exponent the
   "e+dd" or "e+ddd" text, which ends at byte 22, and the comma that
   follows every field, in byte 23.

The tables are built on first use, so importing the package stays cheap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SLOT_WORDS = 3  # 24 bytes: at most 22 of text, a NUL byte, then the comma

_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # 10^(14-p) and Dekker's splits stay finite inside
_TIE_BAND = 1e-6  # scaled fractions this close to 1/2 go to Python
_K_MIN, _K_MAX = -270, 300  # exponents of the powers-of-ten table
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_CASES = 20  # fixed notation at exponents -4..14, then exponential
_P_MIN, _P_MAX = -300, 300  # exponents of the exponent-text table
_SHIFT_FIXED, _SHIFT_EXP = 7, 2  # slot byte of the digits' byte 0


def _code_words(negative: bool, case: int, nd: int) -> list[int]:
    """The nine table words of a value with ``nd`` significant digits in
    fixed notation at exponent ``case - 4`` (cases 0..18) or in exponential
    notation (19): head and tail masks (two words each), prefix (three
    words) and the placement's left and right shifts in bits."""
    exponent = case - 4
    lead = b""
    if case < 19 and exponent >= 0:
        head, last, shift = exponent + 1, max(nd, exponent + 1), _SHIFT_FIXED
    elif case < 19:
        head, last, shift = 0, nd, _SHIFT_FIXED
        lead = b"0." + b"0" * (-exponent - 1)
    else:
        head, last, shift = 1, nd, _SHIFT_EXP
    first = shift + (0 if head else 1)  # slot byte of the first digit
    prefix = bytearray(8 * SLOT_WORDS - 1) + b","
    text = b"-" * negative + lead
    prefix[first - len(text):first] = text
    if head and last > head:
        prefix[shift + head] = ord(".")
    head_mask = ((1 << 8 * head) - 1).to_bytes(16, "little")
    tail_mask = ((1 << 8 * (last + 1)) - (1 << 8 * (head + 1))).to_bytes(16, "little")
    words = np.frombuffer(head_mask + tail_mask + bytes(prefix), np.uint64).tolist()
    return words + [8 * shift, 64 - 8 * shift]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _tables():
    """(pow_hi, pow_lo, group_words, group_zeros, exponent_words, case_codes,
    code_words), built on first use.

    pow_hi[k - _K_MIN] + pow_lo[k - _K_MIN] is 10^k to about 2^-106
    relative: hi is 10^k correctly rounded, lo the remainder correctly
    rounded, both from exact integer ratios.  group_words[0][g] holds the
    four ASCII digits of g < 10^4 in a word's low half, group_words[1][g] in
    its high half, and group_zeros[g] their trailing zeros;
    exponent_words[p - _P_MIN] holds b"e%+03d" % p ending at a slot's byte
    22, or nothing where p prints in fixed notation, and case_codes[p -
    _P_MIN] is case * 15 + 14 of its notation case.
    code_words[:, (negative * 20 + case) * 15 + nd - 1] is
    :func:`_code_words`' column."""
    pow_hi, pow_lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    # small integer types: the build adds no more to peak RSS than the tables
    g = np.arange(10 ** 4, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    group_text = (digits + ord("0")).view(np.uint32).ravel().astype(np.uint64)
    group_words = np.stack([group_text, group_text << np.uint64(32)])
    group_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1,
                                                                               dtype=np.int8)
    exponents = range(_P_MIN, _P_MAX + 1)
    exponent_text = [b"" if -4 <= p < 15 else b"e%+03d" % p for p in exponents]
    # the text ends at byte 6 of the slot's last word
    exponent_words = np.array([int.from_bytes(e, "little") << 8 * (7 - len(e))
                               for e in exponent_text], dtype=np.uint64)
    case_codes = np.array([(p + 4 if -4 <= p < 15 else _CASES - 1) * 15 + 14 for p in exponents])
    code_words = np.array([_code_words(negative, case, nd) for negative in (False, True)
                           for case in range(_CASES) for nd in range(1, 16)], dtype=np.uint64).T
    return _read_only(np.array(pow_hi), np.array(pow_lo), group_words, group_zeros,
                      exponent_words, case_codes, np.ascontiguousarray(code_words))


def _split(a):
    high = _SPLITTER * a
    high = high - (high - a)
    return high, a - high


def _scale(a, p, pow_hi, pow_lo):
    """(whole, frac): a * 10^(14-p) split into its floor and a fraction in
    [0, 1], to an absolute error below 1e-15."""
    k = 14 - p - _K_MIN
    hi, lo = pow_hi[k], pow_lo[k]
    product = a * hi
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(hi)
    # Dekker: product + error == a * hi exactly
    error = a_lo * h_lo - (((product - a_hi * h_hi) - a_lo * h_hi) - a_hi * h_lo)
    whole = np.floor(product)
    frac = (product - whole) + (error + a * lo)
    carry = np.floor(frac)  # the small terms can push frac just outside [0, 1)
    return whole + carry, frac - carry


def g15_words(x) -> np.ndarray:
    """(len(x), SLOT_WORDS) uint64 array: row i holds the bytes of
    ``'%.15g' % x[i]`` in order, with NUL bytes before and among them, within
    its first 23 bytes, and a comma in its last byte.  ``x`` is a 1-d
    float64 array."""
    x = np.asarray(x, dtype=float)
    (pow_hi, pow_lo, group_words, group_zeros, exponent_words, case_codes,
     code_words) = _tables()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.intp)
    whole, frac = _scale(a, p, pow_hi, pow_lo)
    for _ in range(2):  # log10 can be off by one near a power of ten
        step = (whole >= 1e15).astype(np.intp) - (whole < 1e14)
        moved = np.flatnonzero(step)
        if not moved.size:
            break
        p[moved] += step[moved]
        whole[moved], frac[moved] = _scale(a[moved], p[moved], pow_hi, pow_lo)
    undecided = (~fast | (whole >= 1e15) | (whole < 1e14)
                 | (np.abs(frac - 0.5) < _TIE_BAND))
    m = np.where(undecided, 1e14, whole + (frac > 0.5))
    del a, fast, whole, frac
    carried = m == 1e15  # 9.99...95 rounds up to 1 at the next exponent
    m[carried] = 1e14
    p[carried] += 1

    # m < 1e15 < 2^53: the four digit groups are exact in floating point
    n = x.size
    split = np.empty((4, n))
    top = np.floor(m / 1e8)
    np.subtract(m, top * 1e8, out=m)
    np.floor(top / 1e4, out=split[0])
    np.subtract(top, split[0] * 1e4, out=split[1])
    np.floor(m / 1e4, out=split[2])
    np.subtract(m, split[2] * 1e4, out=split[3])
    del top, m
    groups = split.astype(np.intp)
    del split
    # significant digits: 15 less the trailing zeros of m
    z = group_zeros.take(groups)
    trailing = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    del z
    p -= _P_MIN  # an index of the exponent tables from here on
    # the code: sign, notation case and significant digits
    code = np.signbit(x) * (_CASES * 15)
    code += case_codes.take(p)
    code -= trailing
    del trailing
    head0, head1, tail0, tail1, pre0, pre1, pre2, left, right = code_words.take(code, axis=1)
    del code

    # digits: byte 0 a leading "0", bytes 1..15 the digits of m
    low, high = group_words
    r0 = low.take(groups[0])
    r0 |= high.take(groups[1])
    r1 = low.take(groups[2])
    r1 |= high.take(groups[3])
    del groups
    # head digits move down one byte, trailing zeros become NUL bytes
    s = r0 >> np.uint64(8)
    s |= r1 << np.uint64(56)
    s &= head0
    r0 &= tail0
    r0 |= s
    np.right_shift(r1, np.uint64(8), out=s)
    s &= head1
    r1 &= tail1
    r1 |= s
    del s
    words = np.empty((n, SLOT_WORDS), np.uint64)
    w0, w1, w2 = words.T
    np.left_shift(r0, left, out=w0)
    w0 |= pre0
    np.left_shift(r1, left, out=w1)
    w1 |= pre1
    np.right_shift(r0, right, out=r0)
    w1 |= r0
    np.right_shift(r1, right, out=w2)
    w2 |= pre2
    w2 |= exponent_words.take(p)

    slow = np.flatnonzero(undecided)
    if slow.size:
        text = b"".join((b"%.15g" % v).ljust(8 * SLOT_WORDS - 1, b"\0") + b","
                        for v in x[slow].tolist())
        words[slow] = np.frombuffer(text, np.uint64).reshape(-1, SLOT_WORDS)
    return words


def line_text(lines: np.ndarray) -> bytes:
    """The bytes of a C-contiguous buffer of 64-bit words without its NUL
    bytes."""
    text = lines.view(np.uint8).ravel()
    return text[text != 0].tobytes()
