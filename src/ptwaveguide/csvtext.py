"""CSV text of float64 arrays: the bytes of ``'%.15g' % x`` for every element,
computed with numpy instead of one Python format call per value.

:func:`g15_fields` renders an array into fixed-width, NUL-padded byte fields,
and :func:`join_rows` lays fields and constant text side by side and keeps the
non-NUL bytes.  The kernel decides almost every element itself:

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
4. The 15 digits, the exponent and constant bytes form a 24-byte source
   row per element, and one flat ``take`` through a layout table (sign x 21
   exponent cases x 15 significant-digit counts) gathers the text.

The tables are built on first use, so importing the package stays cheap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 22  # longest text: "-d." + 14 digits + "e-ddd"

_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # 10^(14-p) and Dekker's splits stay finite inside
_TIE_BAND = 1e-6  # scaled fractions this close to 1/2 go to Python
_K_MIN, _K_MAX = -270, 300  # exponents of the powers-of-ten table
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_CASES = 21  # fixed notation at exponents -4..14, then e+dd and e+ddd

# An element's source row is six 4-byte words: its four digit groups (the
# top group has three digits, so byte 0 is a leading "0"), its exponent as
# sign and three digits, then constants.  Byte columns:
_ZERO, _EXP_SIGN, _EXP_DIGITS = 0, 16, (17, 18, 19)
_MINUS, _DOT, _E, _NUL = 20, 21, 22, 23
_CONSTANTS = b"-.e\0"
_SOURCE_BYTES = 24
_P_MIN, _P_MAX = -300, 300  # exponents of the exponent-text table


def _layout(negative: bool, case: int, nd: int) -> list[int]:
    """Source columns of the text of a value with ``nd`` significant digits:
    fixed notation at exponent ``case - 4`` for cases 0..18, exponential
    with a two-digit (19) or three-digit (20) exponent."""
    digits = list(range(1, 16))
    if case < 19:
        exponent = case - 4
        if exponent >= 0:
            text = digits[:exponent + 1]
            if nd > exponent + 1:
                text += [_DOT] + digits[exponent + 1:nd]
        else:
            text = [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + digits[:nd]
    else:
        text = digits[:1] + ([_DOT] + digits[1:nd] if nd > 1 else []) + [_E, _EXP_SIGN]
        text += list(_EXP_DIGITS[1:] if case == 19 else _EXP_DIGITS)
    text = [_MINUS] * negative + text
    return text + [_NUL] * (WIDTH - len(text))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _tables():
    """(pow_hi, pow_lo, group_text, group_zeros, exponent_text, layout),
    built once on first use.

    pow_hi[k - _K_MIN] + pow_lo[k - _K_MIN] is 10^k to about 2^-106
    relative: hi is 10^k correctly rounded, lo the remainder correctly
    rounded, both from exact integer ratios.  group_text[g] holds the four
    ASCII digits of g < 10^4 as one word and group_zeros[g] their trailing
    zeros; exponent_text[p - _P_MIN] holds b"%+04d" % p.
    layout[(negative * 21 + case) * 15 + nd - 1] is :func:`_layout`'s row."""
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
    group_text = (digits + ord("0")).view(np.uint32).ravel()
    group_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1,
                                                                               dtype=np.int8)
    exponent_text = np.frombuffer(b"".join(b"%+04d" % e for e in range(_P_MIN, _P_MAX + 1)),
                                  np.uint32)
    layout = np.array([_layout(negative, case, nd) for negative in (False, True)
                       for case in range(_CASES) for nd in range(1, 16)], dtype=np.intp)
    return _read_only(np.array(pow_hi), np.array(pow_lo), group_text, group_zeros,
                      exponent_text, layout)


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


def g15_fields(x) -> np.ndarray:
    """(len(x), WIDTH) uint8 array: row i holds the bytes of ``'%.15g' % x[i]``
    padded with NUL bytes.  ``x`` is a 1-d float64 array."""
    x = np.asarray(x, dtype=float)
    pow_hi, pow_lo, group_text, group_zeros, exponent_text, layout = _tables()
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
    carried = m == 1e15  # 9.99...95 rounds up to 1 at the next exponent
    m[carried] = 1e14
    p[carried] += 1

    # m < 1e15 < 2^53: the groups are exact in floating point
    n = x.size
    split = np.empty((n, 4))
    top = np.floor(m / 1e8)
    bottom = m - top * 1e8
    np.floor(top / 1e4, out=split[:, 0])
    np.subtract(top, split[:, 0] * 1e4, out=split[:, 1])
    np.floor(bottom / 1e4, out=split[:, 2])
    np.subtract(bottom, split[:, 2] * 1e4, out=split[:, 3])
    groups = split.astype(np.intp)
    source = np.empty((n, 6), np.uint32)
    source[:, :4] = group_text.take(groups)
    source[:, 4] = exponent_text.take(p - _P_MIN)
    source[:, 5] = np.frombuffer(_CONSTANTS, np.uint32)

    # significant digits: 15 less the trailing zeros of m
    z = group_zeros.take(groups).astype(np.intp)
    trailing = z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0]))
    case = np.where((p >= -4) & (p < 15), p + 4, np.where(np.abs(p) < 100, 19, 20))
    code = (np.signbit(x) * _CASES + case) * 15 + 14 - trailing
    index = layout.take(code, axis=0)
    index += (np.arange(n) * _SOURCE_BYTES)[:, None]
    fields = source.view(np.uint8).ravel().take(index)

    slow = np.flatnonzero(undecided)
    if slow.size:
        text = b"".join((b"%.15g" % v).ljust(WIDTH, b"\0") for v in x[slow].tolist())
        fields[slow] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
    return fields


def join_rows(cells, shape: tuple[int, ...]) -> bytes:
    """Text of an array of rows of the given shape: the cells side by side,
    NUL bytes dropped.  A cell is ``bytes``, the same on every row, or a
    uint8 array of fields whose leading axes broadcast to ``shape``."""
    cells = [np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c for c in cells]
    bounds = np.cumsum([0] + [c.shape[-1] for c in cells]).tolist()
    rows = np.zeros((*shape, bounds[-1]), np.uint8)
    for cell, lo, hi in zip(cells, bounds, bounds[1:]):
        rows[..., lo:hi] = cell
    return rows[rows != 0].tobytes()
