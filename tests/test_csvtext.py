import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwaveguide.csvtext import SLOT_WORDS, g15_words, line_text


def rendered(values):
    """Each slot of g15_words(values) without its NUL bytes and its comma,
    which sits in the slot's last byte."""
    words = g15_words(np.array(values, dtype=float))
    assert words.shape == (len(values), SLOT_WORDS)
    assert (words.view(np.uint8)[:, -1] == ord(",")).all()
    return [line_text(row)[:-1] for row in words]


def expected(values):
    return [b"%.15g" % v for v in values]


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_matches_python_format(values):
    assert rendered(values) == expected(values)


@pytest.mark.parametrize("value", [
    # fixed/exponential boundaries
    1e-5, 9.99999999999999e-05, 1e-4, 1e15, 999999999999999.4, 1e14,
    # rounding carries into the next exponent
    9.9999999999999995, float(np.nextafter(10.0, 0.0)), 99999999999999.99,
    # exact binary ties at the 15th digit: half-even rounds up, then down
    123456789012345.5, 123456789012344.5, 0.5, 2.5,
    # three-digit exponents, the smallest subnormal, the fast range's edges
    1e100, -1e-100, 5e-324, 1e-280, 1e280, -1.2345678901234567e-300, 1.7976931348623157e308,
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), -1.0, 0.1, 1 / 3,
])
def test_pinned_values(value):
    assert rendered([value, -value]) == expected([value, -value])


def test_random_decades():
    # 20,000 doubles with decimal exponents up to +-150; every fourth has
    # at most three significant digits
    rng = np.random.default_rng(20261018)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-150, 151, 20000)
    values[::4] = rng.integers(-999, 1000, 5000) * 10.0 ** rng.integers(-20, 21, 5000)
    assert rendered(values.tolist()) == expected(values.tolist())


def test_line_text_drops_padding():
    # two lines of a buffer: a slot, then a word of "a" or "bc" and a newline
    lines = np.zeros((2, SLOT_WORDS + 1), np.uint64)
    lines[:, :SLOT_WORDS] = g15_words(np.array([1.5, -2e-7]))
    lines[:, SLOT_WORDS] = np.frombuffer(b"a\0\0\0\0\0\0\nbc\0\0\0\0\0\n", np.uint64)
    assert line_text(lines) == b"1.5,a\n-2e-07,bc\n"


def test_render_memory_per_value():
    # the slots are built from arrays of 8 bytes a value, most of them in
    # place: ~146 bytes a value measured, where the per-byte layout gather
    # they replace peaked at ~275
    values = np.random.default_rng(11).standard_normal(6144)
    g15_words(values)  # builds the tables
    tracemalloc.start()
    try:
        g15_words(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 330 * values.size
