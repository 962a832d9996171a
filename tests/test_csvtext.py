import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwaveguide.csvtext import WIDTH, g15_fields, join_rows


def rendered(values):
    """Each field of g15_fields(values) without its NUL padding."""
    fields = g15_fields(np.array(values, dtype=float))
    assert fields.shape == (len(values), WIDTH)
    return [bytes(row).rstrip(b"\0") for row in fields]


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


def test_join_rows_drops_padding():
    fields = g15_fields(np.array([1.5, -2e-7]))
    tags = np.array([b"a", b"bc"]).view(np.uint8).reshape(2, 2)
    assert join_rows([fields[:, None], b",", tags, b"\n"], (2, 2)) == \
        b"1.5,a\n1.5,bc\n-2e-07,a\n-2e-07,bc\n"
