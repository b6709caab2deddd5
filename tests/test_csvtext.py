"""The vectorized CSV text kernel gives exactly what `"%.12g" % value` gives."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyband._csvtext import BLOCK_ROWS, format_rows
from susyband.floquet import CSV_BLOCK_ROWS


def _reference(block, blank=None):
    # one `%` per field, as the writers used to do
    blank = np.zeros(block.shape, dtype=bool) if blank is None else np.broadcast_to(blank, block.shape)
    return "".join(
        ",".join("" if b else "%.12g" % value for value, b in zip(row, flags)) + "\n"
        for row, flags in zip(block.tolist(), blank.tolist())
    )


def _ties():
    # exact decimal ties at the 12th digit, and the floats on either side
    exact = np.array([123456789012.5, 1234567890.125, 1234567890.375, 2.5, 0.5, 999999999999.5,
                      -98765432101.5, 1.0000000000005, 7.8125e-3])
    exact = np.concatenate([exact * 2.0**k for k in (0, -40, 40, -900, 900)])
    return np.concatenate([exact, np.nextafter(exact, math.inf), np.nextafter(exact, -math.inf)])


PLANTED = np.concatenate([
    _ties(),
    [9.9999999999995e-5, 9.999999999995e-5, 99999999999.95, 999999999999.4, 1e12, 1e11, 1e-5,
     1e-4, 0.001, 1.0, 10.0, 123.0, 0.1, 1.0 / 3.0, 2.5e-7],
    # the edges of the fast range, subnormals, signed zeros and non-finite values
    [1e290, np.nextafter(1e290, math.inf), np.nextafter(1e290, 0.0), 1e-290,
     np.nextafter(1e-290, 0.0), np.nextafter(1e-290, math.inf), 9.99999999999e289, 1.00000000001e-290,
     5e-324, 2.2250738585072014e-308, 1e-310, 0.0, math.inf, math.nan, sys.float_info.max],
])
PLANTED = np.concatenate([PLANTED, -PLANTED])


def test_planted_values():
    for cols in (1, 3, 4, 6):
        block = np.resize(PLANTED, (-(-PLANTED.size // cols), cols))
        assert format_rows(block) == _reference(block)
    assert format_rows(np.array([[9.9999999999995e-5, 999999999999.5, -0.0]])) == "0.0001,1e+12,-0\n"
    assert format_rows(np.array([[9.999999999995e-5, 123456789012.5]])) == "9.99999999999e-05,123456789012\n"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48),
    cols=st.integers(1, 6),
    blanks=st.integers(0, 2**48 - 1),
)
def test_random_bit_patterns(bits, cols, blanks):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    block = np.resize(values, (-(-values.size // cols), cols))
    blank = (blanks >> np.arange(block.size) % 48 & 1).astype(bool).reshape(block.shape)
    assert format_rows(block) == _reference(block)
    assert format_rows(block, blank) == _reference(block, blank)


@pytest.mark.parametrize("seed", range(4))
def test_random_blocks(seed):
    # whole blocks of every magnitude, of rounded decimals, and of 64-bit patterns
    rng = np.random.default_rng(seed)
    n = BLOCK_ROWS * 6
    decimals = 10.0 ** rng.integers(0, 14, n)
    for values in (
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.round(rng.standard_normal(n) * 10.0 ** rng.integers(-6, 14, n) * decimals) / decimals,
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    ):
        block = values.reshape(BLOCK_ROWS, 6)
        blank = np.arange(6) >= 4 + seed % 3
        assert format_rows(block) == _reference(block)
        assert format_rows(block, blank) == _reference(block, blank)


def test_blank_fields_and_block_unchanged():
    block = np.array([[1.5, math.nan, -2.0], [0.0, 3.0, math.inf]])
    before = block.copy()
    assert format_rows(block, np.array([[False, True, False], [True, True, True]])) == "1.5,,-2\n,,\n"
    assert format_rows(block, np.array([False, False, True])) == "1.5,nan,\n0,3,\n"
    assert np.array_equal(block, before, equal_nan=True)


def test_block_rows_divide_the_writers_block_edges():
    # the writers' block-edge tests plant values around multiples of
    # CSV_BLOCK_ROWS, which are then also edges of the kernel's blocks
    assert CSV_BLOCK_ROWS % BLOCK_ROWS == 0
