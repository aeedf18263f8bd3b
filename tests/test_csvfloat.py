"""The vectorized CSV formatter against Python's repr, byte for byte."""

import itertools

import numpy as np
import pytest

from siqm._csvfloat import CHUNK_VALUES, csv_chunks


def repr_rows(*blocks):
    """The reference: each row's values as their Python repr, joined by commas."""
    rows = zip(*(block.tolist() for block in blocks))
    return "".join(",".join(map(repr, itertools.chain(*row))) + "\n"
                   for row in rows).encode()


def rendered(*blocks):
    return b"".join(csv_chunks(list(blocks)))


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_random_bit_patterns_match_repr():
    # every exponent field is drawn about a hundred times; the second block
    # draws subnormals (exponent field 0) and both signs of each, and the
    # third holds the smallest subnormals, whose shortest decimals have one
    # to three digits
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 2 ** 64, size=(100_000, 2), dtype=np.uint64)
    subnormal = rng.integers(0, 2 ** 52, size=(2_000, 2), dtype=np.uint64)
    subnormal[:, 1] |= np.uint64(1 << 63)
    smallest = np.arange(1, 4097, dtype=np.uint64).reshape(-1, 4)
    for block in (bits, subnormal, smallest):
        values = block.view(np.float64)
        assert rendered(values) == repr_rows(values)


def test_every_power_of_two_and_of_ten_and_their_neighbours_match_repr():
    twos = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    for values in (twos, tens):
        values = values[np.isfinite(values) & (values > 0)]
        assert rendered(values.reshape(-1, 1)) == repr_rows(values.reshape(-1, 1))
        assert rendered(-values.reshape(-1, 1)) == repr_rows(-values.reshape(-1, 1))


@pytest.mark.parametrize("value, text", [
    (1e-05, "1e-05"), (0.0001, "0.0001"), (0.00012, "0.00012"), (1.5e-05, "1.5e-05"),
    (1e16, "1e+16"), (1e15, "1000000000000000.0"), (9999999999999998.0, "9999999999999998.0"),
    (1.2345e16, "1.2345e+16"), (123456789012345.6, "123456789012345.6"),
    (1e100, "1e+100"), (1e-100, "1e-100"), (5e-324, "5e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"), (0.1, "0.1"), (3.0, "3.0"),
    (0.0, "0.0"), (-0.0, "-0.0"), (np.inf, "inf"), (-np.inf, "-inf"),
    (np.nan, "nan"), (-np.nan, "nan"),
])
def test_layout_switches_signed_zeros_and_non_finite_values(value, text):
    assert rendered(np.array([[value]])) == (text + "\n").encode()
    assert repr(float(value)) == text


def test_integer_columns_print_plainly_between_float_columns():
    n = np.arange(-12, 3 * CHUNK_VALUES + 7, dtype=np.int64)
    n[:4] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10 ** 18, -10 ** 17]
    k = n[::-1].astype(np.int32)
    x = np.random.default_rng(5).standard_normal((len(n), 2))
    blocks = (n.reshape(-1, 1), x, x[:, :1] * 1e-7, k.reshape(-1, 1))
    # the rows are not a whole number of chunks
    assert len(n) % (CHUNK_VALUES // 5)
    assert rendered(*blocks) == repr_rows(*blocks)


def test_a_table_without_rows_renders_nothing():
    assert rendered(np.empty((0, 3)), np.empty((0, 1), dtype=np.int64)) == b""


def test_columns_other_than_ints_and_floats_are_refused():
    with pytest.raises(TypeError, match="complex128"):
        rendered(np.ones((2, 1)), np.ones((2, 1), dtype=complex))
