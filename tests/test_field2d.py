"""The block-formatted CSV writer against the per-row oracle, and its checks
on malformed columns; aitken_limit against the scalar Aitken step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import aitken_step, csv_text_rows
from sonicflow.field2d import FORMAT_BLOCK_ROWS, aitken_limit, csv_text

# signed zero, the infinities, nan, the smallest subnormal, the switches of
# repr between positional and exponential form, and the largest doubles
SPECIALS = [-0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e-5, 1e-4,
            9.999999999999999e15, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
ROWS = st.one_of(st.sampled_from([0, 1, FORMAT_BLOCK_ROWS - 1, FORMAT_BLOCK_ROWS,
                                  FORMAT_BLOCK_ROWS + 1]), st.integers(0, 40))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ROWS, st.integers(1, 5), st.lists(st.floats(), max_size=30), st.integers(0, 2**32 - 1))
def test_csv_text_bytes_match_the_per_row_oracle(rows, cols, drawn, seed):
    # every special value is in the table once it has as many cells as the pool
    pool = np.random.default_rng(seed).permutation(np.array(SPECIALS + drawn))
    columns = np.resize(pool, (cols, rows))
    header = ",".join(f"c{k}" for k in range(cols))
    assert csv_text(header, columns) == csv_text_rows(header, columns)


def test_csv_text_rejects_columns_of_unequal_length():
    # the per-row writer cut the table to its shortest column
    with pytest.raises(ValueError, match=r"lengths \[2, 1\]"):
        csv_text("a,b", [[1.0, 2.0], [3.0]])


def test_csv_text_rejects_a_header_that_does_not_match_the_columns():
    # the per-row writer wrote three fields under a two-field header
    with pytest.raises(ValueError, match=r"\'a,b\' does not fit columns of lengths \[1, 1, 1\]"):
        csv_text("a,b", [[1.0], [2.0], [3.0]])


def test_aitken_limit_rows_match_the_scalar_step():
    rows = np.array([
        [1.0, 0.5, 0.25, 0.125],  # geometric, r = 1/2: the exact limit 0
        [3.0, 2.0, 2.0, 2.0],  # d1 = 0 (and 0/0): fallback
        [0.0, 1.0, 1.99, 2.97],  # |r| = 0.9899: extrapolated below 0.99 only
        [1.0, 2.0, 4.0, 8.0],  # |r| = 2: fallback
        [0.3, 0.1, 0.2, 0.15],  # alternating, r = -1/2
    ])
    fallback = rows[:, 0]
    for max_ratio in (0.95, 0.99):
        got = aitken_limit(rows, max_ratio, fallback)
        expect = [aitken_step(list(row), max_ratio, row[0]) for row in rows]
        assert np.array_equal(got, expect)
        assert float(aitken_limit(rows[0], max_ratio, -1.0)) == 0.0
    assert aitken_limit(rows, 0.95, fallback)[2] == 0.0 < 2.97 < aitken_limit(rows, 0.99, fallback)[2]
    assert float(aitken_limit([2.0, 1.0], 0.99, 7.0)) == 7.0  # fewer than three terms
