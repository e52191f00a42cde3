"""The block-formatted CSV writer against the per-row oracle, and its checks
on malformed columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import csv_text_rows
from sonicflow.field2d import FORMAT_BLOCK_ROWS, csv_text

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
