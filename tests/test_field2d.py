"""The float-to-text kernel against the per-row oracle at size, its
certificate, and the CSV writer's checks on malformed columns; aitken_limit
against the scalar Aitken step."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import aitken_step, csv_text_rows
from sonicflow import field2d
from sonicflow.field2d import FORMAT_BLOCK_ROWS, REPR, aitken_limit, csv_text, format_floats

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


FAMILIES = ["bits", "powers of two", "integers", "multiples", "decimals", "zeros"]


def _family(name, n=100_000):
    """One seeded array of n values of a family that stresses the kernel."""
    rng = np.random.default_rng(FAMILIES.index(name))
    if name == "bits":  # the whole double range, subnormals, +-inf and nan
        x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64).copy()
        x[:8] = [np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.225073858507201e-308,
                 2.2250738585072014e-308, 1e-300]
        return x
    if name == "powers of two":
        return np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-1074, 1024, n))
    if name == "integers":
        return rng.integers(2**53, 2**60, n, endpoint=True).astype(float)
    if name == "multiples":  # of 16 around 1e17 and of 2 around 1e16
        return np.concatenate([np.round(rng.uniform(0.9e17, 1.1e17, n // 2) / 16) * 16,
                               np.round(rng.uniform(0.9e16, 1.1e16, n - n // 2) / 2) * 2])
    if name == "decimals":  # rounded to 0-9 places
        places = rng.integers(0, 10, n)
        return np.round(rng.uniform(-1e3, 1e3, n) * 10.0 ** places) / 10.0 ** places
    assert name == "zeros"
    return np.where(rng.random(n) < 0.5, 0.0, -0.0)


@pytest.mark.parametrize("name", FAMILIES)
def test_csv_text_matches_repr_at_size(name):
    x = _family(name)
    assert csv_text("v", [x]) == csv_text_rows("v", [x])
    # three columns with rows just below, at and just above the block size
    for rows in (FORMAT_BLOCK_ROWS - 1, FORMAT_BLOCK_ROWS, FORMAT_BLOCK_ROWS + 1):
        columns = x[:3 * rows].reshape(3, rows)
        assert csv_text("a,b,c", columns) == csv_text_rows("a,b,c", columns)


def test_csv_text_matches_repr_next_to_an_interval_end_near_an_integer():
    # the scaled upper end of this double's rounding interval lies 2.2e-16
    # below an integer: a test of one neighbour only printed 16 digits
    x = 1.0772707645416981e+17
    x = np.array([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])
    assert csv_text("v", [x]) == csv_text_rows("v", [x])
    near = field2d._near_integer(np.array([3.0 - 2.2e-16 * 4, 3.0 + 2.2e-16 * 4, 3.0, 2.5, 2.99]))
    assert near.tolist() == [True, True, True, False, False]


def test_kernel_certifies_almost_every_uniform_value():
    # values it cannot certify go to repr one at a time; a slide into that
    # path would keep the bytes and lose the speed
    fallbacks = []
    style = dataclasses.replace(REPR, fallback=lambda v: fallbacks.append(v) or repr(v))
    x = np.random.default_rng(7).uniform(-1.0, 1.0, 100_000)
    assert format_floats(x[:, None], "\n", style) == "".join(repr(v) + "\n" for v in x.tolist())
    assert len(fallbacks) <= 1000


def test_scale_table_brackets_each_binade():
    # for every binade [2**(e-1), 2**e) the kernel covers, 10**q takes its
    # bottom into [1e16, 1e17), and U_hi + U_lo is the binade's spacing times
    # 10**q to 2**-104 relative (checked every 7th binade, in exact rationals)
    e = np.arange(len(field2d._Q)) + field2d._E_LO
    assert e[0] <= math.frexp(field2d._TINY)[1] and math.frexp(field2d._HUGE)[1] <= e[-1]
    for j in range(0, len(e), 7):
        q, ee = int(field2d._Q[j]), int(e[j])
        bottom = Fraction(2) ** (ee - 1) * Fraction(10) ** q
        assert 10**16 <= bottom < 10**17
        U = Fraction(2) ** (ee - 53) * Fraction(10) ** q
        got = Fraction(float(field2d._U_HI[j])) + Fraction(float(field2d._U_LO[j]))
        assert abs(got - U) <= U * Fraction(1, 2**104)
        assert field2d._U_HI_H[j] + field2d._U_HI_L[j] == field2d._U_HI[j]


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
