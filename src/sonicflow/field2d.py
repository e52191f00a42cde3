"""Shared gridded-field container, sample: the one sampler of a model
callable, format_rows: the one row formatter for CSVs and SVGs, and
aitken_limit: the one extrapolation toward a singular end.

Used by both 2D solvers; coordinates are stored per node so the container
handles mapped (non-rectangular) grids as well as tensor-product ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "x,y,psi"
FORMAT_BLOCK_ROWS = 4096  # rows per % operation in format_rows; bounds its memory


@dataclass(frozen=True)
class Field2D:
    """Node coordinates and values on a structured grid, plus solver metadata."""

    x: np.ndarray  # (n1, n2)
    y: np.ndarray  # (n1, n2)
    values: np.ndarray  # (n1, n2)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.values.shape):
            raise ValueError("x, y, values must share one shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @property
    def shape(self):
        return self.values.shape


def sample(fn, *coords) -> np.ndarray:
    """fn at every point of the coordinate arrays (broadcast together), one
    scalar call each, so that callables written with math.* work."""
    return np.frompyfunc(fn, len(coords), 1)(*coords).astype(float)


def format_rows(template: str, table) -> str:
    """Each row of a 2-D array through one %-template: one % per block of rows, on Python values."""
    blocks = (table[i:i + FORMAT_BLOCK_ROWS] for i in range(0, len(table), FORMAT_BLOCK_ROWS))
    return "".join(template * len(block) % tuple(block.ravel().tolist()) for block in blocks)


def csv_text(header: str, columns) -> str:
    """One row per index of the equal-length columns, each value written as
    repr(float): full double precision, locale-independent."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if header.count(",") + 1 != len(cols) or len({len(c) for c in cols}) > 1:
        raise ValueError(f"CSV header {header!r} does not fit columns of lengths {[len(c) for c in cols]}")
    return header + "\n" + format_rows(",".join(["%r"] * len(cols)) + "\n", np.column_stack(cols))


def field_csv_text(fld: Field2D) -> str:
    return csv_text(CSV_HEADER, (fld.x.ravel(), fld.y.ravel(), fld.values.ravel()))


def aitken_limit(seq, max_ratio: float, fallback):
    """Aitken's delta-squared limit of each sequence along the last axis of seq.

    From a row's last three terms, with d1, d2 the last two differences and
    r = d2/d1, the limit is s[-1] + d2 r / (1 - r).  A row with fewer than
    three terms, d1 = 0 or |r| >= max_ratio (a trend too slow or too
    irregular to extrapolate) gets fallback instead.
    """
    s = np.asarray(seq, dtype=float)
    if s.shape[-1] < 3:
        return np.asarray(fallback, dtype=float)
    d1 = s[..., -2] - s[..., -3]
    d2 = s[..., -1] - s[..., -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = d2 / d1
        limit = s[..., -1] + d2 * r / (1.0 - r)
    return np.where((d1 != 0.0) & (np.abs(r) < max_ratio), limit, fallback)
