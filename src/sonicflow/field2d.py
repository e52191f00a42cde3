"""Shared gridded-field container and the package's one CSV formatter.

Used by both 2D solvers; coordinates are stored per node so the container
handles mapped (non-rectangular) grids as well as tensor-product ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "x,y,psi"


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


def csv_text(header: str, columns) -> str:
    """One row per index of the equal-length columns, each value written as
    repr(float): full double precision, locale-independent."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


def field_csv_text(fld: Field2D) -> str:
    return csv_text(CSV_HEADER, (fld.x.ravel(), fld.y.ravel(), fld.values.ravel()))
