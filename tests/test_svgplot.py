"""The array-based SVG writers against the per-cell and per-point oracles:
whole-file bytes must be identical; the kernel's %.6g points against the
per-point % at ties, decade carries and form switches."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import SvgCanvasOracle, heatmap_svg, line_plot_svg
from sonicflow.svgplot import SvgCanvas, _color, _fmt_points, heatmap, line_plot

prop = settings(derandomize=True, max_examples=80, deadline=None)

MAGNITUDE = st.floats(1e-12, 1e7)
VALUE = st.one_of(st.just(0.0), st.just(-0.0), MAGNITUDE, MAGNITUDE.map(lambda v: -v))
# grid coordinates: signed zero, and scales whose .6g labels are exponential
COORD = st.one_of(st.just(-0.0), st.floats(-1e3, 1e3), st.floats(1e-9, 1e-5), st.floats(1e6, 1e12))


def written(write, *args, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plot.svg")
        write(path, *args, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def mapped_grids(draw):
    """(x, y, values) on an n1 x n2 grid: an affine map of the unit square
    with a shear and a bend, and node values that are either all one value
    (the span = 1 fallback) or drawn one by one."""
    n1 = draw(st.integers(1, 9))
    n2 = draw(st.integers(1, 9))
    s, e = np.meshgrid(np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2), indexing="ij")
    a = [draw(COORD) for _ in range(6)]
    x = a[0] + a[1] * s + a[2] * s * e
    y = a[3] + a[4] * e + a[5] * s * s
    if draw(st.booleans()):
        v = np.full((n1, n2), draw(VALUE))
    else:
        v = np.array(draw(st.lists(VALUE, min_size=n1 * n2, max_size=n1 * n2))).reshape(n1, n2)
    return x, y, v


@prop
@given(mapped_grids())
def test_heatmap_bytes_match_the_per_cell_oracle(grid):
    x, y, v = grid
    labels = {"title": "field", "xlabel": "x", "ylabel": "y"}
    assert written(heatmap, x, y, v, **labels) == heatmap_svg(x, y, v, **labels).encode()


def test_heatmap_bytes_on_fixed_grids():
    # 2x2 and 2xn grids, a constant field and a -0.0 field, written the old way
    rng = np.random.default_rng(7)
    for n1, n2 in ((2, 2), (2, 5), (5, 2), (33, 17)):
        s, e = np.meshgrid(np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2), indexing="ij")
        x, y = s * (1.0 + 0.3 * e), e * (1.0 + s)
        for v in (rng.normal(size=(n1, n2)), np.full((n1, n2), 2.5), np.full((n1, n2), -0.0)):
            assert written(heatmap, x, y, v) == heatmap_svg(x, y, v).encode()


def test_heatmap_rejects_non_finite_values():
    # a cell touching a NaN or an infinite node has no colour, for the
    # oracle as for the array writer
    s, e = np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3), indexing="ij")
    for bad in (float("nan"), float("inf"), float("-inf")):
        v = s + e
        v[2, 1] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            heatmap_svg(s, e, v)  # inf - inf in a numpy scalar, then int(nan)
        with pytest.raises(ValueError):
            written(heatmap, s, e, v)


def test_colors_match_the_scalar_colormap():
    # every multiple of 1/4096 in [0, 1] and a margin outside it; seven of
    # these land a channel exactly on an even integer plus one half, where
    # round-half-up would differ from Python's round
    t = np.arange(-64, 4096 + 65) / 4096.0
    got = [f"rgb({r},{g},{b})" for r, g, b in _color(t).tolist()]
    assert got == [SvgCanvasOracle.color(float(v)) for v in t]


POINT = st.one_of(VALUE, st.sampled_from([float("nan"), float("inf"), float("-inf")]))


@st.composite
def series_sets(draw):
    """Up to three (x, y, color) series whose points may be NaN or +-inf."""
    out = []
    for color in draw(st.lists(st.sampled_from(["#1f77b4", "#d62728", "#2ca02c"]),
                               min_size=1, max_size=3)):
        n = draw(st.integers(1, 25))
        xs = np.array(draw(st.lists(POINT, min_size=n, max_size=n)))
        ys = np.array(draw(st.lists(POINT, min_size=n, max_size=n)))
        out.append((xs, ys, color))
    return out


@prop
@given(series_sets(), st.lists(st.tuples(VALUE, VALUE), max_size=2))
def test_line_plot_bytes_match_the_per_point_oracle(series, marks):
    xs = np.concatenate([s[0] for s in series])
    ys = np.concatenate([s[1] for s in series])
    assume(np.any(np.isfinite(xs) & np.isfinite(ys)))  # the axes need one finite point
    markers = [(mx, my, f"m{k}") for k, (mx, my) in enumerate(marks)]
    got = written(line_plot, series, title="t", xlabel="x", ylabel="y", markers=markers)
    assert got == line_plot_svg(series, title="t", xlabel="x", ylabel="y", markers=markers).encode()


# screen coordinates whose .6g form is exponential: on the x range (0, 540),
# sx(x) = 50 + x, so x in [-50, -49.99999] lands in [0, 1e-5], and a far
# point lands at 1e6 or more
SCREEN = st.one_of(VALUE, st.floats(-50.0, -49.99999),
                   st.floats(1e6, 1e300), st.floats(-1e300, -1e6))


@prop
@given(st.lists(st.tuples(SCREEN, SCREEN), max_size=30))
def test_polyline_bytes_match_the_per_point_oracle_off_the_axes(points):
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    got, want = SvgCanvas((0.0, 540.0), (0.0, 380.0)), SvgCanvasOracle((0.0, 540.0), (0.0, 380.0))
    got.polyline(xs, ys)
    want.polyline(xs, ys)
    assert got.render() == want.render()


def _g6_cases():
    """Values where '%.6g' is easiest to get wrong, each with its neighbours."""
    ties = [123456.5, 123457.5, 12345.25, 12345.75, 123.4375, 0.5, 2.5]  # exact: to even
    carries = [999999.5, 999999.4, 9.9999951e-05, 9.99999e-05, 99999.95, 0.99999951]
    switches = [1e-4, 1e-5, 1e6, 999999.0, 1e5, 1e-6]
    x = np.array(ties + carries + switches)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    screen = np.random.default_rng(3).uniform(0.0, 640.0, 20_000)
    return np.concatenate([x, -x, [0.0, -0.0], screen, np.round(screen, 4)])


def test_points_match_the_per_point_format():
    v = _g6_cases()
    xs, ys = v, v[::-1]
    assert _fmt_points(xs, ys) == "".join("%.6g,%.6g " % p for p in zip(xs.tolist(), ys.tolist()))
    assert "123456,123458 " in _fmt_points([123456.5], [123457.5])
    assert _fmt_points([999999.5, 9.9999951e-05], [-0.0, 0.0]) == "1e+06,-0 0.0001,0 "
