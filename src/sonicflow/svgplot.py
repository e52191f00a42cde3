"""Minimal deterministic SVG emission: line plots, heatmaps, sketches.

No external plotting dependency.  Every coordinate is written as '%.6g'
gives it: point lists go through field2d.format_floats, single values
through _fmt, and heatmap cells through field2d.format_rows.  Output bytes
depend only on the data, so reruns match.
"""

from __future__ import annotations

import numpy as np

from .field2d import G6, format_floats, format_rows


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# five-stop blue->yellow colormap
_STOPS = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def _fmt_points(xs, ys) -> str:
    """Each point as "x,y ", each number as _fmt gives it; no .6g form holds a space."""
    return format_floats(np.column_stack((xs, ys)), ", ", G6)


def _color(t):
    """RGB of the colormap at each t (clipped to [0, 1]) on a last axis of 3.

    Channels round half to even (np.rint), as Python's round does.
    """
    stops = np.asarray(_STOPS, dtype=float)
    pos = np.clip(t, 0.0, 1.0) * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    f = (pos - i)[..., None]
    return np.rint((1 - f) * stops[i] + f * stops[i + 1]).astype(int)


class SvgCanvas:
    """World-coordinate drawing surface serialized to SVG, 640x480 with a 50 margin."""

    def __init__(self, x_range, y_range, title="", xlabel="", ylabel=""):
        self.x0, self.x1 = map(float, x_range)
        self.y0, self.y1 = map(float, y_range)
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.w, self.h, self.m = 640, 480, 50
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.body: list = []  # SVG lines, or functions that yield blocks of lines

    def sx(self, x: float) -> float:
        return self.m + (x - self.x0) / (self.x1 - self.x0) * (self.w - 2 * self.m)

    def sy(self, y: float) -> float:
        return self.h - self.m - (y - self.y0) / (self.y1 - self.y0) * (self.h - 2 * self.m)

    def polyline(self, xs, ys, color="#1f77b4"):
        """Points with a non-finite coordinate are dropped."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        pts = _fmt_points(self.sx(xs[keep]), self.sy(ys[keep]))[:-1]
        self.body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')

    def line(self, x_a, y_a, x_b, y_b, color, width, dash=None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.body.append(f'<line x1="{_fmt(self.sx(x_a))}" y1="{_fmt(self.sy(y_a))}" '
                         f'x2="{_fmt(self.sx(x_b))}" y2="{_fmt(self.sy(y_b))}" '
                         f'stroke="{color}" stroke-width="{width}"{extra}/>')

    def circle(self, cx, cy, r_world, color):
        rx = abs(self.sx(cx + r_world) - self.sx(cx))
        ry = abs(self.sy(cy + r_world) - self.sy(cy))
        self.body.append(f'<ellipse cx="{_fmt(self.sx(cx))}" cy="{_fmt(self.sy(cy))}" '
                         f'rx="{_fmt(rx)}" ry="{_fmt(ry)}" stroke="{color}" '
                         f'stroke-width="1.0" fill="none"/>')

    def text(self, x, y, s):
        self.body.append(f'<text x="{_fmt(self.sx(x))}" y="{_fmt(self.sy(y))}" '
                         f'font-size="10" fill="#000000" text-anchor="start" '
                         f'font-family="sans-serif">{s}</text>')

    def marker(self, x, y, color="#d62728"):
        self.body.append(f'<circle cx="{_fmt(self.sx(x))}" cy="{_fmt(self.sy(y))}" '
                         f'r="3.0" fill="{color}"/>')

    def _axes(self) -> list[str]:
        out = []
        out.append(f'<rect x="{self.m}" y="{self.m}" width="{self.w - 2 * self.m}" '
                   f'height="{self.h - 2 * self.m}" fill="none" stroke="#000" stroke-width="1"/>')
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            out.append(f'<text x="{_fmt(self.sx(xv))}" y="{self.h - self.m + 16}" font-size="10" '
                       f'text-anchor="middle" font-family="sans-serif">{_fmt(xv)}</text>')
            out.append(f'<text x="{self.m - 6}" y="{_fmt(self.sy(yv) + 3)}" font-size="10" '
                       f'text-anchor="end" font-family="sans-serif">{_fmt(yv)}</text>')
        if self.title:
            out.append(f'<text x="{self.w / 2}" y="{self.m - 14}" font-size="14" text-anchor="middle" '
                       f'font-family="sans-serif">{self.title}</text>')
        if self.xlabel:
            out.append(f'<text x="{self.w / 2}" y="{self.h - 10}" font-size="12" text-anchor="middle" '
                       f'font-family="sans-serif">{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="14" y="{self.h / 2}" font-size="12" text-anchor="middle" '
                       f'font-family="sans-serif" transform="rotate(-90 14 {self.h / 2})">{self.ylabel}</text>')
        return out

    def _lines(self):
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" height="{self.h}" '
               f'viewBox="0 0 {self.w} {self.h}">')
        yield f'<rect width="{self.w}" height="{self.h}" fill="#ffffff"/>'
        yield from self._axes()
        for entry in self.body:
            if isinstance(entry, str):
                yield entry
            else:
                yield from entry()
        yield "</svg>"

    def render(self) -> str:
        return "".join(line + "\n" for line in self._lines())

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for line in self._lines():
                fh.write(line + "\n")


def line_plot(path, series, title="", xlabel="", ylabel="", markers=()):
    """Plot (x, y, color) series on shared axes; markers are (x, y, label) points."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[finite], ys[finite]
    pad = lambda lo, hi: (lo - 0.05 * (hi - lo + 1e-30), hi + 0.05 * (hi - lo + 1e-30))
    cv = SvgCanvas(pad(xs.min(), xs.max()), pad(ys.min(), ys.max()),
                   title=title, xlabel=xlabel, ylabel=ylabel)
    for x, y, color in series:
        cv.polyline(x, y, color=color)
    for mx, my, label in markers:
        cv.marker(mx, my)
        cv.text(mx, my, " " + label)
    cv.write(path)


def heatmap(path, x, y, values, title="", xlabel="", ylabel=""):
    """Cell-quad heatmap of node values on a structured (possibly mapped) grid.

    Screen coordinates, cell means and colours are computed on whole arrays;
    every node's "x,y" is formatted once, in one _fmt_points call, and the
    file is streamed one grid row of cells at a time, one format_rows call
    per row.  The bytes are those of drawing each cell as its own polygon
    with SvgCanvas.sx/sy, _fmt and _color.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    cv = SvgCanvas((x.min(), x.max()), (y.min(), y.max()),
                   title=title, xlabel=xlabel, ylabel=ylabel)
    px, py = cv.sx(x), cv.sy(y)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN t is rejected below
        cell = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:])
        t = (cell - lo) / span
    if np.isnan(t).any():
        raise ValueError("heatmap values must be finite")
    rgb = _color(t)

    def rows():  # one block of polygons per grid row of cells
        n2 = t.shape[1] + 1
        pts = _fmt_points(px.ravel(), py.ravel()).split()
        cells = np.empty((t.shape[1], 7), dtype=object)
        for j in range(t.shape[0]):
            here, nxt = pts[j * n2:(j + 1) * n2], pts[(j + 1) * n2:(j + 2) * n2]
            cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3] = here[:-1], nxt[:-1], nxt[1:], here[1:]
            cells[:, 4:] = rgb[j]
            yield format_rows('<polygon points="%s %s %s %s" fill="rgb(%d,%d,%d)" stroke="none"/>\n', cells)[:-1]

    if t.size:
        cv.body.append(rows)
    cv.text(cv.x0, cv.y1, f"min {lo:.4g}  max {hi:.4g}")
    cv.write(path)
