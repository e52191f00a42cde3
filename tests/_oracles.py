"""Independent oracles used across the tests.

Each is a from-scratch route to a quantity the package computes some other
way; none call the implementation under test.  The CSV and SVG oracles are
the writers as first written, kept to pin the bytes of the array-based ones;
the banded mode loop pins the bits of the channel's dgbsv loop, the
per-point sampler and Aitken step pin those of the extrapolations toward a
singular end, and the per-node samplers, the top-row loop and the bounds
loop pin those of the Keldysh set-up.
"""

import math

import numpy as np
from scipy.integrate import cumulative_simpson, quad, solve_ivp
from scipy.linalg import solve_banded


def h_quadrature(gamma, S0, J, rho_ion, u):
    """Phase-plane potential H(u) by raw adaptive quadrature: the cross-check
    for the closed form `gas.enthalpy`."""
    us = (gamma * S0 * J ** (gamma - 1.0)) ** (1.0 / (gamma + 1.0))
    ub = J / rho_ion

    def integrand(t):
        return t ** (-(gamma + 1.0)) * (t ** (gamma + 1.0) - us ** (gamma + 1.0)) * (ub - t)

    val, _ = quad(integrand, us, u, epsabs=1e-14, epsrel=1e-13, limit=200)
    return (J / ub) * val


def bisect_root(f, a, b, tol=1e-13):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by plain
    bisection to an absolute tolerance of tol; the cross-check for brentq."""
    fa = f(a)
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm > 0.0:
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def normal_shock_cubic_gamma2(rho_inf, q_inf):
    """Downstream normal-shock speed for gamma=2 from the cubic's roots.

    Mass flux + Bernoulli reduce to u**3 - 2(B0+1)u + 2 rho_inf q_inf = 0;
    the subsonic root is the smallest positive one.
    """
    B0 = 0.5 * q_inf ** 2 + (rho_inf - 1.0)
    roots = np.roots([1.0, 0.0, -2.0 * (B0 + 1.0), 2.0 * rho_inf * q_inf])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    return real[0]


REDUCED_ODE_RHS_BUDGET = 5000  # 1,000 calls on the channel tests' background


def reduced_ode_solution(alpha, beta, f, l_s, L, w0, x_grid):
    """Bounded solution of alpha(x) w'' + beta(x) w' = f(x), w(0) = w0.

    The slope v = w' obeys a first-order ODE that is singular at the sonic
    location; boundedness selects the regular branch with v(l_s) =
    f(l_s)/beta(l_s).  Integrating outward from l_s in both directions is
    the stable orientation (the singular mode decays away from l_s).  Past
    REDUCED_ODE_RHS_BUDGET right-hand-side calls, five times what a correct
    sonic location needs, it raises instead of stepping on.
    """
    h = 1e-6
    b0 = beta(l_s)
    ap = (alpha(l_s + h) - alpha(l_s - h)) / (2 * h)
    bp = (beta(l_s + h) - beta(l_s - h)) / (2 * h)
    fp = (f(l_s + h) - f(l_s - h)) / (2 * h)
    v0 = f(l_s) / b0
    v1 = (fp - bp * v0) / (ap + b0)
    delta = 1e-6
    calls = 0

    def rhs(x, y):
        nonlocal calls
        calls += 1
        if calls > REDUCED_ODE_RHS_BUDGET:
            raise RuntimeError(f"reduced ODE oracle: more than {REDUCED_ODE_RHS_BUDGET} "
                               f"right-hand-side calls, at x = {x!r}")
        return [(f(x) - beta(x) * y[0]) / alpha(x)]

    sol_left = solve_ivp(rhs, (l_s - delta, 0.0), [v0 - v1 * delta],
                         rtol=1e-11, atol=1e-13, dense_output=True)
    sol_right = solve_ivp(rhs, (l_s + delta, L), [v0 + v1 * delta],
                          rtol=1e-11, atol=1e-13, dense_output=True)

    def v_of(x):
        if x < l_s - delta:
            return sol_left.sol(x)[0]
        if x > l_s + delta:
            return sol_right.sol(x)[0]
        return v0 + v1 * (x - l_s)

    v = np.array([v_of(x) for x in x_grid])
    return w0 + cumulative_simpson(v, x=x_grid, initial=0.0)


def directed_polyline_distance(P, Q):
    """Directed Hausdorff distance from the points P to the polyline Q by a
    scan over every segment, at most 2**16 point-segment pairs at a time.

    Each segment runs from its lexicographically smaller end A to the other
    end, B is the segment vector and a zero-length segment divides by 1; the
    point-segment distance is then |W - t B| with W = p - A and
    t = clip(W.B / |B|^2, 0, 1), its dot products written out as x0*y0 + x1*y1.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    swap = (Q[1:, 0] < Q[:-1, 0]) | ((Q[1:, 0] == Q[:-1, 0]) & (Q[1:, 1] < Q[:-1, 1]))
    a = np.where(swap[:, None], Q[1:], Q[:-1])
    b = np.where(swap[:, None], Q[:-1], Q[1:]) - a
    l2 = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1]
    l2 = np.where(l2 == 0.0, 1.0, l2)
    rows = max(1, (1 << 16) // len(a))
    best = -np.inf
    for c in range(0, len(P), rows):
        wx = P[c:c + rows, 0:1] - a[:, 0]
        wy = P[c:c + rows, 1:2] - a[:, 1]
        t = np.clip((wx * b[:, 0] + wy * b[:, 1]) / l2, 0.0, 1.0)
        dx = wx - t * b[:, 0]
        dy = wy - t * b[:, 1]
        best = max(best, float((dx * dx + dy * dy).min(axis=1).max()))
    return float(np.sqrt(best))


def interp_field_per_point(fld, arr, x, y):
    """Bilinear interpolation of a node array at one physical point (x, y):
    the Keldysh probes' sampler as first written."""
    xcol = fld.x[:, 0]
    j = int(np.clip(np.searchsorted(xcol, x) - 1, 1, len(xcol) - 2))
    tx = (x - xcol[j]) / (xcol[j + 1] - xcol[j])
    tx = min(max(tx, 0.0), 1.0)

    def col_val(jj):
        ycol = fld.y[jj, :]
        i = int(np.clip(np.searchsorted(ycol, y) - 1, 0, len(ycol) - 2))
        ty = (y - ycol[i]) / (ycol[i + 1] - ycol[i])
        ty = min(max(ty, 0.0), 1.0)
        return (1 - ty) * arr[jj, i] + ty * arr[jj, i + 1]

    return float((1 - tx) * col_val(j) + tx * col_val(j + 1))


def aitken_step(seq, max_ratio, fallback):
    """Aitken's delta-squared step on the last three terms of one list, as
    first written: the Keldysh probes used max_ratio 0.99 and the last term
    as fallback, the l_max ratio trend 0.95 and the mean of the last four."""
    if len(seq) < 3:
        return fallback
    d1 = seq[-2] - seq[-3]
    d2 = seq[-1] - seq[-2]
    if d1 == 0.0 or abs(d2 / d1) >= max_ratio:
        return fallback
    r = d2 / d1
    return seq[-1] + d2 * r / (1.0 - r)


def sample_per_node(fn, *coords):
    """float(fn(*point)) at every point of the equal-shape coordinate arrays,
    in a Python loop: the samplers of the model callables as first written."""
    out = np.empty(np.shape(coords[0]))
    flat = out.ravel()
    for k, point in enumerate(zip(*(np.ravel(c) for c in coords))):
        flat[k] = float(fn(*point))
    return out


def keldysh_entries_per_node(grid, coeffs, bc):
    """keldysh._assemble's sampled O1, its entries (rows, cols, m0, p, d) in
    the order written, and its rhs on a grid, as first written: per-node
    coefficient samples, one top row at a time in a Python loop and the
    right-edge data by list.  The 9-point weights are the package's own."""
    from sonicflow.keldysh import _nine_point

    O1, O2, O3, O4, O5 = (sample_per_node(getattr(coeffs, name), grid.X, grid.Y)
                          for name in ("O1", "O2", "O3", "O4", "O5"))
    nx, ny = grid.nx, grid.ny
    hs, he = grid.hs, grid.he
    n_eta = ny + 1

    def node(j, i):
        return j * n_eta + i

    zero = np.zeros_like(grid.X)
    A = grid.A[:, None] + zero
    A_s = grid.A_s[:, None] + zero
    B, B_s, B_eta = grid.B, grid.B_s, grid.B_eta[:, None]
    f = grid.fx[:, None]
    parts = (
        _nine_point(hs, he, zero, O2 * A / f, O2 * B / f + (coeffs.b + O3) / f ** 2,
                    -(1.0 + O4) * A, zero, O2 * B_eta / f + O5 / f - (1.0 + O4) * B),
        _nine_point(hs, he, A ** 2, 2.0 * A * B, B ** 2, zero, A * A_s,
                    A * B_s + B * B_eta),
        _nine_point(hs, he, zero, zero, zero, zero, A, B),
    )
    rows, cols = [], []
    vals = ([], [], [])

    def put(r, c, *v):
        rows.append(np.atleast_1d(r))
        cols.append(np.atleast_1d(c))
        for out, value in zip(vals, v + (0.0,) * (3 - len(v))):
            out.append(np.broadcast_to(value, rows[-1].shape))

    J, I = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
    J, I = J.ravel(), I.ravel()
    for dj, di in parts[0]:
        put(node(J, I), node(J + dj, I + di), *(part[dj, di][J, I] for part in parts))
    J = np.arange(1, nx)
    I = np.zeros_like(J)
    for dj, di in ((1, 0), (-1, 0), (0, 0)):
        put(node(J, I), node(J + dj, I), *(part[dj, di][J, I] for part in parts))
    put(node(J, I), node(J, I + 1), *(part[0, 1][J, I] + part[0, -1][J, I] for part in parts))

    rhs = np.zeros((nx + 1) * n_eta)
    for j in range(1, nx):
        r = node(j, ny)
        xj, yj = grid.x[j], grid.Y[j, ny]
        rhs[r] = float(bc.top_data(xj))
        if bc.top_mode == "dirichlet":
            put(r, r, 1.0)
            continue
        b1 = float(coeffs.beta1(xj, yj))
        b2 = float(coeffs.beta2(xj, yj))
        cs = b1 * grid.A[j] / hs
        ce = (b1 * grid.B[j, ny] + b2 / grid.fx[j]) / he
        put([r, r, r], [r, node(j - 1, ny), node(j, ny - 1)],
            np.array([cs + ce + 1.0, -cs, -ce]))

    i = np.arange(n_eta)
    put(node(0, i), node(0, i), 1.0)
    put(node(nx, i), node(nx, i), 1.0)
    rhs[node(nx, i)] = [float(bc.right_data(y)) for y in grid.Y[nx, :]]
    return O1, np.concatenate(rows), np.concatenate(cols), *(np.concatenate(v) for v in vals), rhs


def validate_bounds_loop(coeffs, domain):
    """KeldyshCoefficients.validate_bounds as first written: O1 and O2-O5 in
    separate loops, values before derivatives at each sample point.  Every
    message names its sample point."""
    xs = np.linspace(domain.eps0 / 25, domain.eps0, 25)
    tol = 1e-9
    for x in xs:
        fx = float(domain.f(x))
        for y in np.linspace(0.0, fx, 9):
            if abs(coeffs.O1(x, y)) > coeffs.N * x * x + tol:
                raise ValueError(f"|O1({x:.3g},{y:.3g})| exceeds N*x^2")
            for name, O in (("O2", coeffs.O2), ("O3", coeffs.O3),
                            ("O4", coeffs.O4), ("O5", coeffs.O5)):
                if abs(O(x, y)) > coeffs.N * x + tol:
                    raise ValueError(f"|{name}({x:.3g},{y:.3g})| exceeds N*x")
            h = 1e-5 * domain.eps0
            d1 = math.hypot((coeffs.O1(x + h, y) - coeffs.O1(x - h, y)) / (2 * h),
                            (coeffs.O1(x, y + h) - coeffs.O1(x, y - h)) / (2 * h))
            if d1 > coeffs.N * x + 1e-6:
                raise ValueError(f"|DO1({x:.3g},{y:.3g})| exceeds N*x")
            for name, O in (("O2", coeffs.O2), ("O3", coeffs.O3),
                            ("O4", coeffs.O4), ("O5", coeffs.O5)):
                dk = math.hypot((O(x + h, y) - O(x - h, y)) / (2 * h),
                                (O(x, y + h) - O(x, y - h)) / (2 * h))
                if dk > coeffs.N + 1e-6:
                    raise ValueError(f"|D{name}({x:.3g},{y:.3g})| exceeds N")
        if coeffs.beta1(x, fx) < coeffs.lam - tol:
            raise ValueError(f"beta1({x:.3g},{fx:.3g}) < lambda on the top boundary")
        if abs(coeffs.beta2(x, fx)) > 1.0 / coeffs.lam + tol:
            raise ValueError(f"|beta2({x:.3g},{fx:.3g})| > 1/lambda on the top boundary")


def banded_modes_solve_banded(c, pde, lam, r, pinned):
    """Each x2 mode's banded x1 system (lam[k] P + C) u_k = r[:, k] through
    scipy's solve_banded on C's (3, 2) band, as the channel solver first
    did it: every mode also solves a unit entrance forcing, whose response
    is z, and pinned (the d1 inlet) makes mode 0's entrance row read u[0] = 0.
    """
    n1, n2 = r.shape
    band = np.zeros((6, n1))
    for off in range(-3, 3):
        band[2 - off, max(off, 0):n1 + min(off, 0)] = c.diagonal(off)
    unit = np.eye(n1, 1)[:, 0]
    u, z = np.empty((n1, n2)), np.empty((n1, n2))
    for k in range(n2):
        ab = band.copy()
        ab[2] += lam[k] * pde
        b = np.column_stack([r[:, k], unit])
        if pinned and k == 0:  # C[0, j] sits at ab[2 - j, j]
            ab[[2, 1, 0], [0, 1, 2]] = 1.0, 0.0, 0.0
            b[0, 0] = 0.0
        u[:, k], z[:, k] = solve_banded((3, 2), ab, b).T
    return u, z


def csv_text_rows(header, columns):
    """CSV text one row at a time, each value through repr: the writer as
    first written, kept to pin the bytes of the block-formatted one."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


class SvgCanvasOracle:
    """The SVG canvas as first written: every coordinate through the scalar
    sx/sy and _fmt, one string per element, the file joined in memory."""

    STOPS = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]

    def __init__(self, x_range, y_range, width=640, height=480, margin=50,
                 title="", xlabel="", ylabel=""):
        self.x0, self.x1 = map(float, x_range)
        self.y0, self.y1 = map(float, y_range)
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.w, self.h, self.m = width, height, margin
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.body = []

    @staticmethod
    def fmt(v):
        return f"{v:.6g}"

    @classmethod
    def color(cls, t):
        t = min(max(t, 0.0), 1.0)
        pos = t * (len(cls.STOPS) - 1)
        i = min(int(pos), len(cls.STOPS) - 2)
        f = pos - i
        c = [round((1 - f) * a + f * b) for a, b in zip(cls.STOPS[i], cls.STOPS[i + 1])]
        return f"rgb({c[0]},{c[1]},{c[2]})"

    def sx(self, x):
        return self.m + (x - self.x0) / (self.x1 - self.x0) * (self.w - 2 * self.m)

    def sy(self, y):
        return self.h - self.m - (y - self.y0) / (self.y1 - self.y0) * (self.h - 2 * self.m)

    def polyline(self, xs, ys, color="#1f77b4", width=1.5):
        fmt = self.fmt
        pts = " ".join(f"{fmt(self.sx(float(x)))},{fmt(self.sy(float(y)))}"
                       for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y))
        self.body.append(f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>')

    def quad(self, corners, fill):
        pts = " ".join(f"{self.fmt(self.sx(x))},{self.fmt(self.sy(y))}" for x, y in corners)
        self.body.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    def text(self, x, y, s, size=12):
        self.body.append(f'<text x="{self.fmt(self.sx(x))}" y="{self.fmt(self.sy(y))}" '
                         f'font-size="{size}" fill="#000000" text-anchor="start" '
                         f'font-family="sans-serif">{s}</text>')

    def marker(self, x, y, color="#d62728", r=3.0):
        self.body.append(f'<circle cx="{self.fmt(self.sx(x))}" cy="{self.fmt(self.sy(y))}" '
                         f'r="{r}" fill="{color}"/>')

    def render(self):
        fmt = self.fmt
        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" height="{self.h}" '
               f'viewBox="0 0 {self.w} {self.h}">',
               f'<rect width="{self.w}" height="{self.h}" fill="#ffffff"/>',
               f'<rect x="{self.m}" y="{self.m}" width="{self.w - 2 * self.m}" '
               f'height="{self.h - 2 * self.m}" fill="none" stroke="#000" stroke-width="1"/>']
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            out.append(f'<text x="{fmt(self.sx(xv))}" y="{self.h - self.m + 16}" font-size="10" '
                       f'text-anchor="middle" font-family="sans-serif">{fmt(xv)}</text>')
            out.append(f'<text x="{self.m - 6}" y="{fmt(self.sy(yv) + 3)}" font-size="10" '
                       f'text-anchor="end" font-family="sans-serif">{fmt(yv)}</text>')
        if self.title:
            out.append(f'<text x="{self.w / 2}" y="{self.m - 14}" font-size="14" text-anchor="middle" '
                       f'font-family="sans-serif">{self.title}</text>')
        if self.xlabel:
            out.append(f'<text x="{self.w / 2}" y="{self.h - 10}" font-size="12" text-anchor="middle" '
                       f'font-family="sans-serif">{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="14" y="{self.h / 2}" font-size="12" text-anchor="middle" '
                       f'font-family="sans-serif" transform="rotate(-90 14 {self.h / 2})">{self.ylabel}</text>')
        return "\n".join(out + self.body + ["</svg>"]) + "\n"


def heatmap_svg(x, y, values, title="", xlabel="", ylabel=""):
    """SVG text of a cell-quad heatmap, one cell at a time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    cv = SvgCanvasOracle((x.min(), x.max()), (y.min(), y.max()),
                         title=title, xlabel=xlabel, ylabel=ylabel)
    n1, n2 = v.shape
    for j in range(n1 - 1):
        for i in range(n2 - 1):
            corners = [(x[j, i], y[j, i]), (x[j + 1, i], y[j + 1, i]),
                       (x[j + 1, i + 1], y[j + 1, i + 1]), (x[j, i + 1], y[j, i + 1])]
            cell = 0.25 * (v[j, i] + v[j + 1, i] + v[j + 1, i + 1] + v[j, i + 1])
            cv.quad(corners, cv.color((cell - lo) / span))
    cv.text(cv.x0, cv.y1, f"min {lo:.4g}  max {hi:.4g}", size=10)
    return cv.render()


def line_plot_svg(series, title="", xlabel="", ylabel="", markers=()):
    """SVG text of (x, y, color) series on shared axes, one point at a time."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[finite], ys[finite]
    pad = lambda lo, hi: (lo - 0.05 * (hi - lo + 1e-30), hi + 0.05 * (hi - lo + 1e-30))
    cv = SvgCanvasOracle(pad(xs.min(), xs.max()), pad(ys.min(), ys.max()),
                         title=title, xlabel=xlabel, ylabel=ylabel)
    for x, y, color in series:
        cv.polyline(x, y, color=color)
    for mx, my, label in markers:
        cv.marker(mx, my)
        cv.text(mx, my, " " + label, size=10)
    return cv.render()


def oblique_shock_cubic_gamma2(rho_inf, q_inf, sigma):
    """Downstream normal speed across a shock at inclination sigma, gamma=2.

    With rho = 1 + B0 - (w**2 + v_t**2)/2, mass flux continuity is the cubic
    w**3 - 2(1 + B0 - v_t**2/2) w + 2 rho_inf u_n = 0, whose roots are the
    compressive one, the trivial one w = u_n and a negative one; the
    compressive root is the smallest positive root.
    """
    B0 = 0.5 * q_inf ** 2 + (rho_inf - 1.0)
    out = []
    for s in np.atleast_1d(sigma):
        u_n, v_t = q_inf * np.sin(s), q_inf * np.cos(s)
        roots = np.roots([1.0, 0.0, -2.0 * (1.0 + B0 - 0.5 * v_t * v_t), 2.0 * rho_inf * u_n])
        out.append(min(r.real for r in roots if r.real > 0))
    return np.array(out)
