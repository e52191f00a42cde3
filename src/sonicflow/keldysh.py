"""Finite-difference solver for the Keldysh-type degenerate model equation.

The equation

    (2x - a psi_x + O1) psi_xx + O2 psi_xy + (b + O3) psi_yy
        - (1 + O4) psi_x + O5 psi_y = 0

is elliptic for x > 0 (given the slope bound psi_x/x < 2/a) and degenerates
on x = 0, where the coefficient of psi_xx vanishes linearly: a Keldysh-type
degeneracy.  The domain {0 < x < eps0, 0 < y < f(x)} is mapped onto the unit
square by x = eps0 * s**q (grading resolves the psi ~ x**2 behaviour) and
y = eta * f(x); the transformed equation is discretized with centered
differences except for the first-order x-derivative, which is differenced
backward (information enters from the degenerate boundary), and the nonlinear
discrete system is solved by semismooth Newton iteration with a damped step.

Diagnostics probe the interior trace psi_xx(0+, y) -> 1/a, the two-path
corner behaviour at (0, f(0)), and the quadratic growth/slope bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .field2d import Field2D, aitken_limit, sample


class KeldyshDivergenceError(RuntimeError):
    """A Newton step failed the natural monotonicity test at every step factor."""


class KeldyshConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the update tolerance."""


class InsufficientGradingError(ValueError):
    """The grid does not resolve the requested near-degeneracy abscissas."""


@dataclass(frozen=True)
class KeldyshDomain:
    """Domain {0 < x < eps0, 0 < y < f(x)} with an increasing top boundary f."""

    eps0: float
    f: object  # callable x -> f(x)
    fp: object  # callable x -> f'(x)
    fpp: object  # callable x -> f''(x)
    omega: float = 0.0

    def __post_init__(self):
        if not self.eps0 > 0.0:
            raise ValueError(f"eps0 must be > 0, got {self.eps0}")
        xs = np.linspace(0.0, self.eps0, 401)
        fv, dv, d2v = (sample(g, xs) for g in (self.f, self.fp, self.fpp))
        if fv[0] <= 0.0:
            raise ValueError(f"f(0) must be > 0, got {fv[0]}")
        if np.any(dv < max(self.omega, 0.0) - 1e-12):
            raise ValueError("df/dx must be >= omega > 0 on [0, eps0]")
        if self.omega <= 0.0 and np.any(dv <= 0.0):
            raise ValueError("df/dx must be positive on [0, eps0]")
        # each derivative must match the trapezoid differences of the callable
        # it differentiates, to 1e-3 of the largest finite difference; a
        # sample that is not finite fails
        for name, of, g, dg in (("fp", "f", fv, dv), ("fpp", "fp", dv, d2v)):
            with np.errstate(invalid="ignore", over="ignore"):
                inc = np.diff(g)
                err = np.abs(inc - 0.5 * np.diff(xs) * (dg[1:] + dg[:-1]))
            scale = np.max(np.abs(inc), where=np.isfinite(inc), initial=0.0)
            bad = np.flatnonzero(~(err <= 1e-3 * scale))
            if len(bad):
                i = bad[0]
                raise ValueError(f"{name} disagrees with the differences of {of} "
                                 f"on [{xs[i]:.4g}, {xs[i + 1]:.4g}]")


def _zero(x, y):
    return 0.0


# KeldyshCoefficients.validate_bounds samples the bounds at _BOUNDS_NX
# abscissas and _BOUNDS_NY heights per abscissa
_BOUNDS_NX = 25
_BOUNDS_NY = 9


@dataclass(frozen=True)
class KeldyshCoefficients:
    """Coefficients of the model equation and of the oblique top condition.

    O1..O5 are perturbations of (x, y) subject to |O1| <= N x**2,
    |Oi| <= N x (i >= 2), with matching bounds on first derivatives; beta1,
    beta2 enter the top condition beta1 psi_x + beta2 psi_y + psi = data and
    must satisfy beta1 >= lam > 0, |beta2| <= 1/lam.
    """

    a: float
    b: float
    O1: object = _zero
    O2: object = _zero
    O3: object = _zero
    O4: object = _zero
    O5: object = _zero
    N: float = 1.0
    beta1: object = lambda x, y: 1.0
    beta2: object = _zero
    lam: float = 1.0

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if not self.b > 0.0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")

    def validate_bounds(self, domain: KeldyshDomain) -> None:
        """Sample the perturbation and obliqueness bounds; raise on violation.

        At each sample point every |Oi| is checked before any |DOi|.
        """
        tol = 1e-9
        h = 1e-5 * domain.eps0
        for x in np.linspace(domain.eps0 / _BOUNDS_NX, domain.eps0, _BOUNDS_NX):
            fx = float(domain.f(x))
            # (name, Oi, bound on |Oi|, bound on |DOi|), each bound with its name
            terms = [("O1", self.O1, (self.N * x * x, "N*x^2"), (self.N * x, "N*x"))]
            terms += [(name, getattr(self, name), (self.N * x, "N*x"), (self.N, "N"))
                      for name in ("O2", "O3", "O4", "O5")]
            for y in np.linspace(0.0, fx, _BOUNDS_NY):
                for name, O, (bound, label), _ in terms:
                    if abs(O(x, y)) > bound + tol:
                        raise ValueError(f"|{name}({x:.3g},{y:.3g})| exceeds {label}")
                for name, O, _, (bound, label) in terms:
                    grad = math.hypot((O(x + h, y) - O(x - h, y)) / (2 * h),
                                      (O(x, y + h) - O(x, y - h)) / (2 * h))
                    if grad > bound + 1e-6:
                        raise ValueError(f"|D{name}({x:.3g},{y:.3g})| exceeds {label}")
            if self.beta1(x, fx) < self.lam - tol:
                raise ValueError(f"beta1({x:.3g},{fx:.3g}) < lambda on the top boundary")
            if abs(self.beta2(x, fx)) > 1.0 / self.lam + tol:
                raise ValueError(f"|beta2({x:.3g},{fx:.3g})| > 1/lambda on the top boundary")


@dataclass(frozen=True)
class KeldyshBC:
    """Boundary data closing the model problem.

    The printed conditions are psi = 0 on x = 0 and psi_y = 0 on y = 0; the
    top condition is the oblique one (optionally inhomogeneous) or a Dirichlet
    trace for manufactured runs.  The right edge x = eps0 is not covered by
    the printed conditions and is closed with Dirichlet data.
    """

    top_mode: str = "oblique"  # oblique | dirichlet
    top_data: object = lambda x: 0.0  # callable of x
    right_data: object = lambda y: 0.0  # callable of y

    def __post_init__(self):
        if self.top_mode not in ("oblique", "dirichlet"):
            raise ValueError(f"top_mode must be oblique/dirichlet, got {self.top_mode!r}")


@dataclass(frozen=True)
class KeldyshOptions:
    nx: int = 65
    ny: int = 65
    grading: float = 2.0
    max_iter: int = 120
    tol: float = 1e-11

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid sizes must be >= 1, got nx={self.nx}, ny={self.ny}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# c1 is clamped below at _CLAMP * 2x, which keeps the frozen problem elliptic
# for x > 0
_CLAMP = 1e-3

# smallest step factor t the natural monotonicity test tries before it gives
# up; on the reference scenario at 97^2 with (o_scale, eps0) = (0.046, 0.496)
# one step passes the test only at t ~ 8e-6, after which full steps converge
_MIN_STEP = 1e-8

# the quarter in the monotonicity test's 1 - t/4, and the contraction each
# chord step's correction must show against the one before it to be taken
_QUARTER = 0.25


class _Grid:
    """Mapped-grid metric arrays shared by assembly and evaluation."""

    def __init__(self, domain: KeldyshDomain, nx: int, ny: int, q: float):
        self.nx, self.ny = nx, ny
        self.hs = 1.0 / nx
        self.he = 1.0 / ny
        s = np.linspace(0.0, 1.0, nx + 1)
        self.eta = np.linspace(0.0, 1.0, ny + 1)
        eps = domain.eps0
        self.x = eps * s ** q
        self.fx = sample(domain.f, self.x)
        self.fpx = sample(domain.fp, self.x)
        self.fppx = sample(domain.fpp, self.x)
        gp = q * eps * np.where(s > 0, s, 1.0) ** (q - 1.0)
        gpp = q * (q - 1.0) * eps * np.where(s > 0, s, 1.0) ** (q - 2.0)
        self.A = np.where(s > 0, 1.0 / gp, 0.0)  # s=0 column is Dirichlet
        self.A_s = np.where(s > 0, -gpp / gp ** 2, 0.0)
        self.X = np.tile(self.x[:, None], (1, ny + 1))
        self.Y = self.eta[None, :] * self.fx[:, None]
        # B = -eta f'/f and its derivatives, per node
        self.B = -self.eta[None, :] * (self.fpx / self.fx)[:, None]
        self.B_s = -self.eta[None, :] * (gp * (self.fppx * self.fx - self.fpx ** 2)
                                         / self.fx ** 2)[:, None]
        self.B_eta = -(self.fpx / self.fx)


def _nine_point(hs, he, Css, Cse, Cee, Cs_up, Cs_c, Ce):
    """Weights by node offset (dj, di) of the difference operator

        Css w_ss + Cse w_s_eta + Cee w_eta_eta + Cs_up w_s + Cs_c w_s + Ce w_eta

    with every derivative centered except the Cs_up one, which is backward.
    """
    cross = Cse / (4 * hs * he)
    return {(1, 0): Css / hs ** 2 + Cs_c / (2 * hs),
            (-1, 0): Css / hs ** 2 - Cs_c / (2 * hs) - Cs_up / hs,
            (0, 1): Cee / he ** 2 + Ce / (2 * he),
            (0, -1): Cee / he ** 2 - Ce / (2 * he),
            (0, 0): -2 * Css / hs ** 2 - 2 * Cee / he ** 2 + Cs_up / hs,
            (1, 1): cross, (-1, -1): cross, (1, -1): -cross, (-1, 1): -cross}


class _Stencil:
    """The discrete equations F(w) = M(c1(w)) w - rhs on a fixed CSC pattern.

    Interior and eta = 0 rows are affine in the principal coefficient c1 at
    their own node, so M(c1) = M0 + diag(c1) P; on those rows psi_x = D w,
    and `evaluate` takes c1 from that D w.  No other row holds c1 (D and P
    are zero on the top and Dirichlet rows), so only those rows' nodes, in
    columns 2..nx-1, count in the clamp (_clamped).  Entry k of the pattern
    holds m0[k], p[k] and d[k], so any combination of the three is a refill
    of values on the one pattern.

    The pattern numbers the nodes by position in `order`: first the m
    unknown nodes in nested-dissection order, then the Dirichlet nodes.  A
    Dirichlet row holds only its unit diagonal, so no unknown column has an
    entry below row m, and the unknown-unknown block is the first m columns
    of the pattern, a prefix of its arrays.  `factor` makes one LU of that
    block alone.  Vectors given to and returned by the methods are in node
    order, like w.ravel().
    """

    def __init__(self, grid, a, O1, order, m, rows, cols, m0, p, d, rhs):
        self.grid, self.a, self.O1 = grid, a, O1
        n = rhs.size
        self.order, self.m = order, m
        # 32-bit indices, as SuperLU and the CSC matrices store them, so that
        # no matrix built on the pattern copies them
        self.position = np.empty(n, dtype=np.int32)
        self.position[order] = np.arange(n)
        rows, cols = self.position[rows], self.position[cols]
        srt = np.lexsort((rows, cols))
        self.rows = rows[srt]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        self.indptr = self.indptr.astype(np.int32)
        self.m0, self.p, self.d = m0[srt], p[srt], d[srt]
        self.rhs = rhs
        self.M0, self.P, self.D = self._csc(self.m0), self._csc(self.p), self._csc(self.d)

    def _csc(self, vals):
        n = self.rhs.size
        return csc_matrix((vals, self.rows, self.indptr), shape=(n, n))

    def _values(self, c1, g):
        vals = self.m0 + c1.ravel()[self.order][self.rows] * self.p
        if g is not None:
            vals += g.ravel()[self.order][self.rows] * self.d
        return vals

    def matrix(self, c1, g=None):
        """M0 + diag(c1) P + diag(g) D in pattern order, with c1 and g given per node."""
        return self._csc(self._values(c1, g))

    def factor(self, c1, g):
        """One LU of the unknown-unknown block A_II of matrix(c1, g), and the
        exact solve of the whole system with it: x_D = b_D, then
        A_II x_I = b_I - A_ID x_D.  Returns (lu, solve)."""
        n, m = self.rhs.size, self.m
        vals = self._values(c1, g)
        k = self.indptr[m]
        lu = splu(csc_matrix((vals[:k], self.rows[:k], self.indptr[:m + 1]), shape=(m, m)),
                  permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESH)
        coupling = csc_matrix((vals[k:], self.rows[k:], self.indptr[m:] - k), shape=(n, n - m))

        def solve(b):
            x = b[self.order]
            x[:m] = lu.solve(x[:m] - (coupling @ x[m:])[:m])
            return x[self.position]

        return lu, solve

    def clamp(self, c1_raw):
        """max(c1_raw, _CLAMP * 2x) and the mask of unclamped nodes."""
        c1_floor = _CLAMP * 2.0 * self.grid.X
        return np.maximum(c1_raw, c1_floor), c1_raw >= c1_floor

    def evaluate(self, w):
        """F(w), the clamped c1(w), the mask of unclamped nodes, and P w.

        c1 = max(2x - a psi_x + O1, _CLAMP * 2x) with psi_x = D w, the psi_x
        the Jacobian differentiates.
        """
        wp = w.ravel()[self.order]
        psi_x = (self.D @ wp)[self.position].reshape(w.shape)
        c1, free = self.clamp(2.0 * self.grid.X - self.a * psi_x + self.O1)
        pw = (self.P @ wp)[self.position]
        F = (self.M0 @ wp)[self.position] + c1.ravel() * pw - self.rhs
        return F, c1, free, pw


# nested dissection stops cutting at boxes of at most this many nodes
_LEAF = 16

# SuperLU keeps the diagonal pivot unless it is below this fraction of its
# column's largest entry, so that row swaps rarely undo the dissection order
_PIVOT_THRESH = 0.01


def _dissect(js, its, n_eta, out):
    """Append the nodes (j, i) of the index box js x its to out in nested-
    dissection order: cut the longer side at its middle line, order each half
    the same way, and put the line last.  One line separates the halves for
    the 9-point stencil and the top condition alike.  Leaves are row-major."""
    if js.size * its.size <= _LEAF:
        out.append((js[:, None] * n_eta + its).ravel())
        return out
    if js.size >= its.size:
        h = js.size // 2
        halves, line = ((js[:h], its), (js[h + 1:], its)), js[h] * n_eta + its
    else:
        h = its.size // 2
        halves, line = ((js, its[:h]), (js, its[h + 1:])), js * n_eta + its[h]
    for box in halves:
        _dissect(*box, n_eta, out)
    out.append(line)
    return out


def _node_order(nx, ny, top_mode):
    """(order, m): the m unknown nodes in nested-dissection order, then the
    Dirichlet nodes -- the x = 0 and x = eps0 columns, and the top row when
    the top condition is a Dirichlet one."""
    n_eta = ny + 1
    top = ny + 1 if top_mode == "oblique" else ny
    unknown = np.concatenate(_dissect(np.arange(1, nx), np.arange(top), n_eta, []))
    dirichlet = np.setdiff1d(np.arange((nx + 1) * n_eta), unknown)
    return np.concatenate((unknown, dirichlet)), unknown.size


def _assemble(domain: KeldyshDomain, coeffs: KeldyshCoefficients,
              opts: KeldyshOptions, bc: KeldyshBC) -> _Stencil:
    """Sample the coefficients once and build the operator's fixed pattern."""
    grid = _Grid(domain, opts.nx, opts.ny, opts.grading)
    O1, O2, O3, O4, O5 = (sample(getattr(coeffs, name), grid.X, grid.Y)
                          for name in ("O1", "O2", "O3", "O4", "O5"))
    nx, ny = grid.nx, grid.ny
    hs, he = grid.hs, grid.he
    n_eta = ny + 1

    def node(j, i):
        return j * n_eta + i

    zero = np.zeros_like(grid.X)
    A = grid.A[:, None] + zero
    A_s = grid.A_s[:, None] + zero
    B = grid.B
    B_s = grid.B_s
    B_eta = grid.B_eta[:, None]
    f = grid.fx[:, None]
    # weights of M0, P and D: c1 multiplies the P terms, psi_x = A w_s + B w_eta
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
        """Entries (r, c) with values v = (m0, p, d); a missing part is zero."""
        rows.append(np.atleast_1d(r))
        cols.append(np.atleast_1d(c))
        for out, value in zip(vals, v + (0.0,) * (3 - len(v))):
            out.append(np.broadcast_to(value, rows[-1].shape))

    # interior nodes (1..nx-1) x (1..ny-1)
    J, I = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
    J, I = J.ravel(), I.ravel()
    for dj, di in parts[0]:
        put(node(J, I), node(J + dj, I + di), *(part[dj, di][J, I] for part in parts))

    # symmetry rows at eta = 0: the mirror ghost w[:, -1] = w[:, 1] folds the
    # (0, -1) weight onto (0, 1) and cancels the cross terms
    J = np.arange(1, nx)
    I = np.zeros_like(J)
    for dj, di in ((1, 0), (-1, 0), (0, 0)):
        put(node(J, I), node(J + dj, I), *(part[dj, di][J, I] for part in parts))
    put(node(J, I), node(J, I + 1), *(part[0, 1][J, I] + part[0, -1][J, I] for part in parts))

    # top boundary rows: Dirichlet, or beta1 psi_x + beta2 psi_y + psi with
    # psi_x and psi_y differenced backward
    J = np.arange(1, nx)
    R = node(J, ny)
    rhs = np.zeros((nx + 1) * n_eta)
    rhs[R] = sample(bc.top_data, grid.x[J])
    if bc.top_mode == "dirichlet":
        put(R, R, 1.0)
    else:
        b1 = sample(coeffs.beta1, grid.x[J], grid.Y[J, ny])
        b2 = sample(coeffs.beta2, grid.x[J], grid.Y[J, ny])
        cs = b1 * grid.A[J] / hs
        ce = (b1 * grid.B[J, ny] + b2 / grid.fx[J]) / he
        put(R, R, cs + ce + 1.0)
        put(R, node(J - 1, ny), -cs)
        put(R, node(J, ny - 1), -ce)

    # Dirichlet columns: x = 0 and x = eps0
    i = np.arange(n_eta)
    put(node(0, i), node(0, i), 1.0)
    put(node(nx, i), node(nx, i), 1.0)
    rhs[node(nx, i)] = sample(bc.right_data, grid.Y[nx, :])

    return _Stencil(grid, coeffs.a, O1, *_node_order(nx, ny, bc.top_mode), np.concatenate(rows),
                    np.concatenate(cols), *(np.concatenate(v) for v in vals), rhs)


def _clamped(free: np.ndarray) -> np.ndarray:
    """The clamped nodes whose c1 enters an equation, beyond the first
    interior column: the interior and eta = 0 rows of columns 2..nx-1.  The
    top row is left out: its Dirichlet or oblique condition holds no c1,
    and D w, from which `_Stencil.evaluate` takes c1, is zero there.

    Column 1 clamps wherever psi ~ x**2/(2a), the degenerate-boundary
    behaviour: on x = eps0 s**2 the centered s-difference there doubles
    psi_x of a field quadratic in x, so c1 = 2x - a psi_x is about 0.  Only
    deeper activations mark a solution unreliable.
    """
    return ~free[2:-1, :-1]


def solve_model(domain: KeldyshDomain, coeffs: KeldyshCoefficients,
                opts: KeldyshOptions | None = None,
                bc: KeldyshBC | None = None) -> Field2D:
    """Solve the discrete model equation by semismooth Newton iteration.

    The unknowns solve F(w) = M(c1(w)) w - rhs = 0, where the principal
    coefficient c1 = max(2x - a psi_x + O1, 1e-3*2x) is clamped below to
    keep the problem elliptic for x > 0, with psi_x = D w, the stencil's
    centered difference.  The Jacobian

        J = M0 + diag(c1) P - a diag((P w) * unclamped) D

    is exact off the clamp's switching set and shares the 9-point pattern of
    M, so each step refills values and makes one sparse LU factorization.
    It factors only the unknown-unknown block: the Dirichlet values are
    known and move to the right-hand side, and the other nodes are taken in
    a nested-dissection order with leaves of at most 16 nodes, built once
    per grid (see _Stencil).  SuperLU keeps that column order
    (permc_spec="NATURAL") and, with a diagonal pivot threshold of 0.01,
    swaps rows only where a diagonal pivot is below 1% of its column's
    largest entry.

    Newton starts from the degenerate-boundary asymptotic: near x = 0,
    psi_xx -> 1/a, so psi_x ~ x/a and c1 ~ x + O1.  One linear solve with
    c1 = max(x + O1, 1e-3*2x) frozen gives the start; its LU is freed before
    the first Newton LU is made.  Steps are damped by Deuflhard's natural
    monotonicity test: the first of
    t = 1, 1/2, 1/4, ... (down to 1e-8) with |J^-1 F(w + t dw)| <= (1 - t/4) |dw|
    (max norms, reusing the step's LU) is taken.

    The test's simplified correction d = -J^-1 F(w + t dw) also decides
    when to stop and whether to keep the LU (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, error-oriented Newton; Kelley, Iterative
    Methods for Linear and Nonlinear Equations, 1995, ch. 5, chord steps).
    Iteration has one stop rule: it stops when a simplified correction d
    made with the current LU has relative size max|d| / max(1, max|w|) at
    most tol; d is applied, and no LU is made to confirm it.  Every Newton
    step, even one whose dw is that small, takes the damped trial first.
    Otherwise, while d is at most a quarter of the correction it follows
    (dw, then each kept chord step), d is tried as a chord step with the
    same LU: it is kept when its own correction is at most a quarter of
    it, and that correction becomes the next d.  The first chord step that
    fails is dropped, and the next Newton LU is made at the last kept
    iterate.  Each kept chord step shrinks the correction fourfold, so at
    most about log4(1/tol) follow one LU; `max_iter` counts Newton steps
    only.

    Raises KeldyshDivergenceError when the test fails at the smallest step
    factor, KeldyshConvergenceError when the step budget runs out.  The
    returned metadata records, one entry each per Newton step, the relative
    step history `update_history`, the step factor t taken, `step_factors`
    (the last, converged step is a full one), and the chord steps kept with
    its LU, `chord_steps`; `final_update` is the relative size of the
    simplified correction that ended the run.  It also records the
    `factorizations` count (the start's LU and one per Newton step, so
    `iterations` + 1), the largest LU fill `lu_nnz` (SuperLU's nnz), the
    final residual, `clamped_per_step` (the clamped nodes at the start and
    after each Newton step, so that a run shows its active set settling),
    and the clamp at the final iterate: `clamp_count` nodes in the columns
    `clamp_columns` (first and last, or None).  Both count only nodes whose
    c1 enters an equation, the interior and eta = 0 rows, in columns
    2..nx-1 (see _clamped).  An active clamp there flags the solution
    unreliable.
    """
    opts = opts or KeldyshOptions()
    bc = bc or KeldyshBC()
    st = _assemble(domain, coeffs, opts, bc)
    grid = st.grid
    # the start: one linear solve with the asymptotic c1 ~ x + O1 frozen
    lu, solve = st.factor(st.clamp(grid.X + st.O1)[0], None)
    lu_nnz = lu.nnz
    w = solve(st.rhs).reshape(grid.X.shape)
    del lu, solve  # free the start's factorization before the first Newton one
    F, c1, free, pw = st.evaluate(w)
    history, factors, chords, clamped_per_step = [], [], [], []

    def correct(v):
        """st.evaluate(v), the correction d = -J^-1 F(v) made with the
        current LU, and max|d|."""
        state = st.evaluate(v)
        d = -solve(state[0]).reshape(grid.X.shape)
        return state, d, float(np.max(np.abs(d)))

    def relative(size, v):
        return size / max(1.0, float(np.max(np.abs(v))))

    for _ in range(opts.max_iter):
        clamped_per_step.append(int(np.count_nonzero(_clamped(free))))
        lu, solve = st.factor(c1, -coeffs.a * free.ravel() * pw)
        lu_nnz = max(lu_nnz, lu.nnz)
        dw = -solve(F).reshape(w.shape)
        norm = float(np.max(np.abs(dw)))
        history.append(relative(norm, w))
        t = 1.0
        while True:
            trial = w + t * dw
            state, d, size = correct(trial)
            if size <= (1.0 - _QUARTER * t) * norm:
                break
            if t <= _MIN_STEP:
                raise KeldyshDivergenceError(
                    f"Newton step {len(history)} fails the monotonicity test down to "
                    f"t = {t:.3g} (relative step {history[-1]:.3e})")
            t *= 0.5
        w, (F, c1, free, pw) = trial, state
        factors.append(t)
        chords.append(0)
        # the simplified correction d made with this LU ends the run once it
        # is at most tol; while it is at most a quarter of the step before
        # it, it is tried as a chord step, kept when its own correction is
        # at most a quarter of it
        while (rel := relative(size, w)) > opts.tol and size <= _QUARTER * norm:
            trial = w + d
            state, chord, chord_size = correct(trial)
            if chord_size > _QUARTER * size:
                break
            w, (F, c1, free, pw) = trial, state
            d, norm, size = chord, size, chord_size
            chords[-1] += 1
        if rel <= opts.tol:
            break
        del lu, solve  # free this factorization before the next one is made
    else:
        raise KeldyshConvergenceError(
            f"no convergence in {opts.max_iter} Newton steps (last step {history[-1]:.3e})")
    w = w + d
    F, c1, free, _ = st.evaluate(w)

    resid = float(np.max(np.abs(F))) / max(1.0, float(np.max(np.abs(st.rhs))))
    clamped = _clamped(free)
    clamped_per_step.append(int(np.count_nonzero(clamped)))
    clamp_final = bool(np.any(clamped))
    columns = np.nonzero(clamped.any(axis=1))[0] + 2
    meta = {
        "iterations": len(history),
        "factorizations": len(history) + 1,
        "lu_nnz": int(lu_nnz),
        "update_history": history,
        "step_factors": factors,
        "chord_steps": chords,
        "final_update": rel,
        "clamped_per_step": clamped_per_step,
        "residual": resid,
        "clamp_active": clamp_final,
        "clamp_count": clamped_per_step[-1],
        "clamp_columns": [int(columns[0]), int(columns[-1])] if columns.size else None,
        "reliable": not clamp_final,
        "nx": opts.nx, "ny": opts.ny, "grading": opts.grading,
        "a": coeffs.a, "b": coeffs.b,
    }
    return Field2D(x=grid.X.copy(), y=grid.Y.copy(), values=w, metadata=meta)


# ---------------------------------------------------------------------------
# derivative evaluation and diagnostics
# ---------------------------------------------------------------------------

def structured_derivatives(fld: Field2D):
    """(psi_x, psi_xx) at nodes of a structured grid, metric-free.

    Works from the stored coordinate arrays alone via the numerically
    inverted Jacobian, so it is independent of the solver's internal metric
    terms.  Nodes where the mapping degenerates (x = 0 column) get NaN.
    """
    x, y, w = fld.x, fld.y, fld.values
    x_s, x_e = np.gradient(x)
    y_s, y_e = np.gradient(y)
    det = x_s * y_e - x_e * y_s
    bad = np.abs(det) < 1e-300
    det = np.where(bad, 1.0, det)

    def d_dx(arr):
        a_s, a_e = np.gradient(arr)
        return (a_s * y_e - a_e * y_s) / det

    psi_x = d_dx(w)
    psi_xx = d_dx(psi_x)
    for arr in (psi_x, psi_xx):
        arr[bad] = np.nan
    return psi_x, psi_xx


def _interp_field(fld: Field2D, arr: np.ndarray, x, y) -> np.ndarray:
    """Bilinear interpolation of a node array at the physical points (x, y),
    two arrays broadcast together.  Each point's y is located separately on
    the two x-lines of its cell, since a mapped grid's lines differ in y."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xcol = fld.x[:, 0]
    j = np.clip(np.searchsorted(xcol, x) - 1, 1, len(xcol) - 2)
    tx = np.clip((x - xcol[j]) / (xcol[j + 1] - xcol[j]), 0.0, 1.0)

    def col_val(jj):
        ycol = fld.y[jj]  # each point's x-line, along the last axis
        i = np.clip(np.sum(ycol < y[..., None], axis=-1) - 1, 0, ycol.shape[-1] - 2)
        ty = np.clip((y - fld.y[jj, i]) / (fld.y[jj, i + 1] - fld.y[jj, i]), 0.0, 1.0)
        return (1 - ty) * arr[jj, i] + ty * arr[jj, i + 1]

    return (1 - tx) * col_val(j) + tx * col_val(j + 1)


def _scan_abscissas(xcol) -> np.ndarray:
    """The scan's x_k = eps0 * 2**-k, k >= 1, down to the third node of the
    x column (eps0 is its last node).

    The grid alone fixes them, so a run can be rejected before it solves.
    Raises InsufficientGradingError when fewer than three are resolvable.
    """
    if len(xcol) < 3:
        raise InsufficientGradingError(f"x column has {len(xcol)} nodes; need at least 3")
    eps0 = float(xcol[-1])
    k = 1
    while eps0 * 2.0 ** (-k) >= xcol[2]:
        k += 1
    if k - 1 < 3:
        raise InsufficientGradingError(
            f"only {k - 1} trace abscissas resolvable; refine the grid or grading")
    return eps0 * 2.0 ** (-np.arange(1, k, dtype=float))


def _psi_xx_traces(fld: Field2D, first: int, paths):
    """(x, table, limits): psi_xx along the paths into x = 0, one row and
    one limit per path, at the scan's abscissas from index `first` on;
    paths(x) gives the heights.  Each row reaches aitken_limit reversed, so
    it extrapolates from the largest abscissa, x = eps0/2, away from x = 0.
    """
    x = _scan_abscissas(fld.x[:, 0])[first:]
    _, psi_xx = structured_derivatives(fld)
    table = _interp_field(fld, psi_xx, x, paths(x))
    return x, table, aitken_limit(table[:, ::-1], 0.99, table[:, 0])


@dataclass(frozen=True)
class ScanReport:
    """psi_xx traces on x_k = eps0*2**-k at fixed heights, with limits."""

    y_values: np.ndarray
    corner_contaminated: np.ndarray  # bool per y
    x_k: np.ndarray
    table: np.ndarray  # (len(y), len(x_k))
    limits: np.ndarray


def sonic_derivative_scan(fld: Field2D, y_values) -> ScanReport:
    """Trace psi_xx toward the degenerate boundary and extrapolate the limit.

    Heights within one top cell of f(0) are flagged corner-contaminated and
    excluded from pass/fail use.  Raises InsufficientGradingError when fewer
    than three abscissas are resolvable on the grid.
    """
    y_values = np.asarray(y_values, dtype=float)
    x_k, table, limits = _psi_xx_traces(fld, 0, lambda x: y_values[:, None])
    f0 = float(fld.y[0, -1])
    contaminated = y_values > f0 - f0 / (fld.shape[1] - 1)
    return ScanReport(y_values=y_values, corner_contaminated=contaminated,
                      x_k=x_k, table=table, limits=limits)


@dataclass(frozen=True)
class CornerProbe:
    """psi_xx limits along two paths into the corner (0, f(0))."""

    x_m: np.ndarray
    tangential: np.ndarray  # along y = f(0) - c x
    hugging: np.ndarray  # along y = f(x) - c x**2
    limit_tangential: float
    limit_hugging: float

    @property
    def gap(self) -> float:
        return abs(self.limit_tangential - self.limit_hugging)


def corner_probe(fld: Field2D, c: float = 1.0) -> CornerProbe:
    """Evaluate psi_xx along an interior-tangential path and a top-hugging path.

    The two-sequence corner behaviour shows up as a gap between the limits:
    the tangential path escapes the top boundary layer while the hugging path
    stays inside it.  The path constants are a probing choice; the result is
    qualitative.  The paths sample the scan's abscissas from k = 2 on, so
    the same InsufficientGradingError rejects a grid too coarse for them.
    """
    f0 = float(fld.y[0, -1])

    def paths(x):
        fx = np.interp(x, fld.x[:, 0], fld.y[:, -1])
        return np.maximum(np.stack([f0 - c * x, fx - c * x * x]), 0.0)

    x_m, (tang, hug), limits = _psi_xx_traces(fld, 1, paths)
    return CornerProbe(x_m=x_m, tangential=tang, hugging=hug,
                       limit_tangential=float(limits[0]), limit_hugging=float(limits[1]))


@dataclass(frozen=True)
class BoundChecks:
    """Measured growth/slope constants and whether each bound holds."""

    psi_nonneg: bool
    psi_min: float
    quadratic_L: float
    quadratic_holds: bool
    mu: float
    delta: float
    slope_upper_holds: bool
    grid_tol: float


def reference_scenario(eps0: float = 0.5, a: float = 4.0, b: float = 1.0,
                     o_scale: float = 0.05):
    """Reference degenerate-interface scenario: (domain, coeffs, bc).

    A wedge-shaped domain with f(x) = 1 + x, the printed homogeneous oblique
    top condition with beta2 > beta1 * f' (which keeps the top trace
    nonnegative), positive tapered Dirichlet data on the right edge, and
    small perturbation terms within their bounds.  The solved field shows
    the interior trace psi_xx(0+, y) ~ 1/a and a corner path-limit gap.
    """
    dom = KeldyshDomain(eps0=eps0, f=lambda x: 1.0 + x,
                        fp=lambda x: 1.0, fpp=lambda x: 0.0, omega=1.0)
    coeffs = KeldyshCoefficients(
        a=a, b=b,
        O1=lambda x, y: o_scale * x * x * math.cos(y),
        O2=lambda x, y: 0.6 * o_scale * x * math.sin(y),
        O3=lambda x, y: 0.8 * o_scale * x * math.cos(2.0 * y),
        O4=lambda x, y: 0.4 * o_scale * x,
        O5=lambda x, y: 0.6 * o_scale * x,
        N=max(3.0 * o_scale, 0.2),
        beta1=lambda x, y: 1.0,
        beta2=lambda x, y: 1.5,
        lam=0.5)
    f_eps = 1.0 + eps0
    bc = KeldyshBC(top_mode="oblique", top_data=lambda x: 0.0,
                   right_data=lambda y: eps0 ** 2 / (2.0 * a) * (1.0 - 0.5 * (y / f_eps) ** 2))
    return dom, coeffs, bc


def manufactured_scenario(eps0: float = 0.5, a: float = 4.0, b: float = 1.0):
    """Manufactured scenario with exact solution psi = x**2/(2a): (domain, coeffs, bc).

    The reference domain f(x) = 1 + x, no perturbation terms, and Dirichlet
    data from the exact solution on the top and right edges.
    """
    dom = KeldyshDomain(eps0=eps0, f=lambda x: 1.0 + x, fp=lambda x: 1.0,
                        fpp=lambda x: 0.0, omega=1.0)
    exact = lambda x: x * x / (2.0 * a)
    bc = KeldyshBC(top_mode="dirichlet", top_data=exact, right_data=lambda y: exact(eps0))
    return dom, KeldyshCoefficients(a=a, b=b), bc


def verify_bounds(fld: Field2D, coeffs: KeldyshCoefficients) -> BoundChecks:
    """Measure 0 <= psi <= L x**2 and -mu <= psi_x/x <= (2-delta)/a.

    The sign check uses every node; the ratio measurements skip the first
    three graded columns, where the discrete ratios psi/x**2 and psi_x/x
    carry O(1) relative noise.
    """
    psi = fld.values
    x = fld.x
    grid_tol = 1e-9 * max(1.0, float(np.max(np.abs(psi))))
    psi_min = float(np.min(psi))
    psi_x, _ = structured_derivatives(fld)
    pos = x >= x[3, 0] if fld.shape[0] > 4 else x > 0
    ratio_q = psi[pos] / x[pos] ** 2
    L = float(np.max(ratio_q))
    slope = psi_x[pos] / x[pos]
    slope = slope[np.isfinite(slope)]
    mu = max(0.0, -float(np.min(slope)))
    delta = 2.0 - coeffs.a * float(np.max(slope))
    return BoundChecks(psi_nonneg=psi_min >= -grid_tol, psi_min=psi_min,
                       quadratic_L=L, quadratic_holds=bool(np.isfinite(L)),
                       mu=mu, delta=delta, slope_upper_holds=delta > 0.0,
                       grid_tol=grid_tol)
