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
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .field2d import Field2D


class KeldyshDivergenceError(RuntimeError):
    """A Newton step failed the natural monotonicity test at every step factor."""


class KeldyshConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the update tolerance."""


class InsufficientGradingError(ValueError):
    """The grid does not resolve the requested near-degeneracy abscissas."""


def _fd_derivative(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class KeldyshDomain:
    """Domain {0 < x < eps0, 0 < y < f(x)} with an increasing top boundary f."""

    eps0: float
    f: object  # callable x -> f(x)
    fp: object | None = None  # derivative; finite differences if omitted
    fpp: object | None = None
    omega: float = 0.0

    def __post_init__(self):
        if not self.eps0 > 0.0:
            raise ValueError(f"eps0 must be > 0, got {self.eps0}")
        xs = np.linspace(0.0, self.eps0, 41)
        fv = np.array([float(self.f(x)) for x in xs])
        if fv[0] <= 0.0:
            raise ValueError(f"f(0) must be > 0, got {fv[0]}")
        dv = np.array([self.f_derivative(x) for x in xs])
        if np.any(dv < max(self.omega, 0.0) - 1e-12):
            raise ValueError("df/dx must be >= omega > 0 on [0, eps0]")
        if self.omega <= 0.0 and np.any(dv <= 0.0):
            raise ValueError("df/dx must be positive on [0, eps0]")
        d2 = np.diff(dv) / np.diff(xs)
        if not np.all(np.isfinite(d2)):
            raise ValueError("f must have bounded second differences")

    def f_derivative(self, x: float) -> float:
        if self.fp is not None:
            return float(self.fp(x))
        h = 1e-6 * self.eps0
        x = min(max(x, h), self.eps0 - h)
        return float(_fd_derivative(self.f, x, h))

    def f_second(self, x: float) -> float:
        if self.fpp is not None:
            return float(self.fpp(x))
        h = 1e-4 * self.eps0
        x = min(max(x, h), self.eps0 - h)
        return (float(self.f(x + h)) - 2.0 * float(self.f(x)) + float(self.f(x - h))) / h ** 2


def _zero(x, y):
    return 0.0


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
    beta1: object = None
    beta2: object = None
    lam: float = 1.0

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if not self.b > 0.0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.beta1 is None:
            object.__setattr__(self, "beta1", lambda x, y: 1.0)
        if self.beta2 is None:
            object.__setattr__(self, "beta2", lambda x, y: 0.0)

    def validate_bounds(self, domain: KeldyshDomain, nx: int = 25, ny: int = 9) -> None:
        """Sample the perturbation and obliqueness bounds; raise on violation."""
        xs = np.linspace(domain.eps0 / nx, domain.eps0, nx)
        tol = 1e-9
        for x in xs:
            fx = float(domain.f(x))
            for y in np.linspace(0.0, fx, ny):
                if abs(self.O1(x, y)) > self.N * x * x + tol:
                    raise ValueError(f"|O1({x:.3g},{y:.3g})| exceeds N*x^2")
                for name, O in (("O2", self.O2), ("O3", self.O3),
                                ("O4", self.O4), ("O5", self.O5)):
                    if abs(O(x, y)) > self.N * x + tol:
                        raise ValueError(f"|{name}({x:.3g},{y:.3g})| exceeds N*x")
                h = 1e-5 * domain.eps0
                d1 = math.hypot((self.O1(x + h, y) - self.O1(x - h, y)) / (2 * h),
                                (self.O1(x, y + h) - self.O1(x, y - h)) / (2 * h))
                if d1 > self.N * x + 1e-6:
                    raise ValueError("|DO1| exceeds N*x")
                for name, O in (("O2", self.O2), ("O3", self.O3),
                                ("O4", self.O4), ("O5", self.O5)):
                    dk = math.hypot((O(x + h, y) - O(x - h, y)) / (2 * h),
                                    (O(x, y + h) - O(x, y - h)) / (2 * h))
                    if dk > self.N + 1e-6:
                        raise ValueError(f"|D{name}| exceeds N")
            tx, ty = x, fx
            if self.beta1(tx, ty) < self.lam - tol:
                raise ValueError("beta1 < lambda on the top boundary")
            if abs(self.beta2(tx, ty)) > 1.0 / self.lam + tol:
                raise ValueError("|beta2| > 1/lambda on the top boundary")


@dataclass(frozen=True)
class KeldyshBC:
    """Boundary data closing the model problem.

    The printed conditions are psi = 0 on x = 0 and psi_y = 0 on y = 0; the
    top condition is the oblique one (optionally inhomogeneous) or a Dirichlet
    trace for manufactured runs.  The right edge x = eps0 is not covered by
    the printed conditions and is closed with Dirichlet data.
    """

    top_mode: str = "oblique"  # oblique | dirichlet
    top_data: object = None  # callable of x
    right_data: object = None  # callable of y

    def __post_init__(self):
        if self.top_mode not in ("oblique", "dirichlet"):
            raise ValueError(f"top_mode must be oblique/dirichlet, got {self.top_mode!r}")
        if self.top_data is None:
            object.__setattr__(self, "top_data", lambda x: 0.0)
        if self.right_data is None:
            object.__setattr__(self, "right_data", lambda y: 0.0)


@dataclass(frozen=True)
class KeldyshOptions:
    nx: int = 65
    ny: int = 65
    grading: float = 2.0
    max_iter: int = 120
    tol: float = 1e-11
    clamp: float = 1e-3

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# smallest step factor t the natural monotonicity test tries before it gives
# up; on the reference scenario at 97^2 near (a, o_scale, eps0) = (4.05, 0.055,
# 0.495) one step passes the test only at t ~ 2e-6, after which full steps
# converge
_MIN_STEP = 1e-8


class _Grid:
    """Mapped-grid metric arrays shared by assembly and evaluation."""

    def __init__(self, domain: KeldyshDomain, nx: int, ny: int, q: float):
        self.nx, self.ny, self.q = nx, ny, q
        self.hs = 1.0 / nx
        self.he = 1.0 / ny
        self.s = np.linspace(0.0, 1.0, nx + 1)
        self.eta = np.linspace(0.0, 1.0, ny + 1)
        eps = domain.eps0
        self.x = eps * self.s ** q
        self.fx = np.array([float(domain.f(x)) for x in self.x])
        self.fpx = np.array([domain.f_derivative(x) for x in self.x])
        self.fppx = np.array([domain.f_second(x) for x in self.x])
        gp = q * eps * np.where(self.s > 0, self.s, 1.0) ** (q - 1.0)
        gpp = q * (q - 1.0) * eps * np.where(self.s > 0, self.s, 1.0) ** (q - 2.0)
        self.A = np.where(self.s > 0, 1.0 / gp, 0.0)  # s=0 column is Dirichlet
        self.A_s = np.where(self.s > 0, -gpp / gp ** 2, 0.0)
        self.gp = gp
        self.X = np.tile(self.x[:, None], (1, ny + 1))
        self.Y = self.eta[None, :] * self.fx[:, None]
        # B = -eta f'/f and its derivatives, per node
        self.B = -self.eta[None, :] * (self.fpx / self.fx)[:, None]
        self.B_s = -self.eta[None, :] * (gp * (self.fppx * self.fx - self.fpx ** 2)
                                         / self.fx ** 2)[:, None]
        self.B_eta = -(self.fpx / self.fx)


def _psi_x_nodes(grid: _Grid, w: np.ndarray) -> np.ndarray:
    """psi_x on all nodes (centered; mirror at eta=0, one-sided at edges)."""
    nx, ny = grid.nx, grid.ny
    w_s = np.empty_like(w)
    w_s[1:-1, :] = (w[2:, :] - w[:-2, :]) / (2 * grid.hs)
    w_s[0, :] = (w[1, :] - w[0, :]) / grid.hs
    w_s[-1, :] = (w[-1, :] - w[-2, :]) / grid.hs
    w_e = np.empty_like(w)
    w_e[:, 1:-1] = (w[:, 2:] - w[:, :-2]) / (2 * grid.he)
    w_e[:, 0] = 0.0  # mirror symmetry
    w_e[:, -1] = (w[:, -1] - w[:, -2]) / grid.he
    return grid.A[:, None] * w_s + grid.B * w_e


def _sample(fn, X, Y):
    out = np.empty_like(X)
    flat = out.ravel()
    for k, (x, y) in enumerate(zip(X.ravel(), Y.ravel())):
        flat[k] = float(fn(x, y))
    return out


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
    their own node, so M(c1) = M0 + diag(c1) P; on those rows psi_x = D w.
    Entry k of the pattern (row rows[k], column given by indptr) holds
    m0[k], p[k] and d[k], so any combination of the three is a refill of
    values on the one pattern.
    """

    def __init__(self, grid, a, O1, clamp, rows, cols, m0, p, d, rhs):
        self.grid, self.a, self.O1, self.clamp = grid, a, O1, clamp
        n = rhs.size
        order = np.lexsort((rows, cols))
        self.rows = rows[order]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        self.m0, self.p, self.d = m0[order], p[order], d[order]
        self.rhs = rhs
        self.M0 = self._csc(self.m0)
        self.P = self._csc(self.p)

    def _csc(self, vals):
        n = self.rhs.size
        return csc_matrix((vals, self.rows, self.indptr), shape=(n, n))

    def matrix(self, c1, g=None):
        """M0 + diag(c1) P + diag(g) D, with c1 and g given per node."""
        vals = self.m0 + c1.ravel()[self.rows] * self.p
        if g is not None:
            vals += g.ravel()[self.rows] * self.d
        return self._csc(vals)

    def evaluate(self, w):
        """F(w), the clamped c1(w), the mask of unclamped nodes, and P w.

        c1 = max(2x - a psi_x + O1, clamp 2x) keeps the frozen problem
        elliptic for x > 0.
        """
        X = self.grid.X
        c1_raw = 2.0 * X - self.a * _psi_x_nodes(self.grid, w) + self.O1
        c1_floor = self.clamp * 2.0 * X
        c1 = np.maximum(c1_raw, c1_floor)
        pw = self.P @ w.ravel()
        return self.M0 @ w.ravel() + c1.ravel() * pw - self.rhs, c1, c1_raw >= c1_floor, pw


def _assemble(domain: KeldyshDomain, coeffs: KeldyshCoefficients,
              opts: KeldyshOptions, bc: KeldyshBC) -> _Stencil:
    """Sample the coefficients once and build the operator's fixed pattern."""
    grid = _Grid(domain, opts.nx, opts.ny, opts.grading)
    O1, O2, O3, O4, O5 = (_sample(getattr(coeffs, name), grid.X, grid.Y)
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

    rhs = np.zeros((nx + 1) * n_eta)
    # top boundary rows
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

    # Dirichlet columns: x = 0 and x = eps0
    i = np.arange(n_eta)
    put(node(0, i), node(0, i), 1.0)
    put(node(nx, i), node(nx, i), 1.0)
    rhs[node(nx, i)] = [float(bc.right_data(y)) for y in grid.Y[nx, :]]

    return _Stencil(grid, coeffs.a, O1, opts.clamp, np.concatenate(rows),
                    np.concatenate(cols), *(np.concatenate(v) for v in vals), rhs)


def solve_model(domain: KeldyshDomain, coeffs: KeldyshCoefficients,
                opts: KeldyshOptions | None = None,
                bc: KeldyshBC | None = None) -> Field2D:
    """Solve the discrete model equation by semismooth Newton iteration.

    The unknowns solve F(w) = M(c1(w)) w - rhs = 0, where the principal
    coefficient c1 = max(2x - a psi_x + O1, clamp*2x) is clamped below to
    keep the problem elliptic for x > 0.  The Jacobian

        J = M0 + diag(c1) P - a diag((P w) * unclamped) D

    is exact off the clamp's switching set and shares the 9-point pattern of
    M, so each step refills values and makes one sparse LU factorization.
    Steps are damped by Deuflhard's natural monotonicity test: the first of
    t = 1, 1/2, 1/4, ... (down to 1e-8) with |J^-1 F(w + t dw)| <= (1 - t/4) |dw|
    (max norms, reusing the step's LU) is taken.  Iteration stops when the
    relative step max|dw| / max(1, max|w|) is at most tol.

    Raises KeldyshDivergenceError when the test fails at the smallest step
    factor, KeldyshConvergenceError when the step budget runs out.  The
    returned metadata records the relative step history (one entry per
    factorization), the final residual, and whether the clamp is active at
    the final iterate (in which case the solution is flagged unreliable).
    """
    opts = opts or KeldyshOptions()
    bc = bc or KeldyshBC()
    st = _assemble(domain, coeffs, opts, bc)
    grid = st.grid
    w = np.zeros(grid.X.shape)
    F, c1, free, pw = st.evaluate(w)
    history = []
    for _ in range(opts.max_iter):
        lu = splu(st.matrix(c1, -coeffs.a * free.ravel() * pw))
        dw = -lu.solve(F).reshape(w.shape)
        norm = float(np.max(np.abs(dw)))
        history.append(norm / max(1.0, float(np.max(np.abs(w)))))
        if history[-1] <= opts.tol:
            w = w + dw
            F, c1, free, _ = st.evaluate(w)
            break
        t = 1.0
        while True:
            trial = w + t * dw
            state = st.evaluate(trial)
            if float(np.max(np.abs(lu.solve(state[0])))) <= (1.0 - t / 4.0) * norm:
                break
            if t <= _MIN_STEP:
                raise KeldyshDivergenceError(
                    f"Newton step {len(history)} fails the monotonicity test down to "
                    f"t = {t:.3g} (relative step {history[-1]:.3e})")
            t *= 0.5
        w = trial
        F, c1, free, pw = state
        del lu  # free this factorization before the next one is made
    else:
        raise KeldyshConvergenceError(
            f"no convergence in {opts.max_iter} Newton steps (last step {history[-1]:.3e})")

    resid = float(np.max(np.abs(F))) / max(1.0, float(np.max(np.abs(st.rhs))))
    # the first interior column routinely clamps (its discrete psi_x carries
    # O(1) relative noise on the graded mesh); only deeper activations mark
    # the solution unreliable
    clamp_final = bool(np.any(~free[2:grid.nx, :]))
    meta = {
        "iterations": len(history),
        "update_history": history,
        "residual": resid,
        "clamp_active": clamp_final,
        "reliable": not clamp_final,
        "nx": opts.nx, "ny": opts.ny, "grading": opts.grading,
        "a": coeffs.a, "b": coeffs.b,
    }
    return Field2D(x=grid.X.copy(), y=grid.Y.copy(), values=w, metadata=meta)


# ---------------------------------------------------------------------------
# derivative evaluation and diagnostics
# ---------------------------------------------------------------------------

def structured_derivatives(fld: Field2D):
    """(psi_x, psi_y, psi_xx) at nodes of a structured grid, metric-free.

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

    def d_dy(arr):
        a_s, a_e = np.gradient(arr)
        return (-a_s * x_e + a_e * x_s) / det

    psi_x = d_dx(w)
    psi_y = d_dy(w)
    psi_xx = d_dx(psi_x)
    for arr in (psi_x, psi_y, psi_xx):
        arr[bad] = np.nan
    return psi_x, psi_y, psi_xx


def _interp_field(fld: Field2D, arr: np.ndarray, x: float, y: float) -> float:
    """Bilinear interpolation of a node array at physical (x, y)."""
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


def _aitken(seq):
    """Accelerated limit of a geometric-ish sequence, with the estimates."""
    ests = []
    for m in range(2, len(seq)):
        d1 = seq[m - 1] - seq[m - 2]
        d2 = seq[m] - seq[m - 1]
        if d1 == 0.0 or abs(d2 / d1) >= 0.99:
            ests.append(seq[m])
        else:
            r = d2 / d1
            ests.append(seq[m] + d2 * r / (1.0 - r))
    return (ests[-1] if ests else seq[-1]), ests


def _scan_abscissas(xcol, k_min: int = 1, k_max: int | None = None) -> np.ndarray:
    """x_k = eps0 * 2**-k, k >= k_min, down to the third node of the x column.

    The grid alone fixes them, so a run can be rejected before it solves.
    Raises InsufficientGradingError when fewer than three are resolvable.
    """
    eps0 = float(xcol[-1])
    ks = []
    k = k_min
    while eps0 * 2.0 ** (-k) >= xcol[2] and (k_max is None or k <= k_max):
        ks.append(k)
        k += 1
    if len(ks) < 3:
        raise InsufficientGradingError(
            f"only {len(ks)} trace abscissas resolvable; refine the grid or grading")
    return eps0 * 2.0 ** (-np.asarray(ks, dtype=float))


@dataclass(frozen=True)
class ScanReport:
    """psi_xx traces on x_k = eps0*2**-k at fixed heights, with limits."""

    y_values: np.ndarray
    corner_contaminated: np.ndarray  # bool per y
    x_k: np.ndarray
    table: np.ndarray  # (len(y), len(x_k))
    limits: np.ndarray
    aitken_estimates: list


def sonic_derivative_scan(fld: Field2D, y_values, k_min: int = 1,
                          k_max: int | None = None) -> ScanReport:
    """Trace psi_xx toward the degenerate boundary and extrapolate the limit.

    Heights within one top cell of f(0) are flagged corner-contaminated and
    excluded from pass/fail use.  Raises InsufficientGradingError when fewer
    than three abscissas are resolvable on the grid.
    """
    x_k = _scan_abscissas(fld.x[:, 0], k_min, k_max)
    _, _, psi_xx = structured_derivatives(fld)
    f0 = float(fld.y[0, -1])
    top_cell = f0 / (fld.shape[1] - 1)
    y_values = np.asarray(y_values, dtype=float)
    contaminated = y_values > f0 - top_cell

    table = np.empty((len(y_values), len(x_k)))
    limits = np.empty(len(y_values))
    ests_all = []
    for iy, yv in enumerate(y_values):
        for jx, xv in enumerate(x_k):
            table[iy, jx] = _interp_field(fld, psi_xx, float(xv), float(yv))
        lim, ests = _aitken(list(table[iy, ::-1]))  # ascending toward x -> 0
        limits[iy] = lim
        ests_all.append(ests)
    return ScanReport(y_values=y_values, corner_contaminated=contaminated,
                      x_k=x_k, table=table, limits=limits, aitken_estimates=ests_all)


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
    qualitative.
    """
    _, _, psi_xx = structured_derivatives(fld)
    xcol = fld.x[:, 0]
    eps0 = float(xcol[-1])
    f0 = float(fld.y[0, -1])
    ftop = fld.y[:, -1]
    ks = []
    k = 2
    while eps0 * 2.0 ** (-k) >= xcol[2]:
        ks.append(k)
        k += 1
    x_m = eps0 * 2.0 ** (-np.asarray(ks, dtype=float))
    tang = np.empty(len(x_m))
    hug = np.empty(len(x_m))
    for m, xv in enumerate(x_m):
        y1 = f0 - c * xv
        tang[m] = _interp_field(fld, psi_xx, float(xv), float(max(y1, 0.0)))
        fx = float(np.interp(xv, xcol, ftop))
        y2 = fx - c * xv * xv
        hug[m] = _interp_field(fld, psi_xx, float(xv), float(max(y2, 0.0)))
    lim_t, _ = _aitken(list(tang[::-1]))
    lim_h, _ = _aitken(list(hug[::-1]))
    return CornerProbe(x_m=x_m, tangential=tang, hugging=hug,
                       limit_tangential=lim_t, limit_hugging=lim_h)


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
    psi_x, _, _ = structured_derivatives(fld)
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
