"""Linear solver for the normalized mixed-type channel operator.

The operator

    L w = alpha11(x1) d11 w + d22 w + beta1(x1) d1 w

built on a transonic background profile is elliptic upstream of the sonic
location, hyperbolic downstream, and degenerates on the sonic line: a
Keldysh-type change of type, but from elliptic to hyperbolic.  The
first-order term is differenced backward (downstream-biased), which both
stabilizes the hyperbolic region, where x1 acts like time, and adds
ellipticity upstream; no outlet condition is imposed when the exit is supersonic.

beta1 < 0 on accelerating profiles, which is exactly the sign the upwind
bias needs; on decelerating coefficients (the sign condition fails) the
solve still runs but is flagged, and its output is exploratory.

The coefficients depend on x1 alone, so the discrete operator is a tensor
sum (LeVeque, Finite Difference Methods for ODEs and PDEs, SIAM 2007, ch. 3):
P (x) D22 + C (x) I, with D22 the wall-mirrored x2 second difference, C the
n1 x n1 matrix of each column's alpha11 d11 and beta1 d1 weights plus the
entrance and outlet rows, and P the diagonal that selects the columns
carrying the PDE.  A DCT-I diagonalizes D22, so the solve is one banded
x1 system per x2 mode (Lynch, Rice & Thomas, Numer. Math. 6, 1964), for
either exit.  The d1 inlet's pinned corner node, the one row outside the
tensor form, is restored by a capacitance correction.  No n1*n2 matrix is
built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.linalg.lapack import dgbsv
from scipy.sparse import coo_matrix

from .field2d import Field2D, sample
from .profile1d import Profile1D, kz_check, kz_coefficients

SONIC_NODE_TOL = 1e-12

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
SONIC = "sonic"


@dataclass(frozen=True)
class ChannelDomain:
    """Channel 0 < x1 < L, |x2| < 1 with its grid resolution."""

    L: float
    n1: int = 129
    n2: int = 65

    def __post_init__(self):
        if not self.L > 0.0:
            raise ValueError(f"L must be > 0, got {self.L}")
        if self.n1 < 5 or self.n2 < 5:
            raise ValueError("need at least 5 nodes per direction")

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n1)

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n2)


@dataclass(frozen=True)
class MixedOperatorSpec:
    """Coefficient samples of the operator on a channel grid."""

    domain: ChannelDomain
    x1: np.ndarray
    alpha11: np.ndarray
    beta1: np.ndarray
    l_s: float | None
    node_type: tuple
    kz_holds: bool

    @property
    def sonic_columns(self) -> tuple:
        return tuple(j for j, t in enumerate(self.node_type) if t == SONIC)

    @property
    def exit_supersonic(self) -> bool:
        return self.node_type[-1] == HYPERBOLIC


def build_operator(profile: Profile1D, domain: ChannelDomain) -> MixedOperatorSpec:
    """Sample alpha11/beta1 from a background profile on the channel grid.

    A node within SONIC_NODE_TOL * max(1, L) of l_s is sonic, and its alpha11
    is set to 0; the others are elliptic where alpha11 > 0, else hyperbolic.
    """
    if profile.x1[-1] < domain.L - 1e-12:
        raise ValueError(f"profile spans x1 <= {profile.x1[-1]:.6g}, "
                         f"shorter than the channel length {domain.L}")
    x1 = domain.x1
    alpha, beta = kz_coefficients(profile, x1)
    l_s = profile.l_s
    sonic = np.zeros(x1.shape, dtype=bool) if l_s is None else \
        np.abs(x1 - l_s) <= SONIC_NODE_TOL * max(1.0, domain.L)
    alpha = np.where(sonic, 0.0, alpha)
    types = np.where(sonic, SONIC, np.where(alpha > 0.0, ELLIPTIC, HYPERBOLIC))
    holds = kz_check(profile).holds
    return MixedOperatorSpec(domain=domain, x1=x1, alpha11=alpha,
                             beta1=np.asarray(beta, dtype=float), l_s=l_s,
                             node_type=tuple(types.tolist()), kz_holds=holds)


@dataclass(frozen=True)
class BoundaryData2D:
    """Inlet data on the entrance, homogeneous Neumann walls, optional outlet.

    inlet_mode selects how the entrance data is applied:
      dirichlet -- w(0, x2) = data(x2)
      d1        -- d1 w(0, x2) = data(x2); the constant mode is pinned by an
                   anchor value at the bottom inlet corner
      d2        -- d2 w(0, x2) = data(x2), integrated along the entrance into
                   Dirichlet values starting from the anchor value
    Walls carry d2 w = 0.  An outlet Dirichlet callable is required for
    subsonic-exit (elliptic-only) runs and must be omitted otherwise.
    """

    inlet_mode: str = "dirichlet"
    inlet_data: object = lambda x2: 0.0
    outlet_data: object | None = None
    anchor: float = 0.0

    def __post_init__(self):
        if self.inlet_mode not in ("dirichlet", "d1", "d2"):
            raise ValueError(f"inlet_mode must be dirichlet/d1/d2, got {self.inlet_mode!r}")

    def validate_compatibility(self, x2: np.ndarray, g: np.ndarray) -> None:
        """Odd x2-derivatives of the inlet data g, sampled on x2, must vanish
        at the walls.

        A sampled check: the one-sided wall slope must be at most 0.1 times
        the interior slope scale (gross violations are caught; finite-
        difference truncation on smooth compatible data is not).
        """
        h = x2[1] - x2[0]
        scale = max(float(np.max(np.abs(g))), 1e-300)
        if self.inlet_mode == "d2":
            if abs(g[0]) > 1e-8 * scale or abs(g[-1]) > 1e-8 * scale:
                raise ValueError("d2-mode inlet data must vanish at the walls")
            return
        d_lo = abs(-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)
        d_hi = abs(3 * g[-1] - 4 * g[-2] + g[-3]) / (2 * h)
        slope_scale = max(float(np.max(np.abs(np.diff(g)))) / h, scale)
        if max(d_lo, d_hi) > 0.1 * slope_scale + 1e-12:
            raise ValueError("inlet data has nonvanishing odd derivative at the walls")


def _sampled(fn, x2: np.ndarray, what: str) -> np.ndarray:
    """fn at each x2 node; ValueError naming `what` on a non-finite sample."""
    g = sample(fn, x2)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"{what} is not finite at x2 = {x2[bad[0]]:.6g}")
    return g


def _inlet_values(bc: BoundaryData2D, x2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right-hand side of the entrance rows from the inlet samples g: w for
    dirichlet/d2, d1 w for d1."""
    if bc.inlet_mode != "d2":
        return g
    # d2: cumulative trapezoid from the bottom wall, anchored there
    vals = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(x2))])
    return bc.anchor + vals


def _x1_matrix(n1, coef, scale, stencils):
    """n1 x n1 matrix with coef[j] * weight / scale at (j, j + offset), for
    each (columns j, offsets, weights) stencil."""
    rows, cols, vals = zip(*[(js, js + o, wt * coef[js] / scale)
                             for js, offsets, weights in stencils
                             for o, wt in zip(offsets, weights)])
    return coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n1, n1))


def _assemble(spec: MixedOperatorSpec, f, bc: BoundaryData2D):
    """The 1D factors (c, pde, rhs) of the system of solve_linear: row (j, i)
    is pde[j] (D22 w[j])[i] + (c @ w)[j, i] = rhs[j, i] (see _apply).

    c = A11 + B1 (n1 x n1, CSR) with the whole entrance row (identity, or the
    one-sided d1 stencil) and, at a subsonic exit, the outlet identity row;
    pde is the 0/1 mask of PDE columns and rhs is (n1, n2).  Raises
    ValueError on inconsistent boundary data, a source of the wrong shape, or
    a non-finite value in the source on a PDE column or in the sampled inlet
    or outlet data.
    """
    dom = spec.domain
    n1, n2 = dom.n1, dom.n2
    x1, x2 = dom.x1, dom.x2
    h1 = x1[1] - x1[0]

    exit_supersonic = spec.exit_supersonic
    if not exit_supersonic and bc.outlet_data is None:
        raise ValueError("subsonic exit: Dirichlet outlet data is required")
    if exit_supersonic and bc.outlet_data is not None:
        raise ValueError("supersonic exit takes no outlet condition")

    g = _sampled(bc.inlet_data, x2, "inlet data")
    bc.validate_compatibility(x2, g)

    if callable(f):
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        F = np.asarray(f(X1, X2), dtype=float)
    elif f is None:
        F = np.zeros((n1, n2))
    else:
        F = np.asarray(f, dtype=float)
        if F.shape != (n1, n2):
            raise ValueError(f"source shape {F.shape} != grid {(n1, n2)}")
    outlet = None if exit_supersonic else _sampled(bc.outlet_data, x2, "outlet data")

    j_pde = np.arange(1, n1 if exit_supersonic else n1 - 1)
    # only the PDE columns' source is read (a slice, not a copy of F[j_pde]);
    # the boundary rows take the data
    if not np.all(np.isfinite(F[1:j_pde[-1] + 1])):
        raise ValueError("source contains non-finite values")
    pde = np.zeros(n1)
    pde[j_pde] = 1.0
    # alpha11 * d11: dropped on a sonic column.  Fully one-sided in the
    # hyperbolic region: a centered second difference there admits a growing
    # sawtooth mode whenever |alpha11| < (h1/h2)^2 + |beta1| h1/2 (always true
    # near the sonic line), while the backward 4-point stencil stays
    # von-Neumann stable for alpha11 < 0 with the downstream-biased
    # first-order term and keeps second-order consistency.
    kind = np.array(spec.node_type)[j_pde]
    back = (kind == HYPERBOLIC) & (j_pde >= 2)
    a11 = _x1_matrix(n1, spec.alpha11, h1 ** 2, (
        (j_pde[(kind != SONIC) & ~back], (-1, 0, 1), (1.0, -2.0, 1.0)),
        (j_pde[back & (j_pde == 2)], (0, -1, -2), (1.0, -2.0, 1.0)),
        (j_pde[back & (j_pde >= 3)], (0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0))))
    # beta1 * d1, backward (3-point second-order; 2-point at j = 1)
    b1 = _x1_matrix(n1, spec.beta1, h1, (
        (j_pde[j_pde >= 2], (0, -1, -2), (1.5, -2.0, 0.5)),
        (j_pde[j_pde == 1], (0, -1), (1.0, -1.0))))
    # entrance row: Dirichlet, or the second-order one-sided d1; a subsonic
    # exit adds a Dirichlet row on the column past the PDE ones
    d1 = ((0, 1, 2), (-1.5 / h1, 2.0 / h1, -0.5 / h1))
    ends = _x1_matrix(n1, np.ones(n1), 1.0, (
        (np.array([0]),) + (d1 if bc.inlet_mode == "d1" else ((0,), (1.0,))),
        (np.arange(j_pde[-1] + 1, n1), (0,), (1.0,))))

    rhs = np.zeros((n1, n2))
    rhs[j_pde] = F[j_pde]
    rhs[0] = _inlet_values(bc, x2, g)
    if bc.inlet_mode == "d1":
        rhs[0, 0] = bc.anchor
    if not exit_supersonic:
        rhs[-1] = outlet
    return (a11 + b1 + ends).tocsr(), pde, rhs


def _apply(c, pde, h2, w, pinned):
    """The operator of _assemble applied to an (n1, n2) field w, matrix-free;
    pinned (the d1 inlet) makes row (0, 0) read w[0, 0]."""
    wp = np.pad(w, ((0, 0), (1, 1)), mode="reflect")  # mirrored wall ghosts
    out = pde[:, None] * ((wp[:, :-2] - 2.0 * w + wp[:, 2:]) / h2 ** 2) + c @ w
    if pinned:
        out[0, 0] = w[0, 0]
    return out


def _solve_modes(c, pde, lam, r, pinned):
    """Mode k's banded x1 system (lam[k] P + C) u_k = r[:, k], for every k:
    one LAPACK dgbsv each, on C's band built once.  pinned (the d1 inlet)
    makes mode 0's entrance row read u[0] = 0 and adds a second right-hand
    side, a unit entrance forcing, whose responses z feed the capacitance
    step; z is None otherwise.  Raises RuntimeError on a singular mode.
    """
    n1, n2 = r.shape
    # dgbsv's layout: C[i, j] at row 5 + i - j, rows 0-2 left for pivot fill
    band = np.zeros((9, n1), order="F")
    for off in range(-3, 3):
        band[5 - off, max(off, 0):n1 + min(off, 0)] = c.diagonal(off)
    u = np.empty((n1, n2))
    z = np.empty((n1, n2)) if pinned else None
    for k in range(n2):
        ab = band.copy(order="F")
        ab[5] += lam[k] * pde
        b = np.zeros((n1, 2 if pinned else 1), order="F")
        b[:, 0] = r[:, k]
        if pinned:
            b[0, 1] = 1.0
            if k == 0:  # row 0 becomes u[0] = b[0]: C[0, j] sits at ab[5 - j, j]
                ab[[5, 4, 3], [0, 1, 2]] = 1.0, 0.0, 0.0
                b[0, 0] = 0.0
        _, _, x, info = dgbsv(3, 2, ab, b, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise RuntimeError(f"singular system: mode {k}: zero pivot in row {info - 1}")
        if info < 0:
            raise RuntimeError(f"mode {k}: dgbsv rejected argument {-info}")
        u[:, k] = x[:, 0]
        if pinned:
            z[:, k] = x[:, 1]
    return u, z


def solve_linear(spec: MixedOperatorSpec, f, bc: BoundaryData2D) -> Field2D:
    """Solve L w = f on the channel: a cosine transform in x2, then one
    banded x1 solve per mode.

    Centered second differences carry alpha11*d11 and d22; beta1*d1 is
    differenced backward.  A column within SONIC_NODE_TOL of the sonic
    location drops its d11 term (the coefficient is exactly zero there).
    At a supersonic exit the last column uses one-sided second differences
    instead of an outlet condition; a subsonic exit requires Dirichlet
    outlet data.

    D22 = V Lambda V^-1 with V[i, k] = cos(pi k i / m), m = n2 - 1, and
    lambda_k = -(4 / h2^2) sin^2(pi k / (2 m)); V and V^-1 are DCT-Is with
    end weights e = (2, 1, ..., 1, 2).  Mode k solves the banded
    (lambda_k P + C) u_k = r_k.  A d1 inlet's pin w[0, 0] = anchor is the one
    row outside this form; it gets a capacitance correction (Buzbee, Dorr,
    George & Golub, SINUM 8, 1971).  Raises on a singular system or unmet
    residual, which is checked matrix-free.
    """
    dom = spec.domain
    n1, n2 = dom.n1, dom.n2
    h2 = dom.x2[1] - dom.x2[0]

    if not spec.kz_holds:
        warnings.warn("sign condition fails on the background profile; "
                      "solve proceeds flagged as exploratory", stacklevel=2)

    c, pde, rhs = _assemble(spec, f, bc)
    pinned = bc.inlet_mode == "d1"
    m = n2 - 1
    e = np.ones(n2)
    e[[0, -1]] = 2.0
    lam = -(2.0 / h2) ** 2 * np.sin(0.5 * np.pi * np.arange(n2) / m) ** 2
    r = dct(rhs, type=1, axis=1) / (m * e)
    u, z = _solve_modes(c, pde, lam, r, pinned)
    if pinned:
        # mode 0's entrance value t and the d1 value s that row (0, 0) of the
        # tensor form would need, fixed by mode 0's d1 row and w[0, 0] = anchor
        row0 = c[0].toarray().ravel()
        g = z[0, 1:] / (m * e[1:])
        t, s = np.linalg.solve([[row0 @ z[:, 0], -1.0 / (m * e[0])], [1.0, g.sum()]],
                               [r[0, 0] - row0 @ u[:, 0], bc.anchor - u[0, 1:].sum()])
        u[:, 0] += t * z[:, 0]
        u[:, 1:] += s * z[:, 1:] / (m * e[1:])
    W = dct(e * u, type=1, axis=1) / 2.0

    resid = float(np.max(np.abs(_apply(c, pde, h2, W, pinned) - rhs)))
    resid /= max(1.0, float(np.max(np.abs(rhs))))
    if not resid <= 1e-8:  # a NaN residual fails too
        raise RuntimeError(f"linear residual {resid:.3e} exceeds tolerance")
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    meta = {"residual": resid, "kz_holds": spec.kz_holds,
            "exit_supersonic": spec.exit_supersonic, "l_s": spec.l_s,
            "n1": n1, "n2": n2}
    return Field2D(x=X1, y=X2, values=W, metadata=meta)


@dataclass(frozen=True)
class JumpReport:
    """One-sided mismatches across the sonic line, normalized per quantity."""

    l_s: float
    w_jump: float
    dw_jump: float
    d2w_jump: float


def _sonic_side_columns(spec: MixedOperatorSpec):
    """The three columns on each side of x1 = l_s that sonic_smoothness_diag
    extrapolates from.  They depend on the grid alone, so a run can be
    rejected before it solves; raises ValueError when they do not exist."""
    if spec.l_s is None:
        raise ValueError("operator spec has no sonic location")
    x1 = spec.x1
    tol = SONIC_NODE_TOL * max(1.0, x1[-1])
    left = np.flatnonzero(x1 < spec.l_s - tol)
    right = np.flatnonzero(x1 > spec.l_s + tol)
    if len(left) < 3 or len(right) < 3:
        raise ValueError("sonic line too close to the channel ends for the diagnostic")
    return left[-3:], right[:3]


def sonic_smoothness_diag(fld: Field2D, spec: MixedOperatorSpec) -> JumpReport:
    """One-sided extrapolation mismatch of w, d1 w, d11 w across x1 = l_s.

    Quadratic extrapolation from three columns on each side of the sonic
    line; each mismatch is normalized by the global magnitude of the same
    quantity.  Smooth data should show mismatches at discretization-error
    level; this is the numerical shadow of the solution staying classical
    across the degenerate interface.
    """
    jl, jr = _sonic_side_columns(spec)
    x1 = spec.x1
    w = fld.values
    ls = spec.l_s

    def extrap(js):
        # Lagrange quadratic through the three columns and its first two
        # derivatives at ls, rows (w, d1 w, d11 w): each node's value, slope
        # and curvature weights together
        xs = x1[js]
        out = np.zeros((3, w.shape[1]))
        for k in range(3):
            xa, xb = np.delete(xs, k)
            weights = np.array([(ls - xa) * (ls - xb), 2 * ls - xa - xb, 2.0])
            out += weights[:, None] / ((xs[k] - xa) * (xs[k] - xb)) * w[js[k]]
        return out

    dw_all = np.gradient(w, x1, axis=0)
    d2w_all = np.gradient(dw_all, x1, axis=0)
    jumps = [float(np.max(np.abs(left - right) / max(float(np.max(np.abs(q))), 1e-300)))
             for left, right, q in zip(extrap(jl), extrap(jr), (w, dw_all, d2w_all))]
    return JumpReport(ls, *jumps)
