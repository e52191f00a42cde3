"""Linear solver for the normalized mixed-type channel operator.

The operator

    L w = alpha11(x1) d11 w + d22 w + beta1(x1) d1 w

built on a transonic background profile is elliptic upstream of the sonic
location, hyperbolic downstream, and degenerates on the sonic line: a
Keldysh-type change of type, but from elliptic to hyperbolic.  The
first-order term is differenced backward (downstream-biased), which both
stabilizes the implicit march in the hyperbolic region and adds ellipticity
upstream; no outlet condition is imposed when the exit is supersonic.

In the hyperbolic region x1 acts like time: from the first non-elliptic
column on, every row refers only to its own column and the ones upstream of
it.  So the solve factors only the coupled upstream block with one sparse
LU and marches the rest column by column, one tridiagonal solve in x2 per
column.  A subsonic exit couples the whole channel and gets one LU.

beta1 < 0 on accelerating profiles, which is exactly the sign the upwind
bias needs; on decelerating coefficients (the sign condition fails) the
solve still runs but is flagged, and its output is exploratory.

The coefficients depend on x1 alone, so the discrete operator is a Kronecker
sum of 1D difference matrices (LeVeque, Finite Difference Methods for ODEs
and PDEs, SIAM 2007, ch. 3): kron(P, D22) + kron(A11, I) + kron(B1, I), with
D22 the wall-mirrored x2 second difference, A11 and B1 the n1 x n1 matrices
of each column's alpha11 d11 and beta1 d1 weights, and P the diagonal that
selects the columns carrying the PDE.  Boundary rows are added whole.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solve_banded
from scipy.sparse import coo_matrix, diags, identity, kron, triu
from scipy.sparse.linalg import splu

from .field2d import Field2D
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
    """Sample alpha11/beta1 from a background profile on the channel grid."""
    if profile.x1[-1] < domain.L - 1e-12:
        raise ValueError(f"profile spans x1 <= {profile.x1[-1]:.6g}, "
                         f"shorter than the channel length {domain.L}")
    x1 = domain.x1
    alpha, beta = kz_coefficients(profile.params, profile, x1)
    l_s = profile.l_s
    tol = SONIC_NODE_TOL * max(1.0, domain.L)
    types = []
    alpha = np.array(alpha, dtype=float)
    for j, xv in enumerate(x1):
        if l_s is not None and abs(xv - l_s) <= tol:
            types.append(SONIC)
            alpha[j] = 0.0
        elif alpha[j] > 0.0:
            types.append(ELLIPTIC)
        else:
            types.append(HYPERBOLIC)
    holds = kz_check(profile.params, profile).holds
    return MixedOperatorSpec(domain=domain, x1=x1, alpha11=alpha,
                             beta1=np.asarray(beta, dtype=float), l_s=l_s,
                             node_type=tuple(types), kz_holds=holds)


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
    inlet_data: object = None
    outlet_data: object | None = None
    anchor: float = 0.0

    def __post_init__(self):
        if self.inlet_mode not in ("dirichlet", "d1", "d2"):
            raise ValueError(f"inlet_mode must be dirichlet/d1/d2, got {self.inlet_mode!r}")
        if self.inlet_data is None:
            object.__setattr__(self, "inlet_data", lambda x2: 0.0)

    def validate_compatibility(self, x2: np.ndarray, rel_tol: float = 0.1) -> None:
        """Odd x2-derivatives of the inlet data must vanish at the walls.

        A sampled check: the one-sided wall slope must be small relative to
        the interior slope scale (gross violations are caught; finite-
        difference truncation on smooth compatible data is not).
        """
        g = np.array([float(self.inlet_data(v)) for v in x2])
        h = x2[1] - x2[0]
        scale = max(float(np.max(np.abs(g))), 1e-300)
        if self.inlet_mode == "d2":
            if abs(g[0]) > 1e-8 * scale or abs(g[-1]) > 1e-8 * scale:
                raise ValueError("d2-mode inlet data must vanish at the walls")
            return
        d_lo = abs(-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)
        d_hi = abs(3 * g[-1] - 4 * g[-2] + g[-3]) / (2 * h)
        slope_scale = max(float(np.max(np.abs(np.diff(g)))) / h, scale)
        if max(d_lo, d_hi) > rel_tol * slope_scale + 1e-12:
            raise ValueError("inlet data has nonvanishing odd derivative at the walls")


def _inlet_values(bc: BoundaryData2D, x2: np.ndarray) -> np.ndarray:
    """Right-hand side of the entrance rows: w for dirichlet/d2, d1 w for d1."""
    g = np.array([float(bc.inlet_data(v)) for v in x2])
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
    """The discrete system of solve_linear, as (mat, rhs, c, d22).

    mat is the CSC matrix of all n1*n2 rows, boundary rows included, and rhs
    its right-hand side.  c = A11 + B1 (n1 x n1, CSR) and d22 (n2 x n2) are
    the 1D factors of the Kronecker sum, which the column march reuses.
    Raises ValueError on inconsistent boundary data or source shape.
    """
    dom = spec.domain
    n1, n2 = dom.n1, dom.n2
    x1, x2 = dom.x1, dom.x2
    h1 = x1[1] - x1[0]
    h2 = x2[1] - x2[0]

    exit_supersonic = spec.exit_supersonic
    if not exit_supersonic and bc.outlet_data is None:
        raise ValueError("subsonic exit: Dirichlet outlet data is required")
    if exit_supersonic and bc.outlet_data is not None:
        raise ValueError("supersonic exit takes no outlet condition")

    bc.validate_compatibility(x2)

    if callable(f):
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        F = np.asarray(f(X1, X2), dtype=float)
    elif f is None:
        F = np.zeros((n1, n2))
    else:
        F = np.asarray(f, dtype=float)
        if F.shape != (n1, n2):
            raise ValueError(f"source shape {F.shape} != grid {(n1, n2)}")

    # Unknown j * n2 + i is node (x1[j], x2[i]), so a term with a coefficient
    # of x1 alone is kron(an n1 x n1 matrix, an n2 x n2 matrix).  The terms are
    # added d22, then d11, then d1, so entries they share sum in that order.
    n = n1 * n2
    j_pde = np.arange(1, n1 if exit_supersonic else n1 - 1)
    pde = np.zeros(n1)
    pde[j_pde] = 1.0
    off = np.full(n2 - 1, 1.0 / h2 ** 2)
    lower, upper = off.copy(), off.copy()
    lower[-1] = upper[0] = 2.0 / h2 ** 2  # mirrored wall ghosts
    d22 = diags([lower, np.full(n2, -2.0 / h2 ** 2), upper], [-1, 0, 1])
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
    eye2 = identity(n2)
    mat = (kron(diags(pde), d22, format="csr") + kron(a11, eye2, format="csr")
           + kron(b1, eye2, format="csr"))

    # entrance column: Dirichlet rows, or second-order one-sided d1 rows with
    # the constant mode pinned at i = 0; a subsonic exit adds Dirichlet rows
    rhs = np.zeros(n)
    R = rhs.reshape(n1, n2)
    R[j_pde] = F[j_pde]
    R[0] = _inlet_values(bc, x2)
    pinned = np.arange(n2)
    if bc.inlet_mode == "d1":
        R[0, 0] = bc.anchor
        pinned, k = pinned[:1], pinned[1:]
        wts = np.repeat([-3.0 / (2 * h1), 4.0 / (2 * h1), -1.0 / (2 * h1)], n2 - 1)
        mat = mat + coo_matrix((wts, (np.tile(k, 3), np.concatenate([k, k + n2, k + 2 * n2]))),
                               shape=(n, n))
    if not exit_supersonic:
        R[-1] = [float(bc.outlet_data(v)) for v in x2]
        pinned = np.concatenate([pinned, np.arange(n - n2, n)])
    mat = (mat + coo_matrix((np.ones(pinned.size), (pinned, pinned)), shape=(n, n))).tocsc()
    return mat, rhs, (a11 + b1).tocsr(), d22


def solve_linear(spec: MixedOperatorSpec, f, bc: BoundaryData2D) -> Field2D:
    """Solve L w = f on the channel: one LU of the coupled upstream block,
    then a march over the remaining columns.

    Centered second differences carry alpha11*d11 and d22; beta1*d1 is
    differenced backward.  A column within SONIC_NODE_TOL of the sonic
    location drops its d11 term (the coefficient is exactly zero there).
    At a supersonic exit the last column uses one-sided second differences
    instead of an outlet condition; a subsonic exit requires Dirichlet
    outlet data.  The matrix is built as the Kronecker sum of the module
    docstring from 1D matrices, with no loop over nodes.

    Rows of column j reach column j + 1 only through a centered d11 (and the
    d1 inlet rows reach column 2).  With j_c the last column so reached, the
    leading (j_c + 1) * n2 block is closed and is factored with splu; each
    later column j solves the tridiagonal (D22 + C[j, j] I) W[j] = R[j] -
    sum_{k<j} C[j, k] W[k], with C = A11 + B1.  A subsonic exit has
    j_c = n1 - 1: one LU of the whole system.  The residual is checked on
    the full matrix.  Raises on a singular system or unmet residual.
    """
    dom = spec.domain
    n1, n2 = dom.n1, dom.n2

    if not spec.kz_holds:
        warnings.warn("sign condition fails on the background profile; "
                      "solve proceeds flagged as exploratory", stacklevel=2)

    mat, rhs, c, d22 = _assemble(spec, f, bc)
    if spec.exit_supersonic:
        ahead = triu(c, k=1).col  # columns reached by a centered d11
        j_c = int(max(ahead.max(initial=0), 2 if bc.inlet_mode == "d1" else 0))
    else:
        j_c = n1 - 1  # the outlet rows are boundary rows, not marched ones
    n_c = (j_c + 1) * n2
    try:
        lu = splu(mat[:n_c, :n_c])
    except RuntimeError as exc:
        raise RuntimeError(f"singular system: {exc}") from exc
    W = np.empty((n1, n2))
    W[:j_c + 1] = lu.solve(rhs[:n_c]).reshape(j_c + 1, n2)

    R = rhs.reshape(n1, n2)
    band = np.zeros((3, n2))  # solve_banded's (1, 1) layout of D22
    band[0, 1:], band[2, :-1] = d22.diagonal(1), d22.diagonal(-1)
    diag22 = d22.diagonal()
    for j in range(j_c + 1, n1):
        row = slice(c.indptr[j], c.indptr[j + 1])
        k, ck = c.indices[row], c.data[row]
        up = k < j
        band[1] = diag22 + ck[k == j].sum()
        try:
            W[j] = solve_banded((1, 1), band, R[j] - ck[up] @ W[k[up]])
        except LinAlgError as exc:
            raise RuntimeError(f"singular system: column {j}: {exc}") from exc

    w = W.ravel()
    resid = float(np.max(np.abs(mat @ w - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e-8:
        raise RuntimeError(f"linear residual {resid:.3e} exceeds tolerance")
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    meta = {"residual": resid, "kz_holds": spec.kz_holds,
            "exit_supersonic": spec.exit_supersonic, "l_s": spec.l_s,
            "n1": n1, "n2": n2, "factored_columns": j_c + 1,
            "marched_columns": n1 - 1 - j_c, "lu_nnz": int(lu.nnz)}
    return Field2D(x=X1, y=X2, values=W, metadata=meta)


@dataclass(frozen=True)
class JumpReport:
    """One-sided mismatches across the sonic line, normalized per quantity."""

    l_s: float
    w_jump: float
    dw_jump: float
    d2w_jump: float
    rows: np.ndarray = field(repr=False, default=None)


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
        xs = x1[js]
        ys = w[js, :]  # (3, n2)
        # Lagrange quadratic and its derivatives at ls
        out_w = np.zeros(w.shape[1])
        out_d = np.zeros(w.shape[1])
        out_d2 = np.zeros(w.shape[1])
        for k in range(3):
            others = [m for m in range(3) if m != k]
            denom = np.prod([xs[k] - xs[m] for m in others])
            l0 = (ls - xs[others[0]]) * (ls - xs[others[1]]) / denom
            l1 = (2 * ls - xs[others[0]] - xs[others[1]]) / denom
            l2 = 2.0 / denom
            out_w += l0 * ys[k]
            out_d += l1 * ys[k]
            out_d2 += l2 * ys[k]
        return out_w, out_d, out_d2

    wl, dl, d2l = extrap(jl)
    wr, dr, d2r = extrap(jr)
    dw_all = np.gradient(w, x1, axis=0)
    d2w_all = np.gradient(dw_all, x1, axis=0)
    scale_w = max(float(np.max(np.abs(w))), 1e-300)
    scale_d = max(float(np.max(np.abs(dw_all))), 1e-300)
    scale_d2 = max(float(np.max(np.abs(d2w_all))), 1e-300)
    rows = np.column_stack([np.abs(wl - wr) / scale_w,
                            np.abs(dl - dr) / scale_d,
                            np.abs(d2l - d2r) / scale_d2])
    return JumpReport(l_s=ls,
                      w_jump=float(np.max(rows[:, 0])),
                      dw_jump=float(np.max(rows[:, 1])),
                      d2w_jump=float(np.max(rows[:, 2])),
                      rows=rows)
