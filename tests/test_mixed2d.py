import math
import warnings

import numpy as np
import pytest
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from _oracles import banded_modes_solve_banded, reduced_ode_solution
from sonicflow import mixed2d
from sonicflow.field2d import Field2D
from sonicflow.mixed2d import (BoundaryData2D, ChannelDomain, build_operator,
                               solve_linear, sonic_smoothness_diag)
from sonicflow.profile1d import critical_inlet, integrate_profile, kz_coefficients

L = 2.0


@pytest.fixture(scope="module")
def background(canonical):
    return integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=2.2)


@pytest.fixture(scope="module")
def dec_background(canonical):
    return integrate_profile(canonical, critical_inlet(canonical, 1.3, branch="decelerating"),
                             u_target=0.5)


# manufactured solution pieces
def g(x):
    return 0.02 * (1.0 + np.sin(1.3 * x + 0.4))


def gp(x):
    return 0.02 * 1.3 * np.cos(1.3 * x + 0.4)


def gpp(x):
    return -0.02 * 1.3 ** 2 * np.sin(1.3 * x + 0.4)


def manufactured_setup(background, n1, n2):
    dom = ChannelDomain(L=L, n1=n1, n2=n2)
    spec = build_operator(background, dom)
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    wstar = np.cos(np.pi * X2) * g(X1)
    F = np.cos(np.pi * X2) * (spec.alpha11[:, None] * gpp(X1)
                              - np.pi ** 2 * g(X1)
                              + spec.beta1[:, None] * gp(X1))
    bc = BoundaryData2D(inlet_mode="dirichlet",
                        inlet_data=lambda x2: math.cos(math.pi * x2) * g(0.0))
    return dom, spec, F, wstar, bc


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------

def test_build_operator_signs(canonical, background):
    dom = ChannelDomain(L=L, n1=129, n2=33)
    spec = build_operator(background, dom)
    assert spec.kz_holds
    assert spec.l_s == background.l_s
    u0 = background.u[0]
    assert spec.alpha11[0] == pytest.approx(1.0 - u0 ** 4, rel=1e-6)
    assert spec.alpha11[0] > 0.0
    for j, t in enumerate(spec.node_type):
        if t == "elliptic":
            assert spec.alpha11[j] > 0.0 and spec.x1[j] < spec.l_s
        elif t == "hyperbolic":
            assert spec.alpha11[j] < 0.0 and spec.x1[j] > spec.l_s
    assert np.all(spec.beta1 < 0.0)  # accelerating background


def test_sonic_column_flagged(canonical, background):
    """A grid node placed exactly on l_s is flagged and its d11 dropped."""
    ls = background.l_s
    dom = ChannelDomain(L=2.0 * ls, n1=65, n2=65)
    spec = build_operator(background, dom)
    assert len(spec.x1) == 65
    assert spec.sonic_columns == (32,)
    assert spec.alpha11[32] == 0.0
    # a tuple of plain strings: elliptic upstream, hyperbolic downstream
    assert spec.node_type == ("elliptic",) * 32 + ("sonic",) + ("hyperbolic",) * 32
    assert all(type(t) is str for t in spec.node_type)


def test_operator_requires_span(canonical, background):
    with pytest.raises(ValueError, match="shorter"):
        build_operator(background, ChannelDomain(L=100.0, n1=17, n2=17))


def captured_matrix(spec, bc):
    """The full matrix of the system solve_linear solves, all n1*n2 rows:
    kron(P, D22) + kron(C, I) from _assemble's 1D factors, with row (0, 0)
    the pin for a d1 inlet.  It must equal the matrix-free _apply."""
    c, pde, _ = mixed2d._assemble(spec, None, bc)
    n1, n2 = spec.domain.n1, spec.domain.n2
    h2 = spec.domain.x2[1] - spec.domain.x2[0]
    off = np.full(n2 - 1, 1.0 / h2 ** 2)
    lower, upper = off.copy(), off.copy()
    lower[-1] = upper[0] = 2.0 / h2 ** 2  # mirrored wall ghosts
    d22 = diags([lower, np.full(n2, -2.0 / h2 ** 2), upper], [-1, 0, 1])
    mat = kron(diags(pde), d22) + kron(c, identity(n2))
    pinned = bc.inlet_mode == "d1"
    if pinned:
        mat = mat.tolil()
        mat[0] = 0.0
        mat[0, 0] = 1.0
    mat = mat.tocsr()
    v = np.random.default_rng(5).standard_normal((n1, n2))
    want = mixed2d._apply(c, pde, h2, v, pinned)
    assert np.max(np.abs(mat @ v.ravel() - want.ravel())) <= 1e-14 * np.max(np.abs(want))
    return mat


@pytest.mark.parametrize("case", ["dirichlet", "d1", "subsonic-exit"])
def test_operator_rows(background, dec_background, case):
    """The discrete operator applied to w = (x1 - c)**2, which has no x2
    dependence.

    Every difference formula is exact on quadratics, so PDE rows give
    2 alpha11 + 2 beta1 (x1 - c) (the 2-point d1 at j = 1 gives its own
    value), and entrance and outlet rows reproduce their stencils on a
    random field.
    """
    if case == "subsonic-exit":
        dom = ChannelDomain(L=L, n1=65, n2=33)
        spec = build_operator(dec_background, dom)
        bc = BoundaryData2D(outlet_data=lambda x2: 0.0)
    else:
        # L = 2 l_s puts the sonic line on column 32: elliptic columns, the
        # dropped-d11 column and hyperbolic columns are all covered
        dom = ChannelDomain(L=2.0 * background.l_s, n1=65, n2=33)
        spec = build_operator(background, dom)
        assert spec.sonic_columns == (32,)
        bc = BoundaryData2D(inlet_mode=case, anchor=0.3)
    n1, n2 = dom.n1, dom.n2
    x1 = dom.x1
    h1 = x1[1] - x1[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the decelerating background is flagged
        mat = captured_matrix(spec, bc)

    j_last = n1 - 1 if case != "subsonic-exit" else n1 - 2
    for c in (0.0, 1.0):  # the shift makes the entrance column's weights count
        s = x1 - c
        lw = (mat @ np.repeat(s ** 2, n2)).reshape(n1, n2)
        want = 2.0 * spec.alpha11 + 2.0 * spec.beta1 * s
        want[1] = 2.0 * spec.alpha11[1] + spec.beta1[1] * (s[1] ** 2 - s[0] ** 2) / h1
        err = np.abs(lw[1:j_last + 1] - want[1:j_last + 1, None])
        assert float(np.max(err)) <= 1e-9

    if case != "subsonic-exit":
        # from the sonic column on, rows use no column downstream of their own
        for j in range(32, n1):
            assert mat[j * n2:(j + 1) * n2].indices.max() < (j + 1) * n2

    v = np.random.default_rng(3).standard_normal((n1, n2))
    lv = (mat @ v.ravel()).reshape(n1, n2)
    if case == "d1":
        assert lv[0, 0] == v[0, 0]
        d1 = (-3.0 * v[0, 1:] + 4.0 * v[1, 1:] - v[2, 1:]) / (2.0 * h1)
        assert np.allclose(lv[0, 1:], d1, rtol=1e-12, atol=1e-9)
    else:
        assert np.array_equal(lv[0], v[0])
    if case == "subsonic-exit":
        assert np.array_equal(lv[-1], v[-1])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def refined_global_solution(spec, F, bc):
    """splu of the full matrix plus one step of iterative refinement."""
    mat = captured_matrix(spec, bc).tocsc()
    rhs = mixed2d._assemble(spec, F, bc)[2].ravel()
    lu = splu(mat)
    w = lu.solve(rhs)
    return (w + lu.solve(rhs - mat @ w)).reshape(spec.domain.n1, spec.domain.n2)


def inlet_bc(mode, **kwargs):
    """Inlet data with vanishing odd x2-derivatives at the walls (for d2, the
    data itself vanishes there)."""
    data = (lambda x2: 0.01 * math.sin(math.pi * x2)) if mode == "d2" else \
        (lambda x2: 0.01 * math.cos(math.pi * x2))
    return BoundaryData2D(inlet_mode=mode, inlet_data=data, anchor=0.2, **kwargs)


@pytest.mark.parametrize("mode", ["dirichlet", "d1", "d2"])
@pytest.mark.parametrize("grid", ["129x65", "sonic-on-node"])
def test_march_matches_refined_global_lu(background, grid, mode):
    """The per-mode solve of a supersonic exit solves the full system: it
    agrees with the refined global LU.

    The unrefined global LU is no reference: it is itself off by up to
    about 1e-11 here."""
    if grid == "129x65":
        dom = ChannelDomain(L=L, n1=129, n2=65)
    else:
        dom = ChannelDomain(L=2.0 * background.l_s, n1=65, n2=33)
    n1, n2 = dom.n1, dom.n2
    spec = build_operator(background, dom)
    assert grid == "129x65" or spec.sonic_columns == (32,)
    F = np.random.default_rng(11).standard_normal((n1, n2))
    bc = inlet_bc(mode)
    fld = solve_linear(spec, F, bc)
    assert float(np.max(np.abs(fld.values - refined_global_solution(spec, F, bc)))) <= 1e-10


def failing_dgbsv(info):
    """A dgbsv stand-in that returns its inputs with the given info."""
    def dgbsv(kl, ku, ab, b, **kwargs):
        return ab, np.zeros(ab.shape[1], dtype=np.int32), b, info
    return dgbsv


def test_singular_march_column_reported(monkeypatch, background):
    monkeypatch.setattr(mixed2d, "dgbsv", failing_dgbsv(1))
    dom, spec, F, _, bc = manufactured_setup(background, 65, 17)
    with pytest.raises(RuntimeError, match="singular system: mode"):
        solve_linear(spec, F, bc)


def test_rejected_dgbsv_argument_reported(monkeypatch, background):
    monkeypatch.setattr(mixed2d, "dgbsv", failing_dgbsv(-4))
    dom, spec, F, _, bc = manufactured_setup(background, 65, 17)
    with pytest.raises(RuntimeError, match="mode 0: dgbsv rejected argument 4"):
        solve_linear(spec, F, bc)


@pytest.mark.parametrize("mode", ["dirichlet", "d1", "d2"])
@pytest.mark.parametrize("grid", ["supersonic-exit", "subsonic-exit", "sonic-on-node"])
def test_mode_solves_bit_identical_to_solve_banded(monkeypatch, background, dec_background,
                                                   grid, mode):
    """Each mode's dgbsv sees the band solve_banded((3, 2), ...) builds, so
    the mode solutions, and the fields, are the same bit for bit."""
    if grid == "sonic-on-node":
        dom, bg = ChannelDomain(L=2.0 * background.l_s, n1=65, n2=33), background
    else:
        dom = ChannelDomain(L=L, n1=65, n2=33)
        bg = background if grid == "supersonic-exit" else dec_background
    spec = build_operator(bg, dom)
    bc = inlet_bc(mode, **({} if spec.exit_supersonic else {"outlet_data": lambda x2: 0.0}))
    F = np.random.default_rng(13).standard_normal((65, 33))
    calls = []
    solve_modes = mixed2d._solve_modes

    def oracle(*args):  # keeps copies: the d1 capacitance step updates u in place
        u, z = banded_modes_solve_banded(*args)
        calls.append((args, u.copy(), z.copy()))
        return u, z

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the decelerating background is flagged
        w = solve_linear(spec, F, bc).values
        monkeypatch.setattr(mixed2d, "_solve_modes", oracle)
        w_oracle = solve_linear(spec, F, bc).values
    (args, u_oracle, z_oracle), = calls
    u, z = solve_modes(*args)
    assert np.array_equal(u, u_oracle)
    assert (z is None) == (mode != "d1")
    assert z is None or np.array_equal(z, z_oracle)
    assert np.array_equal(w, w_oracle)


@pytest.mark.parametrize("mode", ["dirichlet", "d1", "d2"])
def test_subsonic_exit_matches_refined_global_lu(dec_background, mode):
    """A subsonic exit takes the same per-mode solve.  The decelerating field
    reaches about 13 (72 with the d1 inlet), so the bound scales with it."""
    dom = ChannelDomain(L=L, n1=65, n2=33)
    spec = build_operator(dec_background, dom)
    bc = inlet_bc(mode, outlet_data=lambda x2: 0.0)
    F = np.random.default_rng(12).standard_normal((65, 33))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the decelerating background is flagged
        w = solve_linear(spec, F, bc).values
        want = refined_global_solution(spec, F, bc)
    assert float(np.max(np.abs(w - want))) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))


def test_zero_problem(background):
    dom, spec, _, _, _ = manufactured_setup(background, 33, 17)
    fld = solve_linear(spec, None, BoundaryData2D())
    assert np.max(np.abs(fld.values)) == 0.0


@pytest.fixture(scope="module")
def convergence(background):
    """Max errors of the manufactured solution at 65^2, 129^2 and 257^2, and
    the observed order fitted to them: acceptance 6's setup."""
    errs = []
    hs = []
    for n in (65, 129, 257):
        dom, spec, F, wstar, bc = manufactured_setup(background, n, n)
        fld = solve_linear(spec, F, bc)
        errs.append(float(np.max(np.abs(fld.values - wstar))))
        hs.append(L / (n - 1))
    return errs, float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@pytest.fixture(scope="module")
def reduced_1d(background):
    """x2-independent data on 1025x9: the global solve and the singular-ODE oracle."""
    f1 = lambda x: 0.02 * np.sin(2.0 * x)
    w0 = 0.01
    dom = ChannelDomain(L=L, n1=1025, n2=9)
    spec = build_operator(background, dom)
    F = np.tile(f1(dom.x1)[:, None], (1, dom.n2))
    fld = solve_linear(spec, F, BoundaryData2D(inlet_data=lambda x2: w0))
    alpha = lambda x: kz_coefficients(background, x)[0]
    beta = lambda x: kz_coefficients(background, x)[1]
    return fld, reduced_ode_solution(alpha, beta, f1, background.l_s, L, w0, dom.x1)


def test_manufactured_convergence(convergence):
    errs, slope = convergence
    assert slope >= 1.0
    assert errs[-1] < errs[0]


def test_reduced_1d_matches_ode_oracle(reduced_1d):
    """x2-independent data: the global solve equals the singular-ODE oracle."""
    fld, w_oracle = reduced_1d
    w2d = fld.values[:, fld.shape[1] // 2]
    assert float(np.max(np.abs(w2d - w_oracle))) <= 1e-4
    # the solution is x2-independent
    assert float(np.max(np.abs(fld.values - w2d[:, None]))) < 1e-12


def test_second_order_and_oracle_deviation_pinned(convergence, reduced_1d):
    """The backward 4-point stencil of the hyperbolic alpha11 d11 term keeps
    the channel second order: today 2.000 and 1.75e-8.  A first-order
    stencil there (order 1.06, deviation 1.6e-5) still passes acceptance 6's
    bounds of 1.0 and 1e-4, but not these."""
    _, slope = convergence
    fld, w_oracle = reduced_1d
    assert slope >= 1.9
    assert float(np.max(np.abs(fld.values[:, fld.shape[1] // 2] - w_oracle))) <= 1e-6


def test_linearity(background):
    dom, spec, _, _, _ = manufactured_setup(background, 49, 25)
    rng = np.random.default_rng(7)
    f1 = rng.standard_normal((49, 25))
    f2 = rng.standard_normal((49, 25))
    bc = BoundaryData2D()
    w1 = solve_linear(spec, f1, bc).values
    w2 = solve_linear(spec, f2, bc).values
    w12 = solve_linear(spec, 2.0 * f1 - 0.5 * f2, bc).values
    assert np.max(np.abs(w12 - (2.0 * w1 - 0.5 * w2))) <= 1e-10 * max(1.0, np.max(np.abs(w12)))


def test_determinism(background):
    dom, spec, F, _, bc = manufactured_setup(background, 49, 25)
    a = solve_linear(spec, F, bc).values
    b = solve_linear(spec, F, bc).values
    assert np.array_equal(a, b)


def test_supersonic_exit_refuses_outlet(background):
    dom, spec, F, _, _ = manufactured_setup(background, 33, 17)
    with pytest.raises(ValueError, match="no outlet"):
        solve_linear(spec, F, BoundaryData2D(outlet_data=lambda x2: 0.0))


def test_subsonic_exit_requires_outlet(canonical, background):
    dom = ChannelDomain(L=0.1, n1=33, n2=17)  # entirely upstream of l_s
    spec = build_operator(background, dom)
    assert all(t == "elliptic" for t in spec.node_type)
    with pytest.raises(ValueError, match="outlet"):
        solve_linear(spec, None, BoundaryData2D(inlet_data=lambda x2: 0.01))
    fld = solve_linear(spec, None, BoundaryData2D(inlet_data=lambda x2: 0.01,
                                                  outlet_data=lambda x2: 0.0))
    assert fld.metadata["exit_supersonic"] is False


def test_incompatible_inlet_rejected(background):
    dom, spec, _, _, _ = manufactured_setup(background, 33, 17)
    with pytest.raises(ValueError, match="odd derivative"):
        solve_linear(spec, None, BoundaryData2D(inlet_data=lambda x2: 0.01 * x2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_source_rejected(background, bad):
    dom, spec, F, _, bc = manufactured_setup(background, 33, 17)
    F[5, 7] = bad
    with pytest.raises(ValueError, match="source contains non-finite values"):
        solve_linear(spec, F, bc)
    with pytest.raises(ValueError, match="source contains non-finite values"):
        solve_linear(spec, lambda X1, X2: np.where(X1 > 1.0, bad, 0.0), bc)


def test_source_off_the_pde_columns_is_not_read(background, dec_background):
    """The entrance row, and a subsonic exit's outlet row, take the boundary
    data, so a non-finite source there is ignored, as a callable that
    divides by x1 makes it at the inlet."""
    dom, spec, F, _, bc = manufactured_setup(background, 33, 17)
    ref = solve_linear(spec, F, bc).values
    F[0] = math.nan
    assert np.array_equal(solve_linear(spec, F, bc).values, ref)
    dom = ChannelDomain(L=L, n1=33, n2=17)
    spec = build_operator(dec_background, dom)
    bc = BoundaryData2D(outlet_data=lambda x2: 0.0)
    F = np.zeros((33, 17))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the decelerating background is flagged
        ref = solve_linear(spec, F, bc).values
        F[[0, -1]] = math.inf
        assert np.array_equal(solve_linear(spec, F, bc).values, ref)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["dirichlet", "d1", "d2"])
def test_nonfinite_inlet_rejected(background, bad, mode):
    """Rejected by name before the compatibility check does arithmetic on it
    (an infinite sample there would warn first)."""
    dom, spec, F, _, _ = manufactured_setup(background, 33, 17)
    bc = BoundaryData2D(inlet_mode=mode, inlet_data=lambda x2: bad if x2 > 0.5 else 0.0)
    with pytest.raises(ValueError, match=r"inlet data is not finite at x2 = 0\.625"):
        solve_linear(spec, F, bc)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_outlet_rejected(dec_background, bad):
    dom = ChannelDomain(L=L, n1=33, n2=17)
    spec = build_operator(dec_background, dom)
    bc = BoundaryData2D(outlet_data=lambda x2: bad if x2 < 0.0 else 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the decelerating background is flagged
        with pytest.raises(ValueError, match=r"outlet data is not finite at x2 = -1"):
            solve_linear(spec, None, bc)


def test_overflowing_source_fails_the_residual_check(background):
    """A finite source whose transform overflows leaves a NaN residual,
    which must fail the check rather than compare false against it."""
    dom, spec, _, _, bc = manufactured_setup(background, 33, 17)
    # whether an inf - inf on the way warns depends on the numpy/BLAS build;
    # the guard under test is the residual check's
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError, match="linear residual nan exceeds tolerance"):
        solve_linear(spec, np.full((33, 17), 1e308), bc)


def test_d1_and_d2_modes(canonical, background):
    """Derivative-mode inlets run and anchor the constant mode."""
    dom = ChannelDomain(L=L, n1=129, n2=33)
    spec = build_operator(background, dom)
    fld = solve_linear(spec, None, BoundaryData2D(
        inlet_mode="d1", inlet_data=lambda x2: 0.01 * math.cos(math.pi * x2),
        anchor=0.3))
    assert fld.values[0, 0] == pytest.approx(0.3, abs=1e-10)
    fld2 = solve_linear(spec, None, BoundaryData2D(
        inlet_mode="d2", inlet_data=lambda x2: 0.01 * math.sin(math.pi * x2),
        anchor=0.1))
    assert fld2.values[0, 0] == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothness diagnostics across the sonic line
# ---------------------------------------------------------------------------

def test_smoothness_manufactured(background):
    jumps = []
    for n1 in (65, 129):
        dom, spec, F, _, bc = manufactured_setup(background, n1, 49)
        fld = solve_linear(spec, F, bc)
        rep = sonic_smoothness_diag(fld, spec)
        jumps.append((rep.w_jump, rep.dw_jump, rep.d2w_jump))
        h1 = L / (n1 - 1)
        assert rep.w_jump <= 10.0 * h1 ** 2
        assert rep.dw_jump <= 2.0 * h1
        assert rep.d2w_jump <= 10.0 * h1 ** 0.5
    assert jumps[1][0] < jumps[0][0]  # value mismatch shrinks under refinement


@pytest.mark.parametrize("n1", [65, 129])
def test_smoothness_exact_on_quadratics(background, n1):
    # the one-sided quadratic extrapolations reproduce a field quadratic in x1
    # to rounding, so a wrong Lagrange weight shows as an O(1) jump
    dom = ChannelDomain(L=L, n1=n1, n2=17)
    spec = build_operator(background, dom)
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    for x2_factor in (np.ones_like(X2), np.cos(np.pi * X2), 1.0 + X2 ** 3):
        w = x2_factor * (0.3 + 0.7 * X1 - 0.4 * X1 ** 2)
        rep = sonic_smoothness_diag(Field2D(x=X1, y=X2, values=w), spec)
        assert max(rep.w_jump, rep.dw_jump, rep.d2w_jump) <= 1e-10, rep
    # on x1**3 each side's quadratic misses by its node polynomial
    # prod(x1 - x_k), so the jumps are known exactly; this also sees a weight
    # that is wrong the same way on both sides, which cancels on quadratics
    w = X1 ** 3
    rep = sonic_smoothness_diag(Field2D(x=X1, y=X2, values=w), spec)
    jl, jr = mixed2d._sonic_side_columns(spec)
    miss = np.poly1d(dom.x1[jl], r=True) - np.poly1d(dom.x1[jr], r=True)
    dw = np.gradient(w, dom.x1, axis=0)
    for jump, order, q in ((rep.w_jump, 0, w), (rep.dw_jump, 1, dw),
                           (rep.d2w_jump, 2, np.gradient(dw, dom.x1, axis=0))):
        assert jump == pytest.approx(abs(miss.deriv(order)(spec.l_s)) / np.max(np.abs(q)), rel=1e-7)


def test_smoothness_zero_field(background):
    dom, spec, _, _, _ = manufactured_setup(background, 65, 17)
    fld = solve_linear(spec, None, BoundaryData2D())
    rep = sonic_smoothness_diag(fld, spec)
    assert rep.w_jump == 0.0 and rep.dw_jump == 0.0 and rep.d2w_jump == 0.0


def test_decelerating_exploratory(canonical, dec_background):
    """Sign-condition-violating coefficients: solve runs flagged, reports."""
    dom = ChannelDomain(L=L, n1=65, n2=33)
    spec = build_operator(dec_background, dom)
    assert not spec.kz_holds
    assert spec.node_type[0] == "hyperbolic" and spec.node_type[-1] == "elliptic"
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        fld = solve_linear(spec, None, BoundaryData2D(
            inlet_data=lambda x2: 0.01 * math.cos(math.pi * x2),
            outlet_data=lambda x2: 0.0))
    assert any("sign condition" in str(w.message) for w in wlist)
    assert fld.metadata["kz_holds"] is False
    rep = sonic_smoothness_diag(fld, spec)  # emits data, no verdict
    assert np.isfinite([rep.w_jump, rep.dw_jump, rep.d2w_jump]).all()
