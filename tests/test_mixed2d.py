import math
import warnings

import numpy as np
import pytest

from _oracles import reduced_ode_solution
from sonicflow import mixed2d
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


def test_operator_requires_span(canonical, background):
    with pytest.raises(ValueError, match="shorter"):
        build_operator(background, ChannelDomain(L=100.0, n1=17, n2=17))


def captured_matrix(monkeypatch, spec, bc):
    """The matrix solve_linear factors, taken at its one splu call."""
    mats = []

    def capture(mat, real=mixed2d.splu):
        mats.append(mat)
        return real(mat)

    with monkeypatch.context() as mp:
        mp.setattr(mixed2d, "splu", capture)
        solve_linear(spec, None, bc)
    assert len(mats) == 1
    return mats[0].tocsr()


@pytest.mark.parametrize("case", ["dirichlet", "d1", "subsonic-exit"])
def test_operator_rows(monkeypatch, background, dec_background, case):
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
        mat = captured_matrix(monkeypatch, spec, bc)

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

def test_zero_problem(background):
    dom, spec, _, _, _ = manufactured_setup(background, 33, 17)
    fld = solve_linear(spec, None, BoundaryData2D())
    assert np.max(np.abs(fld.values)) == 0.0


def test_manufactured_convergence(background):
    errs = []
    hs = []
    for n in (65, 129, 257):
        dom, spec, F, wstar, bc = manufactured_setup(background, n, n)
        fld = solve_linear(spec, F, bc)
        errs.append(float(np.max(np.abs(fld.values - wstar))))
        hs.append(L / (n - 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.0
    assert errs[-1] < errs[0]


def test_reduced_1d_matches_ode_oracle(canonical, background):
    """x2-independent data: the global solve equals the singular-ODE oracle."""
    f1 = lambda x: 0.02 * np.sin(2.0 * x)
    w0 = 0.01
    dom = ChannelDomain(L=L, n1=1025, n2=9)
    spec = build_operator(background, dom)
    F = np.tile(f1(dom.x1)[:, None], (1, dom.n2))
    fld = solve_linear(spec, F, BoundaryData2D(inlet_data=lambda x2: w0))
    w2d = fld.values[:, dom.n2 // 2]
    alpha = lambda x: kz_coefficients(canonical, background, x)[0]
    beta = lambda x: kz_coefficients(canonical, background, x)[1]
    w_oracle = reduced_ode_solution(alpha, beta, f1, background.l_s, L, w0, dom.x1)
    assert float(np.max(np.abs(w2d - w_oracle))) <= 1e-4
    # the solution is x2-independent
    assert float(np.max(np.abs(fld.values - w2d[:, None]))) < 1e-12


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
