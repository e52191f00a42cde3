import dataclasses
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from _oracles import aitken_step, directed_polyline_distance, h_quadrature
from conftest import gamma_family
from sonicflow import profile1d
from sonicflow.field2d import profile_csv_text
from sonicflow.gas import critical_field, enthalpy, find_u_star
from sonicflow.profile1d import (InletData, NoSonicCrossingError, SonicBlowupError,
                                 bernoulli_defect, conservation_defect,
                                 critical_inlet, dx_du_critical, integrate_profile,
                                 kz_check, kz_coefficients, locate_lmax,
                                 locate_sonic, potential_ode_residual,
                                 reconstruct_fields, verify_lemma)

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# sonic-crossing slope
# ---------------------------------------------------------------------------

def test_dx_du_limit(canonical):
    assert dx_du_critical(canonical, 1.0, "accelerating") == pytest.approx(TWO_SQRT2, rel=1e-14)
    assert dx_du_critical(canonical, 1.0, "decelerating") == pytest.approx(-TWO_SQRT2, rel=1e-14)


def test_dx_du_ratio_cross_check(canonical):
    # the raw ratio approaches the limit linearly from both sides
    above = dx_du_critical(canonical, 1.0 + 1e-6, "accelerating")
    below = dx_du_critical(canonical, 1.0 - 1e-6, "accelerating")
    assert above == pytest.approx(TWO_SQRT2, abs=2e-6)
    assert below == pytest.approx(TWO_SQRT2, abs=2e-6)
    # first-order deviations cancel in the mean
    assert 0.5 * (above + below) == pytest.approx(TWO_SQRT2, abs=1e-8)


def test_dx_du_deep_in_band_is_smooth(canonical):
    # no cancellation noise arbitrarily close to the sonic speed
    for h in (1e-8, 1e-10, 1e-11):
        v = dx_du_critical(canonical, 1.0 + h, "accelerating")
        assert v == pytest.approx(TWO_SQRT2, abs=5.0 * h)


def _dx_du_oracle(params, u, branch):
    """dx/du = (u**(g+1) - us**(g+1)) / (E u**g) from the raw difference and
    E from `h_quadrature`; loses accuracy as u nears u_sonic."""
    g, us = params.gamma, params.u_sonic
    sign = 1.0 if branch == "accelerating" else -1.0
    E = sign * math.copysign(1.0, u - us) * math.sqrt(
        2.0 * h_quadrature(params.gamma, params.S0, params.J, params.rho_ion, u))
    return (u ** (g + 1.0) - us ** (g + 1.0)) / (E * u ** g)


# relative offsets u/u_sonic - 1: at and within 1e-12 of the sonic speed, deep
# in the band, on both sides of the 0.5 switch to the closed-form H, and far out
SONIC_OFFSETS = (0.0, 5e-13, -5e-13, 1e-12, -1e-12, 3e-12, -3e-12, 1e-9, -1e-9, 1e-6, -1e-6,
                 1e-3, -1e-3, 0.2, -0.2, 0.4999, -0.4999, 0.5001, -0.5001, 0.7, -0.7, -0.99)


@pytest.mark.parametrize("branch", ["accelerating", "decelerating"])
@pytest.mark.parametrize("gamma", [1.3, 2.0, 3.0])
def test_dx_du_array_matches_elementwise(gamma, branch):
    params = gamma_family(gamma)
    u = params.u_sonic * (1.0 + np.array(SONIC_OFFSETS))
    u = np.append(u, np.linspace(0.1, 0.95 * find_u_star(params), 38))
    arr = dx_du_critical(params, u, branch)
    one = [dx_du_critical(params, float(x), branch) for x in u]
    assert all(type(v) is float for v in one)
    assert np.all(np.isfinite(arr)) and np.all(np.sign(arr) == (1 if branch == "accelerating" else -1))
    # the 48-node sum of H is one matrix-vector product, whose summation
    # order may depend on the row count: a few ulp
    np.testing.assert_allclose(arr, one, rtol=8 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_array_equal(dx_du_critical(params, u.reshape(2, -1), branch),
                                  arr.reshape(2, -1))


@pytest.mark.parametrize("branch", ["accelerating", "decelerating"])
@pytest.mark.parametrize("gamma", [1.3, 2.0, 3.0])
def test_dx_du_matches_quadrature_oracle(gamma, branch):
    params = gamma_family(gamma)
    us = params.u_sonic
    offsets = (1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1, 0.3, -0.3,
               0.49, -0.49, 0.51, -0.51, 0.7, -0.7, -0.9, -0.999)
    for u in us * (1.0 + np.array(offsets)):
        assert dx_du_critical(params, u, branch) == pytest.approx(
            _dx_du_oracle(params, u, branch), rel=1e-11), f"u={u}"


@pytest.mark.parametrize("bad, message", [
    (0.0, "u=0.0"), (-0.5, "u=-0.5"), (math.nan, "u=nan"), (math.inf, "u=inf"),
    (np.array([0.9, -1.0]), "u=-1.0"),
    (np.array([0.9, 3.0]), "u=3.0 is off the critical set"),  # beyond u* = 2.774
])
def test_dx_du_rejects_bad_velocities(canonical, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dx_du_critical(canonical, bad, "accelerating")


@pytest.mark.parametrize("gamma", [1.3, 3.0])
def test_extent_quadratures_match_quad(gamma):
    """The composite Gauss extents against adaptive quadrature of the oracle
    slope: x(u*) on the accelerating branch, x at every decelerating floor."""
    params = gamma_family(gamma)
    us = params.u_sonic
    acc = lambda t: _dx_du_oracle(params, t, "accelerating")
    u0 = 0.8 * us
    ustar = find_u_star(params)
    # past u_bar under u = u* - s**2, which removes the 1/sqrt(u* - u) end
    tail = quad(lambda s: acc(ustar - s * s) * 2.0 * s, 0.0, math.sqrt(ustar - params.u_bar),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    ref = sum(quad(acc, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in ((u0, us), (us, params.u_bar))) + tail
    assert profile1d._x_extent_accelerating(params, u0) == pytest.approx(ref, rel=1e-10)

    dec = lambda t: _dx_du_oracle(params, t, "decelerating")
    rep = locate_lmax(params, critical_inlet(params, 1.2 * us, branch="decelerating"))
    edges = np.concatenate(([1.2 * us, us], rep.u_floors))
    pieces = [quad(dec, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(rep.x_at_floors, np.cumsum(pieces)[1:], rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_conservation_through_sonic(canonical, acc_profile):
    assert acc_profile.l_s is not None
    assert conservation_defect(acc_profile) <= 1e-8


def test_sample_invariants(canonical, acc_profile):
    assert np.all(np.diff(acc_profile.x1) > 0.0)
    assert np.all(acc_profile.u > 0.0)
    assert np.all(np.diff(acc_profile.u) > 0.0)  # accelerating
    assert np.allclose(acc_profile.rho, canonical.J / acc_profile.u, rtol=1e-14)
    assert np.allclose(acc_profile.p, canonical.S0 * acc_profile.rho ** 3, rtol=1e-14)
    assert acc_profile.phi_bar[0] == 0.0
    assert np.all(np.diff(acc_profile.phi_bar) > 0.0)


def test_exactly_sonic_inlet_rejected(canonical):
    with pytest.raises(ValueError, match="degenerate"):
        integrate_profile(canonical, InletData(1.0, 0.0))


def test_off_critical_blowup(canonical):
    # |E0| above the critical value: the level set passes the sonic line
    with pytest.raises(SonicBlowupError, match="off-critical"):
        integrate_profile(canonical, InletData(0.95, -0.10), u_target=1.5)


def test_off_critical_needs_stop(canonical):
    with pytest.raises(ValueError, match="stop"):
        integrate_profile(canonical, InletData(0.95, -0.10))


def test_off_critical_can_stop_short(canonical):
    prof = integrate_profile(canonical, InletData(0.95, -0.10), u_target=0.99)
    assert prof.terminated == "u_target"
    assert prof.l_s is None


def test_x_max_stop_before_sonic(canonical):
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), x_max=0.05)
    assert prof.terminated == "x_max"
    assert prof.l_s is None
    assert prof.x1[-1] == pytest.approx(0.05, abs=1e-12)


def test_x_max_stop_beyond_sonic(canonical):
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), x_max=1.0)
    assert prof.terminated == "x_max"
    assert prof.l_s is not None and prof.l_s < 1.0
    assert prof.x1[-1] == pytest.approx(1.0, abs=1e-12)


def test_u_target_direction_validation(canonical):
    with pytest.raises(ValueError, match="ahead"):
        integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=0.5)
    with pytest.raises(ValueError, match="ahead"):
        integrate_profile(canonical, critical_inlet(canonical, 1.05, branch="decelerating"),
                          u_target=1.5)


@pytest.mark.parametrize("branch", ["accelerating", "decelerating"])
@pytest.mark.parametrize("u0", [0.99999, 1.00001])
def test_near_sonic_inlet_keeps_its_branch(canonical, u0, branch):
    # |E0| ~ 1.4e-5 lies below sqrt(2e-9) ~ 4.5e-5, where E0**2/2 is within the
    # on-critical tolerance of 0, yet the inlet is on one branch, and every
    # entry point reports that one
    inlet = critical_inlet(canonical, u0, branch)
    results = []
    for run in (lambda: integrate_profile(canonical, inlet),
                lambda: locate_lmax(canonical, inlet),
                lambda: verify_lemma(canonical, inlet)):
        t0 = time.perf_counter()
        results.append(run())
        assert time.perf_counter() - t0 < 1.0
    assert [r.branch for r in results] == [branch] * 3
    assert results[0].terminated == ("turning_point" if branch == "accelerating" else "u_target")


@pytest.mark.parametrize("gamma", [3.0, 1.3, 1.5, 2.0])
def test_off_critical_inlet_inside_the_band_blows_up_at_once(gamma):
    # off-critical inlets 5e-4*u_sonic from the sonic speed, inside the band:
    # heading for it they have already entered the band and raise at once;
    # heading away they integrate as before
    params = gamma_family(gamma)
    for inlet, stop in (((0.9995, -0.001), {"x_max": 0.5}), ((0.9995, -0.001), {"u_target": 1.5}),
                        ((1.0005, -0.001), {"x_max": 0.05}), ((1.0005, -0.001), {"u_target": 0.5})):
        t0 = time.perf_counter()
        with pytest.raises(SonicBlowupError, match=re.escape(f"u0={inlet[0]} with E0={inlet[1]}")):
            integrate_profile(params, InletData(*inlet), **stop)
        assert time.perf_counter() - t0 < 1.0
    for inlet in ((0.9995, 0.001), (1.0005, 0.001)):
        t0 = time.perf_counter()
        prof = integrate_profile(params, InletData(*inlet), x_max=0.05)
        assert time.perf_counter() - t0 < 1.0
        assert prof.branch == "off-critical" and prof.terminated == "x_max"


def test_c1_crossing(canonical, acc_profile):
    """One-sided difference quotients of u agree across l_s to O(h)."""
    ls = acc_profile.l_s
    x, u = acc_profile.x1, acc_profile.u
    i = int(np.searchsorted(x, ls))
    h = x[i + 2] - x[i - 2]
    left = (u[i - 1] - u[i - 2]) / (x[i - 1] - x[i - 2])
    right = (u[i + 2] - u[i + 1]) / (x[i + 2] - x[i + 1])
    assert abs(left - right) <= 5.0 * h


def test_locate_sonic(canonical, acc_profile):
    ls = locate_sonic(acc_profile)
    assert ls == pytest.approx(acc_profile.l_s, abs=1e-8)
    # interpolated velocity at the crossing is the sonic speed
    ui = np.interp(ls, acc_profile.x1, acc_profile.u)
    assert ui == pytest.approx(1.0, abs=1e-9)


def test_locate_sonic_decelerating(canonical, dec_profile):
    ls = locate_sonic(dec_profile)
    assert dec_profile.l_s is not None
    assert ls == pytest.approx(dec_profile.l_s, abs=1e-8)
    before = dec_profile.u[dec_profile.x1 < ls - 1e-3]
    after = dec_profile.u[dec_profile.x1 > ls + 1e-3]
    assert np.all(before > 1.0) and np.all(after < 1.0)


def test_locate_sonic_no_crossing(canonical):
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=0.99)
    with pytest.raises(NoSonicCrossingError, match="no sonic crossing"):
        locate_sonic(prof)


def test_refinement_convergence(canonical):
    """Halving the tolerance moves l_s and l_max at the coarser error level.

    The change is proportional to the coarser rtol with the integrator's
    global-error constant (measured ~5), and shrinks in proportion when the
    tolerance drops another decade.
    """
    inlet = critical_inlet(canonical, 0.95)
    vals = {}
    for rtol in (1e-8, 5e-9, 1e-9, 5e-10):
        prof = integrate_profile(canonical, inlet, rtol=rtol, atol=rtol * 1e-2,
                                 n_samples=301)
        vals[rtol] = (prof.l_s, prof.l_max)
    for coarse, fine in ((1e-8, 5e-9), (1e-9, 5e-10)):
        assert abs(vals[coarse][0] - vals[fine][0]) < 10.0 * coarse
        assert abs(vals[coarse][1] - vals[fine][1]) < 10.0 * coarse
    # a decade of tolerance buys a decade of agreement
    d_coarse = abs(vals[1e-8][0] - vals[5e-9][0])
    d_fine = abs(vals[1e-9][0] - vals[5e-10][0])
    assert d_fine < 0.3 * d_coarse


# ---------------------------------------------------------------------------
# terminal locations
# ---------------------------------------------------------------------------

def test_lmax_accelerating(canonical):
    inlet = critical_inlet(canonical, 0.95)
    rep = locate_lmax(canonical, inlet)
    assert rep.finite
    ustar = find_u_star(canonical)
    prof = integrate_profile(canonical, inlet, n_samples=301)
    assert prof.terminated == "turning_point"
    assert prof.u[-1] == pytest.approx(ustar, abs=1e-6)
    assert abs(prof.E[-1]) <= 1e-6
    # u-parametrized quadrature and the ODE turning point agree
    assert rep.method_values["quadrature"] == pytest.approx(rep.method_values["ode"], abs=1e-6)


def test_lmax_decelerating_dichotomy():
    for gamma, finite in ((1.3, True), (1.5, True), (2.0, False), (3.0, False)):
        params = gamma_family(gamma)
        inlet = critical_inlet(params, 1.2 * params.u_sonic, branch="decelerating")
        rep = locate_lmax(params, inlet)
        assert rep.finite is finite, f"gamma={gamma}"
        # trend ratio approaches 2**(gamma/2 - 1)
        assert rep.ratio_mean == pytest.approx(2.0 ** (gamma / 2.0 - 1.0), abs=0.02)
        if finite:
            assert rep.value is not None and rep.value > 0.0


@pytest.mark.parametrize("gamma", [1.3, 1.5, 2.0, 3.0])
def test_lmax_report_matches_scalar_aitken(gamma):
    """Every LmaxReport field equals the scalar Aitken step as first written,
    with the mean of the last four ratios as its fallback."""
    params = gamma_family(gamma)
    for u0 in (1.05, 1.3, 2.0):
        rep = locate_lmax(params, critical_inlet(params, u0, branch="decelerating"))
        xs = rep.x_at_floors
        inc = np.diff(xs)
        ratios = inc[1:] / inc[:-1]
        rbar = float(aitken_step(list(ratios), 0.95, float(np.mean(ratios[-4:]))))
        finite = not (xs[-1] > rep.horizon or rbar >= 0.97)
        assert np.array_equal(rep.increment_ratios, ratios)
        assert rep.ratio_mean == rbar
        assert rep.finite is finite
        if finite:
            value = float(xs[-1] + inc[-1] * rbar / (1.0 - rbar))
            assert rep.value == value
            assert rep.method_values == {"extrapolated": value}
        else:
            assert rep.value is None and rep.method_values == {}


def test_lmax_gamma15_extrapolation_consistency(monkeypatch):
    """The extrapolated finite extent is stable against deeper floors."""
    params = gamma_family(1.5)
    inlet = critical_inlet(params, 1.2, branch="decelerating")
    monkeypatch.setattr(profile1d, "LMAX_FLOORS", 12)
    r1 = locate_lmax(params, inlet)
    monkeypatch.setattr(profile1d, "LMAX_FLOORS", 18)
    r2 = locate_lmax(params, inlet)
    assert r1.value == pytest.approx(r2.value, rel=1e-4)


def test_lmax_rejects_off_critical(canonical):
    with pytest.raises(ValueError, match="critical"):
        locate_lmax(canonical, InletData(0.95, -0.10))


# ---------------------------------------------------------------------------
# reconstructed fields
# ---------------------------------------------------------------------------

def test_reconstruct_values(canonical, acc_profile):
    i = int(np.argmin(np.abs(acc_profile.u - 2.0)))
    assert acc_profile.u[i] == pytest.approx(2.0, abs=1e-6)
    assert acc_profile.rho[i] == pytest.approx(0.5, abs=1e-6)
    assert acc_profile.p[i] == pytest.approx(1.0 / 24.0, abs=1e-6)
    u0 = acc_profile.u[0]
    phi0 = 0.5 * u0 ** 2 + (3.0 * (1 / 3) / 2.0) * (1.0 / u0) ** 2
    assert acc_profile.Phi[0] == pytest.approx(phi0, rel=1e-14)


def test_pseudo_bernoulli(canonical, acc_profile, dec_profile):
    assert bernoulli_defect(acc_profile) <= 1e-6
    assert bernoulli_defect(dec_profile) <= 1e-6


def test_potential_gradient_is_field(canonical, acc_profile):
    dPhi = np.gradient(acc_profile.Phi, acc_profile.x1)
    interior = slice(5, -5)
    assert np.max(np.abs(dPhi[interior] - acc_profile.E[interior])) <= 1e-6


# ---------------------------------------------------------------------------
# mixed-operator coefficients and the sign condition
# ---------------------------------------------------------------------------

def test_kz_coefficients_values(acc_profile):
    x_at_2 = float(np.interp(2.0, acc_profile.u, acc_profile.x1))
    alpha, beta = kz_coefficients(acc_profile, x_at_2)
    assert alpha == pytest.approx(1.0 - 2.0 ** 4, abs=1e-5)
    alpha_s, _ = kz_coefficients(acc_profile, acc_profile.l_s)
    assert alpha_s == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="range"):
        kz_coefficients(acc_profile, acc_profile.x1[-1] + 1.0)


def test_alpha_sign_change(acc_profile):
    alpha, _ = kz_coefficients(acc_profile, acc_profile.x1)
    sign = np.sign(alpha)
    before = acc_profile.x1 < acc_profile.l_s - 1e-9
    after = acc_profile.x1 > acc_profile.l_s + 1e-9
    assert np.all(sign[before] > 0)
    assert np.all(sign[after] < 0)


def test_qm_at_sonic_identity(canonical, acc_profile):
    """Q_m(l_s) = (gamma+1)(2m+1) u'(l_s)/u_s."""
    g = canonical.gamma
    ls = acc_profile.l_s
    du_ls = 1.0 / dx_du_critical(canonical, 1.0, "accelerating")
    h = 1e-4
    for m in range(4):
        alpha_p, beta_p = kz_coefficients(acc_profile, ls + h)
        alpha_m, beta_m = kz_coefficients(acc_profile, ls - h)
        _, beta_0 = kz_coefficients(acc_profile, ls)
        dalpha = (alpha_p - alpha_m) / (2 * h)
        q = -2.0 * beta_0 - (2 * m - 1) * dalpha
        assert q == pytest.approx((g + 1.0) * (2 * m + 1) * du_ls, rel=1e-4)


def test_kz_dichotomy(acc_profile, dec_profile):
    rep_acc = kz_check(acc_profile)
    assert rep_acc.holds and rep_acc.lambda_L > 0.0
    assert set(rep_acc.per_m_min) == {0, 1, 2, 3}
    assert rep_acc.agreement_rel_max <= 1e-6
    # the sampled coefficients, against their closed forms at gamma = 3, u_sonic = 1
    u, E, du = acc_profile.u, acc_profile.E, acc_profile.du
    assert np.allclose(rep_acc.alpha11, (1.0 - u * u) * (1.0 + u * u), rtol=1e-13, atol=1e-14)
    assert np.allclose(rep_acc.beta1, u * u * E - 4.0 * du * u ** 3, rtol=1e-13, atol=1e-14)

    rep_dec = kz_check(dec_profile)
    assert not rep_dec.holds and rep_dec.lambda_L < 0.0
    assert all(v < 0.0 for v in rep_dec.per_m_min.values())
    assert rep_dec.agreement_rel_max <= 1e-6


@pytest.mark.parametrize("profile", ["acc_profile", "dec_profile"])
def test_kz_agreement_sees_a_perturbed_slope(request, profile):
    # the closed route reads du and the direct route does not, so a 1e-4
    # relative error in du must show in agreement_rel_max
    prof = request.getfixturevalue(profile)
    assert kz_check(prof).agreement_rel_max <= 1e-6
    perturbed = dataclasses.replace(prof, du=(1.0 + 1e-4) * prof.du)
    assert kz_check(perturbed).agreement_rel_max > 1e-5


# ---------------------------------------------------------------------------
# degenerate potential equation residual
# ---------------------------------------------------------------------------

def test_potential_residual(acc_profile):
    assert potential_ode_residual(acc_profile) <= 1e-8


def test_potential_residual_zero_at_sonic(canonical, acc_profile):
    g = canonical.gamma
    i = int(np.argmin(np.abs(acc_profile.x1 - acc_profile.l_s)))
    u, du = acc_profile.u[i], acc_profile.du[i]
    term1 = (u ** (g + 1) - 1.0) * du
    term2 = np.sign(u - 1.0)
    assert term1 == 0.0 and term2 == 0.0


def test_potential_residual_negative_control(acc_profile):
    corrupted = dataclasses.replace(acc_profile, u=1.05 * acc_profile.u,
                                    phi_bar=1.05 * acc_profile.phi_bar)
    assert potential_ode_residual(corrupted) > 0.05


def test_profile_functions_read_the_profiles_gas():
    """On a gamma = 1.5 profile, each profile function gives its formula
    evaluated with profile.params, to the last bit."""
    params = gamma_family(1.5)
    prof = integrate_profile(params, critical_inlet(params, 0.9), u_target=1.4)
    g, us, J, S0 = params.gamma, params.u_sonic, params.J, params.S0
    u, E, du = prof.u, prof.E, prof.du
    alpha = 1.0 - (u / us) ** (g + 1.0)
    beta = (E - (g + 1.0) * du * u) * u ** (g - 1.0) / us ** (g + 1.0)
    rep = kz_check(prof)
    assert np.array_equal(rep.alpha11, alpha) and np.array_equal(rep.beta1, beta)
    # PCHIP gives the node values back at every node but the last
    a_nodes, b_nodes = kz_coefficients(prof, prof.x1[:-1])
    assert np.array_equal(a_nodes, alpha[:-1]) and np.array_equal(b_nodes, beta[:-1])
    filled = reconstruct_fields(prof)
    assert np.array_equal(filled.rho, J / u) and np.array_equal(filled.p, S0 * (J / u) ** g)
    H = np.maximum(np.asarray(enthalpy(params, u)), 0.0)
    res = (u ** (g + 1.0) - us ** (g + 1.0)) * du - np.sign(u - us) * np.sqrt(2.0 * H) * u ** g
    assert potential_ode_residual(prof) == float(np.max(np.abs(res)))


def test_potential_residual_of_a_raw_profile(canonical):
    """The residual reads u and du alone: a profile not yet reconstructed
    gives exactly the value of its reconstructed copy."""
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=1.5)
    assert not prof.fields_filled
    assert potential_ode_residual(prof) == \
        potential_ode_residual(reconstruct_fields(prof))


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------

def test_verify_lemma_accelerating(canonical):
    rep = verify_lemma(canonical, critical_inlet(canonical, 0.95))
    assert rep.branch == "accelerating"
    assert rep.passed, [(c.name, c.margin, c.detail) for c in rep.claims]
    assert {c.name for c in rep.claims} == {"monotonic", "terminal_slope",
                                            "coverage", "sonic_crossing"}


def test_verify_lemma_decelerating_gamma3(canonical):
    rep = verify_lemma(canonical, critical_inlet(canonical, 1.05, branch="decelerating"))
    assert rep.branch == "decelerating"
    assert rep.passed, [(c.name, c.margin, c.detail) for c in rep.claims]
    assert rep.lmax is not None and not rep.lmax.finite  # gamma = 3 >= 2


def test_verify_lemma_off_critical_coverage_fails(canonical):
    e0 = float(critical_field(canonical, 0.95))
    # toward the sonic speed, then away from it below and above
    for inlet in (InletData(0.95, e0 + 1e-3), InletData(0.9, 0.01), InletData(1.2, 0.01)):
        rep = verify_lemma(canonical, inlet)
        assert rep.branch == "off-critical"
        assert not rep.claim("coverage").passed
        assert not rep.claim("sonic_crossing").passed
        assert not rep.passed


def test_verify_lemma_off_critical_coverage_is_exact(canonical, monkeypatch):
    # the coverage margin is the true Hausdorff distance, also far off the branch
    # (a fixed window of +-80 segments gave 1.029809587 and 982.3454246 here)
    e0 = float(critical_field(canonical, 0.95))
    seen = []
    hausdorff = profile1d._polyline_hausdorff
    monkeypatch.setattr(profile1d, "_polyline_hausdorff",
                        lambda P, Q: seen.append((P, Q)) or hausdorff(P, Q))
    for inlet, value in ((InletData(1.2, 0.01), 1.025777764),
                         (InletData(0.95, e0 + 1e-3), 505.5635558)):
        margin = verify_lemma(canonical, inlet).claim("coverage").margin
        P, Q = seen[-1]
        brute = max(directed_polyline_distance(P, Q), directed_polyline_distance(Q, P))
        assert margin == pytest.approx(brute, rel=1e-12)
        assert margin == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("u0, E0", [(0.9985, -0.001), (0.9995, -0.001), (1.0005, -0.001),
                                     (0.9985, -0.01)])
def test_verify_lemma_inlet_between_guard_and_sonic_speed(canonical, u0, E0):
    # verify_lemma stops off-critical runs at u_sonic*(1 -/+ 2e-3) before the
    # sonic band; these inlets start between that guard and the sonic speed,
    # heading for it, and are integrated without the guard
    rep = verify_lemma(canonical, InletData(u0, E0))
    assert rep.branch == "off-critical" and not rep.passed
    if u0 == 0.9985 and E0 == -0.001:
        # E turns positive at x ~ 0.002 and u turns back before the band:
        # the same report as an inlet below the guard
        below = verify_lemma(canonical, InletData(0.997, E0))
        assert [(c.name, c.passed) for c in rep.claims] == [(c.name, c.passed) for c in below.claims]
        assert rep.claim("coverage").margin == pytest.approx(below.claim("coverage").margin, rel=1e-3)
    else:
        # the run blows up: all four claims fail at once, with no l_max report
        assert [(c.name, c.passed, c.margin, c.detail) for c in rep.claims] == [
            ("monotonic", False, 0.0, "integration blew up at the sonic band"),
            ("terminal_slope", False, math.inf, "no profile"),
            ("coverage", False, math.inf, "off-critical data does not lie on the critical branch"),
            ("sonic_crossing", False, math.inf, "no profile")]
        assert rep.lmax is None


def test_verify_lemma_equilibrium_inlet(canonical):
    # (u_bar, 0) is a fixed point: the run stays there, so the branch polyline
    # over its u-range is a single vertex and the margin is the distance to it
    ub = canonical.u_bar
    rep = verify_lemma(canonical, InletData(ub, 0.0))
    assert rep.branch == "off-critical" and not rep.passed
    assert rep.claim("coverage").margin == abs(float(critical_field(canonical, ub)))


# ---------------------------------------------------------------------------
# coverage distance against a scan over every segment
# ---------------------------------------------------------------------------

@st.composite
def polylines(draw):
    """u-monotone, turning back in u, with repeated vertices (zero-length
    segments), vertical (one u for all vertices) or a closed loop."""
    kind = draw(st.sampled_from(["monotone", "turning", "repeated", "vertical", "closed loop"]))
    n = draw(st.integers(2, 60))
    du = st.floats(1e-3, 1.0) if kind == "monotone" else st.floats(-1.0, 1.0)
    # each step drawn on its own (no fill value), so that vertices are not on a lattice
    steps = np.column_stack([draw(hnp.arrays(float, n - 1, elements=du, fill=st.nothing())),
                             draw(hnp.arrays(float, n - 1, elements=st.floats(-1.0, 1.0),
                                             fill=st.nothing()))])
    start = draw(hnp.arrays(float, 2, elements=st.floats(-10.0, 10.0)))
    Q = start + np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    if kind == "repeated":
        Q = np.repeat(Q, draw(hnp.arrays(np.int64, n, elements=st.integers(1, 3))), axis=0)
    elif kind == "vertical":
        Q[:, 0] = start[0]
    elif kind == "closed loop":
        # once around start: angle steps from the first column, radii from the second
        turn = np.concatenate([[0.0], np.cumsum(np.abs(steps[:, 0]) + 1e-3)])
        angle = 2.0 * math.pi * turn / (turn[-1] * n / (n - 1))
        radius = 1.0 + 0.5 * np.concatenate([[0.0], steps[:, 1]])
        Q = start + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        Q = np.vstack([Q, Q[:1]])
    return Q


@st.composite
def point_sets(draw, Q):
    """Points near Q, far from it (distance >> segment length), or on an arc
    around Q's last vertex beyond its end (many nearly equal distances)."""
    kind = draw(st.sampled_from(["near", "far", "arc"]))
    k = draw(st.integers(1, 60))
    unit = hnp.arrays(float, k, elements=st.floats(0.0, 1.0))
    if kind == "near":
        seg = np.minimum((draw(unit) * (len(Q) - 1)).astype(int), len(Q) - 2)
        t = draw(unit)[:, None]
        jitter = draw(hnp.arrays(float, (k, 2), elements=st.floats(-1.0, 1.0)))
        return Q[seg] + t * (Q[seg + 1] - Q[seg]) + 10.0 ** draw(st.integers(-8, 0)) * jitter
    if kind == "far":
        angle = 2.0 * math.pi * draw(unit)
        ring = np.column_stack([np.cos(angle), np.sin(angle)])
        return Q.mean(axis=0) + 10.0 ** draw(st.integers(3, 6)) * (1.0 + draw(unit))[:, None] * ring
    out = Q[-1] - Q[-2]
    angle = math.atan2(out[1], out[0]) + np.linspace(-1.5, 1.5, k)
    return Q[-1] + draw(st.floats(1e-3, 1e3)) * np.column_stack([np.cos(angle), np.sin(angle)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polylines(), st.data(), st.sampled_from([profile1d.PAIR_BUDGET, 16, 3]))
def test_seg_point_dist_matches_brute_force(Q, data, budget):
    P = data.draw(point_sets(Q))
    window = profile1d._window_d2

    def bounded(pts, A, B, L2, first, width):
        assert len(pts) * min(width, budget) <= budget
        return window(pts, A, B, L2, first, width)

    with mock.patch.object(profile1d, "PAIR_BUDGET", budget), \
            mock.patch.object(profile1d, "_window_d2", bounded):
        assert profile1d._seg_point_dist(P, Q) == directed_polyline_distance(P, Q)
        if len(P) >= 2:  # the points as a polyline that turns back
            assert profile1d._seg_point_dist(Q, P) == directed_polyline_distance(Q, P)


def test_seg_point_dist_tiny_distances():
    # Points 1e-10 to 1e-7 from the vertices of unit-size polylines: the
    # segment formula's rounding, a few ulps of the segment length, is far
    # above a relative 1e-9 of these distances, and the search must still
    # not drop the point that sets the maximum.
    rng = np.random.default_rng(5)
    for _ in range(300):
        Q = np.cumsum(rng.uniform(-1.0, 1.0, (rng.integers(2, 8), 2)), axis=0)
        k = rng.integers(2, 40)
        angle = rng.uniform(0.0, 2.0 * math.pi, k)
        P = (Q[rng.integers(0, len(Q), k)]
             + 10.0 ** rng.uniform(-10.0, -7.0) * np.column_stack([np.cos(angle), np.sin(angle)]))
        assert profile1d._seg_point_dist(P, Q) == directed_polyline_distance(P, Q)


def test_seg_point_dist_prunes_decoy_windows(monkeypatch):
    # A thousand points lie 0.1-0.2 from a dense line.  Twenty more lie within
    # 0.01 of Q's first segment, 100 long, but their nearest vertices are on
    # a wiggle at the far end of Q, 2000 segments away.  With the box
    # certificate and the early break the search evaluates fewer pairs than
    # a full scan; without either one it evaluates two to three times more.
    rng = np.random.default_rng(3)
    line = np.column_stack([np.linspace(100.0, 0.0, 2000), np.full(2000, 10.0)])
    xs = np.linspace(40.0, 60.0, 100)
    Q = np.vstack([[[0.0, 0.0], [100.0, 0.0]], line,
                   np.column_stack([xs, 1.0 + 0.05 * np.sin(7.0 * xs)])])
    P = np.vstack([np.column_stack([rng.uniform(5.0, 95.0, 1000),
                                    10.0 + rng.uniform(0.1, 0.2, 1000) * rng.choice([-1.0, 1.0], 1000)]),
                   np.column_stack([rng.uniform(45.0, 55.0, 20), rng.uniform(-0.01, 0.01, 20)])])
    pairs = []
    window = profile1d._window_d2
    monkeypatch.setattr(profile1d, "_window_d2",
                        lambda pts, *rest: pairs.append(len(pts) * rest[-1]) or window(pts, *rest))
    assert profile1d._seg_point_dist(P, Q) == directed_polyline_distance(P, Q)
    assert sum(pairs) < len(P) * (len(Q) - 1)


def _seed_worst_cases(n=2000):
    t = np.linspace(0.0, 2.0 * math.pi, n)
    return {"vertical": np.column_stack([np.full(n, 3.0), np.linspace(0.0, 10.0, n)]),
            "circle": np.column_stack([np.cos(t), np.sin(t)]),
            "repeated first coordinates": np.column_stack(
                [np.repeat(np.arange(n // 50), 50).astype(float),
                 np.random.default_rng(1).uniform(-1.0, 1.0, n)])}


@pytest.mark.parametrize("shape", list(_seed_worst_cases()))
def test_seg_point_dist_seed_worst_cases(shape, monkeypatch):
    # Polylines on which the vertices bracketing a point's first coordinate
    # can lie far from it: every vertex has the same one, the bracket sits
    # on the wrong half of the circle, or fifty vertices share each one.  The
    # k-d stage takes those points; a seed from the sort alone, with windows
    # doubling from there, evaluates a large fraction of all pairs.
    Q = _seed_worst_cases()[shape]
    rng = np.random.default_rng(2)
    seg = rng.integers(0, len(Q) - 1, len(Q))
    P = (Q[seg] + rng.uniform(0.0, 1.0, (len(Q), 1)) * (Q[seg + 1] - Q[seg])
         + 1e-3 * rng.normal(size=(len(Q), 2)))
    pairs = []
    window = profile1d._window_d2
    monkeypatch.setattr(profile1d, "_window_d2",
                        lambda pts, *rest: pairs.append(len(pts) * rest[-1]) or window(pts, *rest))
    assert profile1d._seg_point_dist(P, Q) == directed_polyline_distance(P, Q)
    assert sum(pairs) < 0.01 * len(P) * (len(Q) - 1)


def test_verify_lemma_coverage_certifies_most_points_from_the_sort(canonical, monkeypatch):
    # both polylines of a critical profile are graphs over u: the sort seed
    # certifies all but a few points of each coverage distance, and the first
    # full scan leaves none of those, so no k-d tree is built
    built, sent = [], []
    tree = profile1d.cKDTree

    class CountingTree:
        def __init__(self, Q):
            built.append(len(Q))
            self.tree = tree(Q)

        def query(self, P):
            sent.append(len(P))
            return self.tree.query(P)

    monkeypatch.setattr(profile1d, "cKDTree", CountingTree)
    for inlet in (critical_inlet(canonical, 0.95),
                  critical_inlet(canonical, 1.05, branch="decelerating")):
        assert verify_lemma(canonical, inlet).passed
    assert max(sent, default=0) <= 10, sent
    assert built == [], built


@pytest.mark.parametrize("u0, branch", [(0.95, "accelerating"), (1.05, "decelerating")])
def test_seg_point_dist_exact_on_lemma_polylines(canonical, u0, branch, monkeypatch):
    # the coverage distance's real inputs, the (u, E) polyline of a critical
    # profile and the dense analytic branch: every 40th point of either one
    # against all of the other, in both directions, bit for bit
    seen = []
    hausdorff = profile1d._polyline_hausdorff
    monkeypatch.setattr(profile1d, "_polyline_hausdorff",
                        lambda P, Q: seen.append((P, Q)) or hausdorff(P, Q))
    assert verify_lemma(canonical, critical_inlet(canonical, u0, branch=branch)).passed
    (P, Q), = seen
    for points, polyline in ((P[::40], Q), (Q[::40], P)):
        assert profile1d._seg_point_dist(points, polyline) == \
            directed_polyline_distance(points, polyline)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_roundtrip(canonical, acc_profile, tmp_path):
    text = profile_csv_text(acc_profile)
    lines = text.strip().split("\n")
    assert lines[0] == "x1,u,E,rho,p,Phi,phi_bar"
    assert len(lines) == acc_profile.n_samples + 1
    path = tmp_path / "profile.csv"
    path.write_text(text)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # full double precision round trip
    assert np.array_equal(data[:, 0], acc_profile.x1)
    assert np.array_equal(data[:, 1], acc_profile.u)
    assert np.array_equal(data[:, 6], acc_profile.phi_bar)


def test_csv_requires_fields(canonical):
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=1.5)
    with pytest.raises(ValueError, match="reconstruct"):
        profile_csv_text(prof)
