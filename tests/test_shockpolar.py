import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import normal_shock_cubic_gamma2, oblique_shock_cubic_gamma2
from sonicflow.shockpolar import (DetachedShockError, SelfSimilarState,
                                  UpstreamState, bernoulli_density, compute_polar,
                                  normal_shock, pseudo_sonic_geometry, weak_state)

prop = settings(derandomize=True, max_examples=40, deadline=None)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def upstream():
    return UpstreamState(gamma=2.0, rho_inf=1.0, q_inf=2.0)


@pytest.fixture(scope="module")
def polar(upstream):
    return compute_polar(upstream)


def test_upstream_validation():
    with pytest.raises(ValueError, match="supersonic"):
        UpstreamState(gamma=2.0, rho_inf=1.0, q_inf=0.5)
    with pytest.raises(ValueError, match="gamma"):
        UpstreamState(gamma=1.0, rho_inf=1.0, q_inf=2.0)
    # c_inf**2 = rho_inf**(gamma-1) overflows (a float power raises), or
    # underflows to 1e-594, which leaves the polar nothing to measure from
    for gamma, rho_inf in ((100.0, 1e300), (1e308, 2.0)):
        with pytest.raises(ValueError, match=re.escape("c_inf**2 = rho_inf**(gamma-1) must be finite")):
            UpstreamState(gamma=gamma, rho_inf=rho_inf, q_inf=2.0)
    with pytest.raises(ValueError, match=re.escape("c_inf**2 = rho_inf**(gamma-1) must be >= 2.22507e-308, "
                                                   "got 0")):
        UpstreamState(gamma=100.0, rho_inf=1e-6, q_inf=2.0)


def test_bernoulli_density(upstream):
    assert upstream.B0 == pytest.approx(2.0, abs=1e-15)
    assert bernoulli_density(upstream, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert bernoulli_density(upstream, SQRT3 - 1.0) == pytest.approx(SQRT3 + 1.0, rel=1e-13)
    limit = math.sqrt(2.0 * (upstream.B0 + 1.0))
    with pytest.raises(ValueError, match="cavitation"):
        bernoulli_density(upstream, limit + 1e-6)


def test_normal_shock(upstream):
    u, rho = normal_shock(upstream)
    assert u == pytest.approx(SQRT3 - 1.0, abs=1e-12)
    assert rho == pytest.approx(SQRT3 + 1.0, abs=1e-12)
    # independent oracle: smallest positive root of the reduced cubic
    assert u == pytest.approx(normal_shock_cubic_gamma2(1.0, 2.0), abs=1e-10)
    # downstream is subsonic
    assert u * u < rho ** (upstream.gamma - 1.0)
    # mass-flux residual
    assert abs(rho * u - upstream.rho_inf * upstream.q_inf) <= 1e-12


def test_normal_shock_vanishing_limit():
    st_sonic = UpstreamState(gamma=2.0, rho_inf=1.0, q_inf=1.0)
    u, rho = normal_shock(st_sonic)
    assert u == 1.0 and rho == 1.0


def test_polar_endpoints(upstream, polar):
    assert polar.u1[0] == pytest.approx(2.0, abs=1e-10)
    assert abs(polar.u2[0]) < 1e-10
    assert polar.u1[-1] == pytest.approx(SQRT3 - 1.0, abs=1e-10)
    assert abs(polar.u2[-1]) < 1e-12
    assert polar.normal_state[0] == pytest.approx(SQRT3 - 1.0, abs=1e-12)


def test_polar_rh_residuals(polar):
    assert float(np.max(polar.residuals)) <= 1e-10


def test_polar_compressive(upstream, polar):
    assert np.all(polar.rho >= upstream.rho_inf - 1e-12)


def test_deflection_shape(polar):
    # zero at both endpoints, positive inside, maximum attained inside
    assert polar.deflection[0] == pytest.approx(0.0, abs=1e-10)
    assert polar.deflection[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(polar.deflection[1:-1] > 0.0)
    i = int(np.argmax(polar.deflection))
    assert 0 < i < len(polar.deflection) - 1


def test_angles(polar):
    assert 0.0 < polar.theta_sonic < polar.theta_d
    # golden-section refinement vs parabolic interpolation of the samples
    i = int(np.argmax(polar.deflection))
    s3 = polar.sigma[i - 1:i + 2]
    t3 = polar.deflection[i - 1:i + 2]
    coef = np.polyfit(s3, t3, 2)
    s_fit = -coef[1] / (2.0 * coef[0])
    theta_fit = float(np.polyval(coef, s_fit))
    assert abs(theta_fit - polar.theta_d) <= 1e-8


def test_polar_symmetry(upstream, polar):
    """Reflecting u2 maps polar points to polar points (mirror shocks)."""
    for idx in (100, 800, 1500):
        u1, u2 = polar.u1[idx], -polar.u2[idx]
        speed = math.hypot(u1, u2)
        rho = bernoulli_density(upstream, speed)
        # mirrored state satisfies the same jump relations: check mass flux
        # across the mirrored front (angle -sigma)
        s = polar.sigma[idx]
        w = math.sin(s) * u1 - math.cos(s) * (-u2)
        assert abs(rho * w - upstream.rho_inf * upstream.q_inf * math.sin(s)) <= 1e-9


def test_weak_state_conventions(upstream, polar):
    v, rho, _ = weak_state(polar, 0.0)
    assert v[0] == pytest.approx(2.0, abs=1e-9)
    assert abs(v[1]) < 1e-9
    assert rho == pytest.approx(1.0, abs=1e-8)
    v_strong, _, _ = weak_state(polar, 0.0, branch="strong")
    assert v_strong[0] == pytest.approx(SQRT3 - 1.0, abs=1e-9)


def test_weak_vs_strong_speed(polar):
    for theta in (0.05, 0.15, 0.3):
        vw, _, _ = weak_state(polar, theta)
        vs, _, _ = weak_state(polar, theta, branch="strong")
        assert np.hypot(*vw) > np.hypot(*vs)
        assert math.atan2(vw[1], vw[0]) == pytest.approx(theta, abs=1e-10)
        assert math.atan2(vs[1], vs[0]) == pytest.approx(theta, abs=1e-10)


def test_tangency_continuity(polar):
    for eps, bound in ((1e-4, 0.1), (1e-6, 0.01)):
        vw, _, _ = weak_state(polar, polar.theta_d - eps)
        vs, _, _ = weak_state(polar, polar.theta_d - eps, branch="strong")
        assert np.hypot(*(vw - vs)) < bound


def test_detached(polar):
    with pytest.raises(DetachedShockError, match="detached"):
        weak_state(polar, polar.theta_d + 0.01)


@prop
@given(st.floats(1.3, 3.0), st.floats(1.3, 3.5))
def test_polar_angles_generic(gamma, q_inf):
    state = UpstreamState(gamma=gamma, rho_inf=1.0, q_inf=q_inf)
    curve = compute_polar(state, n_samples=512)
    assert curve.theta_sonic < curve.theta_d
    assert float(np.max(curve.residuals)) <= 1e-10


@pytest.mark.parametrize("gamma, rho_inf, q_inf",
                         [(2.0, 1.0, 2.0), (1.4, 1.0, 3.0), (5.0 / 3.0, 0.5, 1.2), (3.0, 1.0, 1.5)])
def test_weak_side_near_the_acoustic_angle(gamma, rho_inf, q_inf):
    # next to the acoustic angle the compressive root sits close to the
    # trivial root w = u_n; a root search that can land on the trivial one
    # returns the vanishing shock (u2 = 0) there and flattens the deflection
    curve = compute_polar(UpstreamState(gamma=gamma, rho_inf=rho_inf, q_inf=q_inf),
                          n_samples=20000)
    i_d = int(np.argmax(curve.deflection))
    assert np.all(np.diff(curve.deflection[1:i_d + 1]) > 0.0)
    assert np.all(curve.u2[1:] > 0.0)
    assert float(np.max(curve.residuals)) <= 1e-10


@pytest.mark.parametrize("rho_inf, q_inf", [(1.0, 2.0), (0.5, 1.7), (2.0, 5.0)])
def test_polar_matches_cubic_roots(rho_inf, q_inf):
    """gamma = 2: every sample against the smallest positive cubic root."""
    curve = compute_polar(UpstreamState(gamma=2.0, rho_inf=rho_inf, q_inf=q_inf), n_samples=1000)
    w = oblique_shock_cubic_gamma2(rho_inf, q_inf, curve.sigma)
    sin_s, cos_s = np.sin(curve.sigma), np.cos(curve.sigma)
    u1 = q_inf * cos_s * cos_s + w * sin_s
    u2 = cos_s * (q_inf * sin_s - w)
    np.testing.assert_allclose(curve.u1, u1, rtol=1e-12)
    np.testing.assert_allclose(curve.u2, u2, rtol=0.0, atol=1e-12 * q_inf)


def test_polar_needs_three_samples(upstream):
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match=f"n_samples must be at least 3, got {n}"):
            compute_polar(upstream, n_samples=n)
    curve = compute_polar(upstream, n_samples=3)
    assert 0.0 < curve.theta_sonic < curve.theta_d


def _mach_state(gamma, rho_inf, mach):
    return UpstreamState(gamma=gamma, rho_inf=rho_inf, q_inf=mach * rho_inf ** (0.5 * (gamma - 1.0)))


# (gamma, rho_inf, Mach) where double precision runs out, and the limit hit:
# a polar whose angles are about 1.6e-9, where the computed sonic angle
# (1.62e-9) is not below the detachment angle (1.59e-9), and a deflection
# that peaks at the normal shock
POLAR_LIMITS = [((1.0001, 1.0, 1.000001), "sonic angle 1.62e-09 not below the detachment angle 1.59e-09"),
                ((1.01, 1.0, 20.0), "no bracketable detachment maximum")]


@pytest.mark.parametrize("gmr, limit", POLAR_LIMITS)
def test_polar_names_the_precision_limit(gmr, limit):
    state = _mach_state(*gmr)
    with pytest.raises(ValueError) as info:
        compute_polar(state, n_samples=2000)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"shock polar of gamma={state.gamma:.9g}, rho_inf={state.rho_inf:.9g}, "
                              f"q_inf={state.q_inf:.9g}: {limit}"), message


def test_polar_limit_checks_leave_nearby_states_alone():
    # next to the limit states (another Mach number or gamma) the polar computes;
    # so do gamma 100 with rho_inf 1e3, where c**2 is about 1e297, and three
    # states that used to hit a limit: c_inf**2 = 1e-54, lost next to the 1 of
    # c**2 = 1 + (gamma-1)*(B0 - q**2/2), and Mach 1.000001 at rho_inf 1e-6 and
    # 1e-3, whose sampled deflection tied at its peak or whose sonic gap changed
    # sign between the array sweep and a scalar refinement
    for gmr in ((1.4, 1e-6, 1.01), (1.01, 1.0, 3.0), (3.0, 1e-6, 3.0), (100.0, 1e3, 2.0),
                (1.0001, 1.0, 1.001), (10.0, 1e-6, 3.0), (1.4, 1e-6, 1.000001),
                (1.4, 1e-3, 1.000001)):
        curve = compute_polar(_mach_state(*gmr), n_samples=2000)
        assert 0.0 < curve.theta_sonic < curve.theta_d
        assert float(np.max(curve.residuals)) <= 1e-8 * curve.upstream.q_inf


def test_angles_match_a_60_digit_evaluation():
    # reference values computed with mpmath at 60 digits from the same
    # double-precision state: the compressive mass-flux root by findroot at
    # each inclination, theta_d by a golden-section maximization of the
    # deflection, sigma_s from the closed form and theta_s the deflection
    # there.  The old c**2 = 1 + (gamma-1)*(B0 - q**2/2) lost c_inf**2 = 1e-12
    # and gave 3.367e-5, 3.200e-5 and 1.5316
    curve = compute_polar(_mach_state(3.0, 1e-6, 1.001), n_samples=2000)
    assert curve.theta_d == pytest.approx(1.7197492460535717e-5, rel=1e-8)
    assert curve.theta_sonic == pytest.approx(1.579558925646183e-5, rel=1e-8)
    assert curve.sigma_sonic == pytest.approx(1.5391919835805599, rel=1e-12)


def test_sonic_inclination_in_closed_form():
    # gamma 2, Mach 2: d = 3, R = 4, so sin(sigma_s)**2 = 2/3 exactly
    curve = compute_polar(UpstreamState(gamma=2.0, rho_inf=1.0, q_inf=2.0))
    exact = math.asin(math.sqrt(2.0 / 3.0))
    assert abs(curve.sigma_sonic - exact) <= math.ulp(exact)


@pytest.mark.parametrize("gamma", [1.4, 3.0, 10.0, 100.0])
def test_angles_depend_only_on_gamma_and_mach(gamma):
    # c_inf**2 = rho_inf**(gamma-1) spans 1e-297 to 1e297 here; gamma 100 with
    # rho_inf 1e-6 is left out, since its c_inf**2 underflows and is rejected
    rhos = (1e-3, 1.0, 1e3) if gamma == 100.0 else (1e-6, 1e-3, 1.0, 1e3)
    for mach in (1.001, 1.1, 2.0, 3.0, 20.0, 100.0, 1000.0):
        curves = [compute_polar(_mach_state(gamma, rho, mach), n_samples=2000) for rho in rhos]
        ref = curves[2]
        for curve in curves:
            assert curve.theta_d == pytest.approx(ref.theta_d, rel=1e-6), (mach, curve.upstream)
            assert curve.theta_sonic == pytest.approx(ref.theta_sonic, rel=1e-6), (mach, curve.upstream)
            assert curve.sigma_sonic == pytest.approx(ref.sigma_sonic, rel=1e-12), (mach, curve.upstream)


def test_overflowing_stagnation_density_is_rejected():
    # gamma 1.01 at q_inf 1000: the density at rest is 5001**100
    with pytest.raises(ValueError, match="stagnation density"):
        UpstreamState(gamma=1.01, rho_inf=1.0, q_inf=1000.0)


# ---------------------------------------------------------------------------
# pseudo-sonic geometry
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def geometry():
    state = SelfSimilarState(gamma=2.0, u0_vec=(1.0, 0.0), rho0=1.0, k=0.0)
    return pseudo_sonic_geometry(state, theta_w=0.3, configuration="wedge-flow")


def test_potential_value(geometry):
    assert geometry.potential((1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_sonic_radius():
    state = SelfSimilarState(gamma=3.0, u0_vec=(0.0, 0.0), rho0=2.0)
    assert state.sonic_radius ** 2 == pytest.approx(state.rho0 ** (state.gamma - 1.0), rel=1e-14)


def test_circle_maps_to_x_zero(geometry):
    for y in (-0.4, 0.0, 0.7):
        xi = geometry.from_local(0.0, y)
        x, y_back = geometry.to_local(xi)
        assert abs(x) < 1e-14
        assert y_back == pytest.approx(y, abs=1e-14)


@prop
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_roundtrip_and_gradient(geometry, a, b):
    xi = np.array([1.0 + 0.5 * a, 0.5 * b])
    x, y = geometry.to_local(xi)
    back = geometry.from_local(x, y)
    assert np.max(np.abs(back - xi)) <= 1e-12
    grad = geometry.gradient(xi)
    d = xi - np.array([1.0, 0.0])
    assert np.dot(grad, grad) == pytest.approx(np.dot(d, d), rel=1e-12, abs=1e-14)


def test_reflection_configuration_map():
    state = SelfSimilarState(gamma=2.0, u0_vec=(0.5, 0.2), rho0=1.5, k=0.1)
    geo = pseudo_sonic_geometry(state, theta_w=0.4, configuration="reflection")
    xi = geo.from_local(0.05, 0.1)
    x, y = geo.to_local(xi)
    assert (x, y) == (pytest.approx(0.05, abs=1e-13), pytest.approx(0.1, abs=1e-13))
    with pytest.raises(ValueError, match="configuration"):
        pseudo_sonic_geometry(state, 0.4, "spiral")
