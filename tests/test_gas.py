import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import bisect_root, h_quadrature
from sonicflow.gas import (ACCELERATING, DECELERATING, OFF_CRITICAL, GasParams,
                           critical_field, enthalpy, enthalpy_curvature_at_sonic,
                           find_u_star)
from sonicflow.profile1d import InletData, _inlet_course

prop = settings(derandomize=True, max_examples=60, deadline=None)


def test_derived_constants(canonical):
    assert canonical.u_sonic == pytest.approx(1.0, abs=1e-15)
    assert canonical.u_bar == pytest.approx(2.0, abs=1e-15)
    assert canonical.zeta0 == pytest.approx(2.0, abs=1e-15)


def test_param_validation():
    with pytest.raises(ValueError, match="gamma"):
        GasParams(gamma=1.0, S0=1.0, J=1.0, rho_ion=1.0)
    with pytest.raises(ValueError, match="S0"):
        GasParams(gamma=2.0, S0=0.0, J=1.0, rho_ion=1.0)
    with pytest.raises(ValueError, match="J"):
        GasParams(gamma=2.0, S0=1.0, J=-1.0, rho_ion=1.0)
    with pytest.raises(ValueError, match="rho_ion"):
        GasParams(gamma=2.0, S0=1.0, J=1.0, rho_ion=0.0)


def test_enthalpy_values(canonical):
    # equal limits at the sonic speed
    assert enthalpy(canonical, 1.0) == pytest.approx(0.0, abs=1e-14)
    # closed antiderivative F(t) = 2t - t^2/2 + (2/3)t^-3 - (1/2)t^-2 gives 7/48
    assert enthalpy(canonical, 2.0) == pytest.approx(7.0 / 48.0, rel=1e-13)
    assert h_quadrature(3.0, 1 / 3, 1.0, 0.5, 2.0) == pytest.approx(7.0 / 48.0, rel=1e-11)
    with pytest.raises(ValueError):
        enthalpy(canonical, 0.0)
    with pytest.raises(ValueError):
        enthalpy(canonical, -1.0)


def test_enthalpy_stationary_at_ubar(canonical):
    # the (u_bar - t) factor kills H' at u = u_bar
    h = 1e-6
    d = (enthalpy(canonical, 2.0 + h) - enthalpy(canonical, 2.0 - h)) / (2 * h)
    assert abs(d) < 1e-9


def test_closed_form_vs_quadrature_grid(canonical):
    us, ub = canonical.u_sonic, canonical.u_bar
    grid = np.geomspace(0.01 * us, 10.0 * ub, 200)
    for u in grid:
        hq = h_quadrature(3.0, 1 / 3, 1.0, 0.5, float(u))
        hc = float(enthalpy(canonical, float(u)))
        assert hc == pytest.approx(hq, rel=1e-10, abs=1e-13)


def test_critical_field_values(canonical):
    assert critical_field(canonical, 1.0) == 0.0
    assert critical_field(canonical, 2.0) == pytest.approx(math.sqrt(7.0 / 24.0), rel=1e-13)
    # sign conventions: (u - u_s) E >= 0 accelerating, <= 0 decelerating
    assert critical_field(canonical, 0.9, ACCELERATING) < 0.0
    assert critical_field(canonical, 0.9, DECELERATING) > 0.0
    assert critical_field(canonical, 1.5, DECELERATING) < 0.0
    with pytest.raises(ValueError):
        critical_field(canonical, 1.0, "sideways")


def test_find_u_star(canonical):
    us1 = find_u_star(canonical)
    us2 = bisect_root(lambda u: h_quadrature(3.0, 1 / 3, 1.0, 0.5, u),
                      canonical.u_bar, 2.0 * canonical.u_bar)
    assert abs(us1 - us2) < 1e-10
    assert us1 == pytest.approx(2.774065663490481, abs=1e-9)
    assert abs(float(enthalpy(canonical, us1))) < 1e-12
    assert us1 > canonical.u_bar
    with pytest.raises(ValueError):
        find_u_star(GasParams(gamma=3.0, S0=1 / 3, J=1.0, rho_ion=2.0))  # zeta0 < 1


def test_curvature_at_sonic(canonical):
    assert enthalpy_curvature_at_sonic(canonical) == pytest.approx(2.0, rel=1e-14)
    h = 1e-4
    fd = (float(enthalpy(canonical, 1 + h)) - 2 * float(enthalpy(canonical, 1.0))
          + float(enthalpy(canonical, 1 - h))) / h ** 2
    assert fd == pytest.approx(2.0, abs=1e-5)


def test_classify_examples(canonical):
    # an inlet's branch and whether u increases from it: on the critical set
    # (|E0**2/2 - H(u0)| <= 1e-9) the sign of (u0 - u_sonic)*E0 decides, and
    # E0 = 0 at the sonic speed counts as decelerating
    assert _inlet_course(canonical, InletData(1.0, 0.0)) == (DECELERATING, False)
    e2 = critical_field(canonical, 2.0)
    assert _inlet_course(canonical, InletData(2.0, e2)) == (ACCELERATING, True)
    assert _inlet_course(canonical, InletData(2.0, -e2)) == (DECELERATING, False)
    # E0**2/2 - H(2) = -7/48: off the critical set, and u' = 0 there
    assert _inlet_course(canonical, InletData(2.0, 0.0)) == (OFF_CRITICAL, False)
    assert _inlet_course(canonical, InletData(2.0, e2 + 1e-6))[0] == OFF_CRITICAL


@prop
@given(st.floats(0.2, 2.7), st.sampled_from([ACCELERATING, DECELERATING]))
def test_critical_field_squared_is_2H(canonical, u, branch):
    assume(abs(u - 2.774065663490481) > 1e-3)
    e = critical_field(canonical, u, branch)
    assert e * e == pytest.approx(2.0 * float(enthalpy(canonical, u)), rel=1e-12, abs=1e-15)
    assert _inlet_course(canonical, InletData(u, e))[0] != OFF_CRITICAL


@prop
@given(st.floats(0.05, 19.0))
def test_enthalpy_derivative_sign(canonical, u):
    """H'(u) = (J/u_bar)(1 - (us/u)^(g+1))(u_bar - u): sign from both factors."""
    us, ub = canonical.u_sonic, canonical.u_bar
    assume(abs(u - us) > 0.02 and abs(u - ub) > 0.02)
    h = 1e-7 * max(u, 1.0)
    d = (float(enthalpy(canonical, u + h)) - float(enthalpy(canonical, u - h))) / (2 * h)
    expect = math.copysign(1.0, (u - us) * (ub - u))
    assert math.copysign(1.0, d) == expect


@prop
@given(st.floats(1.2, 4.0), st.floats(0.3, 3.0))
def test_closed_vs_quadrature_random_params(gamma, u):
    params = GasParams(gamma=gamma, S0=1.0 / gamma, J=1.0, rho_ion=0.5)
    hq = h_quadrature(gamma, 1.0 / gamma, 1.0, 0.5, u)
    assert float(enthalpy(params, u)) == pytest.approx(hq, rel=1e-9, abs=1e-12)
