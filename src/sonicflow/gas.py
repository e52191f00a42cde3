"""Phase-plane algebra for one-dimensional steady Euler-Poisson flow.

The velocity/field pair (u, E) of a one-dimensional steady flow with
self-generated electric field moves along level sets of the first integral
(1/2)E^2 - H(u).  This module provides the gas-parameter container, the
closed-form potential H, the critical level set E = E(u), the second zero
u* of H, and state classification.  All quantities are nondimensional.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

ACCELERATING = "accelerating"
DECELERATING = "decelerating"
OFF_CRITICAL = "off-critical"
BOUNDARY = "boundary"

SUBSONIC = "subsonic"
SONIC = "sonic"
SUPERSONIC = "supersonic"

#: Relative half-width of the velocity band classified as "sonic".
SONIC_BAND = 1e-9


def require_finite(value, what: str) -> float:
    """value() as a float; a ValueError naming `what` if it overflows or is
    not finite."""
    try:
        v = value()
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class GasParams:
    """Constants of the polytropic Euler-Poisson channel flow.

    gamma    -- adiabatic exponent, strictly > 1
    S0       -- entropy constant of the pressure law p = S0 * rho**gamma
    J        -- momentum density rho*u (conserved along the channel)
    rho_ion  -- fixed background charge density
    """

    gamma: float
    S0: float
    J: float
    rho_ion: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1 (isothermal gamma=1 rejected), got {self.gamma}")
        if not self.S0 > 0.0:
            raise ValueError(f"S0 must be > 0, got {self.S0}")
        if not self.J > 0.0:
            raise ValueError(f"J must be > 0, got {self.J}")
        if not self.rho_ion > 0.0:
            raise ValueError(f"rho_ion must be > 0, got {self.rho_ion}")
        try:
            us = self.u_sonic
        except OverflowError:
            us = math.inf
        if not 0.0 < us < math.inf:
            raise ValueError(f"u_sonic = (gamma*S0*J**(gamma-1))**(1/(gamma+1)) "
                             f"must be finite and > 0, got {us}")
        # The slope's denominator scales as (u/u_sonic)**(gamma+1).  Runs reach
        # u* at most, and u* <= 2*u_bar - u_sonic: the integrand of H is at most
        # w(u_bar)*(u_bar - t) with w(t) = 1 - (u_sonic/t)**(gamma+1) on both sides
        # of u_bar, so H(2*u_bar - u_sonic) <= 0.
        require_finite(lambda: (2.0 * self.zeta0 - 1.0) ** (self.gamma + 1.0),
                       f"(2*u_bar/u_sonic - 1)**(gamma+1) (u_bar = {self.u_bar:.6g}, "
                       f"u_sonic = {us:.6g})")

    @property
    def u_sonic(self) -> float:
        """Velocity at which the flow is exactly sonic."""
        g = self.gamma
        return (g * self.S0 * self.J ** (g - 1.0)) ** (1.0 / (g + 1.0))

    @property
    def u_bar(self) -> float:
        """Velocity at which the charge density matches the background."""
        return self.J / self.rho_ion

    @property
    def zeta0(self) -> float:
        """Background-to-sonic velocity ratio; > 1 for the transonic regime."""
        return self.u_bar / self.u_sonic


@dataclass(frozen=True)
class PhaseState:
    """A point (u, E) in the velocity/field phase plane."""

    u: float
    E: float

    def __post_init__(self):
        if not self.u > 0.0:
            raise ValueError(f"u must be > 0, got {self.u}")


@dataclass(frozen=True)
class TrajectoryClass:
    """Classification of a phase state relative to the critical level set."""

    on_critical: bool
    branch: str  # accelerating | decelerating | boundary | off-critical
    regime: str  # subsonic | sonic | supersonic
    deviation: float  # (1/2)E^2 - H(u)


def _check_u(u) -> np.ndarray:
    ua = np.asarray(u, dtype=float)
    if np.any(ua <= 0.0):
        raise ValueError("velocity must be > 0")
    return ua


def enthalpy(params: GasParams, u):
    """Potential H(u) of the phase-plane first integral, in closed form.

    H is the integral from u_sonic to u of
    t**-(gamma+1) * (t**(gamma+1) - u_sonic**(gamma+1)) * (u_bar - t),
    scaled by J/u_bar.  The integrand expands to
    (u_bar - t) - us**(g+1)*u_bar*t**-(g+1) + us**(g+1)*t**-g,
    which has an elementary antiderivative for every gamma > 1.

    Accepts scalars or arrays.
    """
    ua = _check_u(u)
    g = params.gamma
    us = params.u_sonic
    ub = params.u_bar
    usp = us ** (g + 1.0)

    def F(t):
        return (ub * t - 0.5 * t * t
                + (usp * ub / g) * t ** (-g)
                + usp * t ** (1.0 - g) / (1.0 - g))

    out = (params.J / ub) * (F(ua) - F(us))
    return out if out.ndim else float(out)


def enthalpy_quadrature(params: GasParams, u: float) -> float:
    """H(u) by adaptive quadrature; independent cross-check for `enthalpy`."""
    ua = float(_check_u(u))
    g = params.gamma
    us = params.u_sonic
    ub = params.u_bar
    usp = us ** (g + 1.0)

    def integrand(t):
        return t ** (-(g + 1.0)) * (t ** (g + 1.0) - usp) * (ub - t)

    val, _ = quad(integrand, us, ua, epsabs=1e-14, epsrel=1e-13, limit=200)
    return (params.J / ub) * val


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _enthalpy_local(params: GasParams, u: np.ndarray) -> np.ndarray:
    """H at each velocity of the 1-D array u near the sonic speed, without
    subtractive cancellation.

    The closed form computes H as a difference of O(1) antiderivative values,
    which loses relative accuracy when H ~ (u - u_sonic)^2 is tiny.  Here the
    integrand is rewritten with expm1/log1p so each Gauss-Legendre node
    contributes a value proportional to (t - u_sonic), keeping the relative
    error at machine level arbitrarily close to the sonic speed.  The 48 nodes
    of every u form one (len(u), 48) array, summed by one matrix-vector product.
    """
    nodes, weights = _leggauss(48)
    g = params.gamma
    us = params.u_sonic
    ub = params.u_bar
    mid = 0.5 * (u + us)
    half = 0.5 * (u - us)
    t = mid[:, None] + half[:, None] * nodes
    # 1 - (us/t)**(g+1) = -expm1(-(g+1)*log(t/us)), exact as t -> us
    core = -np.expm1(-(g + 1.0) * np.log1p((t - us) / us))
    vals = core * (ub - t)
    return (params.J / ub) * half * (vals @ weights)


def enthalpy_curvature_at_sonic(params: GasParams) -> float:
    """H''(u_sonic) = (J/u_bar)*(gamma+1)*(u_bar - u_sonic)/u_sonic."""
    g = params.gamma
    us = params.u_sonic
    return (params.J / params.u_bar) * (g + 1.0) * (params.u_bar - us) / us


def _branch_sign(branch: str) -> float:
    if branch == ACCELERATING:
        return 1.0
    if branch == DECELERATING:
        return -1.0
    raise ValueError(f"branch must be '{ACCELERATING}' or '{DECELERATING}', got {branch!r}")


def critical_field(params: GasParams, u, branch: str = ACCELERATING):
    """Field value E on the critical level set (1/2)E^2 = H(u).

    The sign follows the branch convention: (u - u_sonic)*E >= 0 on the
    accelerating branch, <= 0 on the decelerating one; E = 0 at u = u_sonic.

    Accepts scalars or arrays.
    """
    s = _branch_sign(branch)
    ua = _check_u(u)
    h = np.asarray(enthalpy(params, ua), dtype=float)
    if np.any(h < -1e-12):
        raise ValueError("H(u) < 0 beyond tolerance: state outside the critical set")
    out = s * np.sign(ua - params.u_sonic) * np.sqrt(2.0 * np.maximum(h, 0.0))
    return out if out.ndim else float(out)


def find_u_star(params: GasParams, method: str = "brent") -> float:
    """Second zero u* > u_bar of H; endpoint of the accelerating branch.

    H rises from 0 at u_sonic, peaks at u_bar and decreases afterwards, so
    for zeta0 > 1 there is exactly one root beyond u_bar.  Found by
    bracketing plus either Brent's method or plain bisection, each to an
    absolute tolerance of 1e-13.
    """
    if not params.zeta0 > 1.0:
        raise ValueError(f"find_u_star requires zeta0 > 1, got {params.zeta0}")
    ub = params.u_bar
    tol = 1e-13
    lo = ub * (1.0 + 1e-9)
    hi = 2.0 * ub
    f = lambda x: float(enthalpy(params, x))
    flo = f(lo)
    if flo <= 0.0:
        raise RuntimeError("configuration error: H(u_bar+) not positive")
    for _ in range(60):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("configuration error: no sign change of H beyond u_bar")

    if method == "brent":
        return float(brentq(f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps))
    if method == "bisect":
        a, b, fa = lo, hi, flo
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
    raise ValueError(f"unknown method {method!r}")


def classify_state(params: GasParams, state: PhaseState, tol: float = 1e-9) -> TrajectoryClass:
    """Classify a phase-plane point against the critical level set.

    A state is on-critical when |(1/2)E^2 - H(u)| <= tol.  The flow regime
    uses a sonic band of relative width SONIC_BAND around u_sonic to avoid
    sign flapping at the degenerate point.  On the critical set the branch
    is decided by the sign of (u - u_sonic)*E; states where either factor
    vanishes belong to both branches and are labelled "boundary".
    """
    u, E = state.u, state.E
    us = params.u_sonic
    dev = 0.5 * E * E - float(enthalpy(params, u))
    on_crit = abs(dev) <= tol

    if abs(u - us) <= SONIC_BAND * us:
        regime = SONIC
    elif u > us:
        regime = SUPERSONIC
    else:
        regime = SUBSONIC

    if not on_crit:
        branch = OFF_CRITICAL
    elif regime == SONIC or abs(E) <= math.sqrt(2.0 * tol):
        branch = BOUNDARY
    elif (u - us) * E > 0.0:
        branch = ACCELERATING
    else:
        branch = DECELERATING

    return TrajectoryClass(on_critical=on_crit, branch=branch, regime=regime, deviation=dev)
