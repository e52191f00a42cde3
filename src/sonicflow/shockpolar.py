"""Steady potential-flow shock polar and self-similar configuration geometry.

Across a straight shock the tangential velocity is continuous, the normal
mass flux is continuous, and the Bernoulli relation

    q**2/2 + (rho**(gamma-1) - 1)/(gamma-1) = B0

holds on both sides.  For a fixed supersonic upstream state these reduce to
one scalar equation per shock inclination; sweeping the inclination traces
the polar of attainable downstream velocities, whose extreme deflection is
the detachment angle and whose sonic point gives the sonic angle.

Also provides the uniform-state pseudo-potential of the self-similar plane,
its pseudo-sonic circle, and the stretched coordinates used near that arc.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .gas import require_finite

#: The self-similar configurations whose local chart `pseudo_sonic_geometry` builds.
CONFIGURATIONS = ("reflection", "wedge-flow")


class DetachedShockError(ValueError):
    """Requested deflection exceeds the detachment angle."""


@dataclass(frozen=True)
class UpstreamState:
    """Uniform supersonic upstream state of a steady potential flow."""

    gamma: float
    rho_inf: float
    q_inf: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if not self.rho_inf > 0.0:
            raise ValueError(f"rho_inf must be > 0, got {self.rho_inf}")
        # every polar quantity is measured from c_inf**2: it may not overflow or underflow
        c2_inf = require_finite(lambda: self.rho_inf ** (self.gamma - 1.0), "c_inf**2 = rho_inf**(gamma-1)")
        if c2_inf < sys.float_info.min:
            raise ValueError(f"c_inf**2 = rho_inf**(gamma-1) must be >= {sys.float_info.min:.6g}, "
                             f"got {c2_inf:.6g}")
        if not self.q_inf > 0.0:
            raise ValueError(f"q_inf must be > 0, got {self.q_inf}")
        if self.q_inf < self.sound_speed * (1.0 - 1e-12):
            raise ValueError(f"upstream must be supersonic: q_inf={self.q_inf} "
                             f"< sound speed {self.sound_speed}")
        require_finite(lambda: self.B0, "Bernoulli constant B0 = q_inf**2/2 + "
                       "(rho_inf**(gamma-1) - 1)/(gamma-1)")
        # the largest density on the Bernoulli level, reached by the normal
        # shock's root search
        require_finite(lambda: _sound_speed_sq(self, 0.0) ** (1.0 / (self.gamma - 1.0)),
                       "stagnation density (c_inf**2 + (gamma-1)*q_inf**2/2)**(1/(gamma-1))")

    @property
    def sound_speed(self) -> float:
        return self.rho_inf ** (0.5 * (self.gamma - 1.0))

    @property
    def B0(self) -> float:
        g = self.gamma
        return 0.5 * self.q_inf ** 2 + (self.rho_inf ** (g - 1.0) - 1.0) / (g - 1.0)


def _sound_speed_sq(state: UpstreamState, speed):
    """c**2 = rho**(gamma-1) = c_inf**2 + (gamma-1)*(q_inf**2 - speed**2)/2 at a flow
    speed: Bernoulli from the upstream state, with no O(1) term to lose c_inf**2 next to."""
    g = state.gamma
    return state.rho_inf ** (g - 1.0) + 0.5 * (g - 1.0) * (state.q_inf * state.q_inf - speed * speed)


def bernoulli_density(state: UpstreamState, speed):
    """Density at the given flow speed (or array of speeds) on the same
    Bernoulli level.

    rho = _sound_speed_sq(speed) ** (1/(gamma-1)); raises on cavitation
    (speed beyond the stagnation-energy limit).
    """
    g = state.gamma
    c2 = _sound_speed_sq(state, speed)
    if np.any(c2 <= 0.0):
        raise ValueError(f"cavitation: speed {float(np.max(speed))} exceeds the Bernoulli bound "
                         f"{math.sqrt(2.0 * _sound_speed_sq(state, 0.0) / (g - 1.0)):.6g}")
    return c2 ** (1.0 / (g - 1.0))


def _normal_root(state: UpstreamState, u_n, v_t) -> np.ndarray:
    """Downstream normal velocity from mass-flux continuity.

    Solves rho(sqrt(w^2 + v_t^2)) * w = rho_inf * u_n for the compressive,
    normal-subsonic root w elementwise, a scalar as a 1-element array.  The
    mass flux g(w) = rho*w has g' = rho*(1 - w^2/c^2) and g'' < 0 while w <= c,
    so it rises, concave, on (0, w*] to its maximum at the normal-sonic speed

        w*^2 = 2*c^2(v_t) / (gamma+1)

    and falls past it.  For u_n > w* the bracket (0, w*] holds exactly one
    root (the trivial root w = u_n lies outside it), and Newton's method
    from w = 0 climbs to it monotonically: on a concave rising function
    every tangent step lands at or below the root.  An element stops once
    its mass flux reaches m (within rounding) or a step no longer moves it
    up.  For u_n <= w* the shock is vanishing and w = u_n.
    """
    g = state.gamma
    u_n, v_t = np.broadcast_arrays(np.atleast_1d(u_n), np.atleast_1d(v_t))
    m = state.rho_inf * u_n
    w_star = np.sqrt(2.0 * _sound_speed_sq(state, v_t) / (g + 1.0))
    live = u_n > w_star
    w = np.zeros_like(w_star)
    # g' rounds to 0 or below only within rounding of a root at w*; the
    # inf or NaN step it gives there is not taken
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            c2 = _sound_speed_sq(state, np.hypot(w, v_t))
            rho = c2 ** (1.0 / (g - 1.0))
            f = rho * w - m
            w_next = np.minimum(w - f / (rho * (1.0 - w * w / c2)), w_star)
            up = live & (f < 0.0) & (w_next > w)
            if not up.any():
                break
            w = np.where(up, w_next, w)
    return np.where(live, w, u_n)


def normal_shock(state: UpstreamState):
    """Downstream (u, rho) of the straight normal shock.

    The subsonic root of rho(u)*u = rho_inf*q_inf.  If the upstream is
    exactly sonic the shock has vanishing strength and the state is returned
    unchanged.
    """
    if state.q_inf <= state.sound_speed * (1.0 + 1e-12):
        return state.q_inf, state.rho_inf
    u = float(_normal_root(state, state.q_inf, 0.0)[0])
    return u, bernoulli_density(state, u)


def _downstream(state: UpstreamState, sigma):
    """Downstream velocity/density across a shock inclined at sigma.

    sigma (a scalar or an array) is the angle between the upstream flow and
    the shock front; sigma = pi/2 is the normal shock.  Returns
    (u1, u2, rho, w_n), 1-d arrays of sigma's size.
    """
    q = state.q_inf
    sigma = np.atleast_1d(sigma)
    sin_s, cos_s = np.sin(sigma), np.cos(sigma)
    u_n = q * sin_s
    v_t = q * cos_s
    w = _normal_root(state, u_n, v_t)
    u1 = v_t * cos_s + w * sin_s
    u2 = cos_s * (u_n - w)
    rho = bernoulli_density(state, np.hypot(w, v_t))
    return u1, u2, rho, w


def _deflection(state: UpstreamState, sigma: float) -> float:
    u1, u2, _, _ = _downstream(state, sigma)
    return float(np.arctan2(u2, u1)[0])


@dataclass(frozen=True)
class ShockPolarCurve:
    """Sampled shock polar with its detachment and sonic angles.

    Samples cover the upper half (u2 >= 0); the polar is symmetric under
    u2 -> -u2.  Only compressive (entropy-consistent) inclinations between
    the acoustic angle and pi/2 are represented.
    """

    upstream: UpstreamState
    sigma: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    rho: np.ndarray
    deflection: np.ndarray
    theta_d: float
    sigma_detach: float
    theta_sonic: float
    sigma_sonic: float
    normal_state: tuple  # (u, rho) at sigma = pi/2
    residuals: np.ndarray = field(repr=False, default=None)


def _polar_limit(state: UpstreamState, limit: str) -> ValueError:
    return ValueError(f"shock polar of gamma={state.gamma:.9g}, rho_inf={state.rho_inf:.9g}, "
                      f"q_inf={state.q_inf:.9g}: {limit}")


def compute_polar(state: UpstreamState, n_samples: int = 2048) -> ShockPolarCurve:
    """Sweep shock inclinations and assemble the polar.

    Every evaluation goes through one array kernel, `_downstream`: the
    n_samples (at least 3) inclinations in one call, and the golden-section
    refinement of the sampled deflection maximum (the detachment angle) on
    one-element arrays.  The sonic angle is in closed form.  The downstream
    state is sonic iff its speed is the critical speed q_*, with
    q_*^2 = (2*c_inf^2 + (gamma-1)*q_inf^2)/(gamma+1), so mass-flux
    continuity fixes sin(sigma_s)^2 = 2*d / ((gamma+1)*(1+d)*(1 - 1/R)),
    d = M^2 - 1, R = (rho_*/rho_inf)^2 = (1 + (gamma-1)*d/(gamma+1))^(2/(gamma-1));
    1 - 1/R comes from expm1 and log1p.  The angles depend only on (gamma, Mach).

    Raises a ValueError naming the upstream state when double precision
    runs out: the sampled deflection gives the golden-section search no
    bracket, or the sonic angle is not below the detachment angle.
    """
    if state.q_inf <= state.sound_speed * (1.0 + 1e-12):
        raise ValueError("polar needs a strictly supersonic upstream")
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3, got {n_samples}")
    g = state.gamma
    sigma_min = math.asin(state.sound_speed / state.q_inf)
    sigma = np.linspace(sigma_min, 0.5 * math.pi, n_samples)
    u1, u2, rho, w = _downstream(state, sigma)
    res = np.abs(rho * w - state.rho_inf * state.q_inf * np.sin(sigma))
    theta = np.arctan2(u2, u1)

    i_max = int(np.argmax(theta))
    lo = sigma[max(0, i_max - 2)]
    mid = sigma[i_max]
    hi = sigma[min(n_samples - 1, i_max + 2)]
    # the golden-section search needs a strict maximum inside its bracket
    if not (lo < mid < hi and _deflection(state, lo) < _deflection(state, mid) > _deflection(state, hi)):
        raise _polar_limit(state, f"no bracketable detachment maximum: the sampled deflection peaks "
                                  f"at sample {i_max} of {n_samples} (sigma = {mid:.9g}, deflection "
                                  f"{theta[i_max]:.3g}) with no strictly smaller value on both sides")
    opt = minimize_scalar(lambda s: -_deflection(state, s),
                          bracket=(lo, mid, hi), method="golden",
                          options={"xtol": 1e-13})
    sigma_d = float(opt.x)
    theta_d = _deflection(state, sigma_d)

    c2_inf = state.rho_inf ** (g - 1.0)
    d = (state.q_inf * state.q_inf - c2_inf) / c2_inf
    log_r = 2.0 / (g - 1.0) * math.log1p((g - 1.0) * d / (g + 1.0))
    sigma_sonic = math.asin(math.sqrt(2.0 * d / ((g + 1.0) * (1.0 + d) * -math.expm1(-log_r))))
    theta_sonic = _deflection(state, sigma_sonic)
    if not theta_sonic < theta_d:
        raise _polar_limit(state, f"sonic angle {theta_sonic:.3g} not below the detachment angle "
                                  f"{theta_d:.3g}")

    return ShockPolarCurve(upstream=state, sigma=sigma, u1=u1, u2=u2, rho=rho,
                           deflection=theta, theta_d=theta_d, sigma_detach=sigma_d,
                           theta_sonic=theta_sonic, sigma_sonic=sigma_sonic,
                           normal_state=normal_shock(state), residuals=res)


def weak_state(curve: ShockPolarCurve, theta_w: float, branch: str = "weak"):
    """Downstream velocity for an attached shock at deflection theta_w.

    The polar is double-valued in deflection; the weak branch (smaller shock
    inclination, larger downstream speed) is the default.  theta_w = 0 on the
    weak branch returns the vanishing shock (q_inf, 0), not the normal shock.
    """
    state = curve.upstream
    if theta_w < 0.0:
        raise ValueError("theta_w must be >= 0")
    if theta_w > curve.theta_d:
        raise DetachedShockError(
            f"detached: no attached shock state for theta_w={theta_w:.6g} "
            f"> theta_d={curve.theta_d:.6g}")
    sigma_min = math.asin(state.sound_speed / state.q_inf)
    if branch == "weak":
        lo, hi = sigma_min, curve.sigma_detach
    elif branch == "strong":
        lo, hi = curve.sigma_detach, 0.5 * math.pi
    else:
        raise ValueError(f"branch must be weak/strong, got {branch!r}")

    f = lambda s: _deflection(state, s) - theta_w
    flo, fhi = f(lo), f(hi)
    tiny = 1e-11
    if abs(flo) <= tiny:
        s_hit = lo
    elif abs(fhi) <= tiny:
        s_hit = hi
    elif flo * fhi > 0.0:
        if abs(theta_w - curve.theta_d) <= 1e-9:  # tangency
            s_hit = curve.sigma_detach
        else:
            raise RuntimeError(f"no {branch}-branch intersection for theta_w={theta_w:.9g}")
    else:
        s_hit = float(brentq(f, lo, hi, xtol=1e-14))
    a1, a2, rho, _ = _downstream(state, s_hit)
    return np.array([a1[0], a2[0]]), float(rho[0]), s_hit


@dataclass(frozen=True)
class SelfSimilarState:
    """Uniform state in the self-similar plane with its pseudo-sonic circle."""

    gamma: float
    u0_vec: tuple
    rho0: float
    k: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if not self.rho0 > 0.0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0}")

    @property
    def sonic_radius(self) -> float:
        return self.rho0 ** (0.5 * (self.gamma - 1.0))


@dataclass(frozen=True)
class PseudoSonicGeometry:
    """Pseudo-potential, sonic circle and local (x, y) chart near the arc."""

    state: SelfSimilarState
    theta_w: float
    configuration: str  # reflection | wedge-flow

    def potential(self, xi) -> float:
        """phi(xi) = -|xi|^2/2 + u0.xi + k."""
        xi = np.asarray(xi, dtype=float)
        u0 = np.asarray(self.state.u0_vec, dtype=float)
        return float(-0.5 * np.dot(xi, xi) + np.dot(u0, xi) + self.state.k)

    def gradient(self, xi):
        """grad phi = u0 - xi (the pseudo-velocity)."""
        return np.asarray(self.state.u0_vec, dtype=float) - np.asarray(xi, dtype=float)

    def to_local(self, xi):
        """Map xi to (x, y): x is the inward distance from the sonic circle.

        The polar angle is unwrapped to the branch centered on the chart's
        reference ray (theta_w for reflection, pi + theta_w for wedge flow).
        """
        u0 = np.asarray(self.state.u0_vec, dtype=float)
        d = np.asarray(xi, dtype=float) - u0
        r = float(np.hypot(d[0], d[1]))
        th = float(math.atan2(d[1], d[0]))
        center = self.theta_w if self.configuration == "reflection" \
            else math.pi + self.theta_w
        th += 2.0 * math.pi * round((center - th) / (2.0 * math.pi))
        x = self.state.sonic_radius - r
        if self.configuration == "reflection":
            y = th - self.theta_w
        else:
            y = math.pi + self.theta_w - th
        return x, y

    def from_local(self, x: float, y: float):
        u0 = np.asarray(self.state.u0_vec, dtype=float)
        r = self.state.sonic_radius - x
        if self.configuration == "reflection":
            th = y + self.theta_w
        else:
            th = math.pi + self.theta_w - y
        return u0 + r * np.array([math.cos(th), math.sin(th)])

    def arc_points(self, theta_from: float, theta_to: float, n: int = 181) -> np.ndarray:
        """Points of the sonic circle between two polar angles around u0."""
        u0 = np.asarray(self.state.u0_vec, dtype=float)
        th = np.linspace(theta_from, theta_to, n)
        return u0 + self.state.sonic_radius * np.column_stack([np.cos(th), np.sin(th)])


def pseudo_sonic_geometry(state: SelfSimilarState, theta_w: float,
                          configuration: str = "reflection") -> PseudoSonicGeometry:
    """Build the pseudo-sonic arc geometry and the local chart for a state."""
    if configuration not in CONFIGURATIONS:
        raise ValueError(f"configuration must be {' or '.join(map(repr, CONFIGURATIONS))}, got {configuration!r}")
    return PseudoSonicGeometry(state=state, theta_w=theta_w, configuration=configuration)
