"""Transonic profiles of the 1D steady Euler-Poisson system.

Integrates the velocity/field ODE system

    u' = E * u**gamma / (u**(gamma+1) - u_sonic**(gamma+1)),
    E' = J/u - rho_ion,

through the sonic point.  The right-hand side is 0/0 at u = u_sonic on the
critical level set, so the integrator switches to a u-parametrized form
dx/du near the sonic speed, where the ratio has a removable singularity
with limit (gamma+1)/sqrt(H''(u_sonic)).

Also reconstructs the full 1D fields (rho, p, Phi, phi_bar), evaluates the
normalized mixed-operator coefficients alpha11/beta1 and their sign
condition (the weighted-estimate inequality that separates accelerating
from decelerating profiles), and verifies the qualitative properties of
the two profile families.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .field2d import csv_text
from .gas import (
    ACCELERATING,
    BOUNDARY,
    DECELERATING,
    OFF_CRITICAL,
    SONIC_BAND,
    GasParams,
    PhaseState,
    classify_state,
    critical_field,
    enthalpy,
    enthalpy_curvature_at_sonic,
    find_u_star,
    require_finite,
    _branch_sign,
    _enthalpy_local,
    _leggauss,
)

#: Relative half-width |u/u_sonic - 1| of the u-parametrized integration band.
SONIC_SWITCH_BAND = 1e-3


class ProfileError(RuntimeError):
    """Base class for profile-integration failures."""


class SonicBlowupError(ProfileError):
    """Off-critical data reached the sonic speed, where the slope blows up."""


class NoSonicCrossingError(ProfileError):
    """The profile does not cross the sonic speed."""


class IntegratorError(ProfileError):
    """The adaptive integrator failed (step-size underflow or similar)."""


@dataclass(frozen=True)
class InletData:
    """Inlet values (u0, E0) at x1 = 0."""

    u0: float
    E0: float

    def __post_init__(self):
        if not self.u0 > 0.0:
            raise ValueError(f"u0 must be > 0, got {self.u0}")


def _check_inlet_speed(params: GasParams, u0: float) -> None:
    """Reject an inlet speed at which (u0/u_sonic)**(gamma+1), the scale of
    the slope's denominator, overflows."""
    require_finite(lambda: (u0 / params.u_sonic) ** (params.gamma + 1.0),
                   f"(u0/u_sonic)**(gamma+1) (u0 = {u0:.6g})")


def critical_inlet(params: GasParams, u0: float, branch: str = ACCELERATING) -> InletData:
    """Inlet on the critical level set at velocity u0, on the given branch."""
    _check_inlet_speed(params, u0)
    return InletData(u0=u0, E0=float(critical_field(params, u0, branch)))


@dataclass(frozen=True)
class Profile1D:
    """A sampled 1D profile x1 -> (u, E) with optional reconstructed fields.

    du holds the slope u'(x1) taken from the ODE right-hand side; at the
    sonic sample it is the desingularized limit, not the 0/0 expression.
    rho, p, Phi, phi_bar are None until `reconstruct_fields` fills them.
    """

    params: GasParams
    branch: str
    x1: np.ndarray
    u: np.ndarray
    E: np.ndarray
    du: np.ndarray
    l_s: float | None
    l_max: float | None
    terminated: str  # turning_point | u_target | x_max | sonic_band
    rho: np.ndarray | None = None
    p: np.ndarray | None = None
    Phi: np.ndarray | None = None
    phi_bar: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.x1)

    @property
    def fields_filled(self) -> bool:
        return self.rho is not None


def dx_du_critical(params: GasParams, u, branch: str):
    """dx/du along a critical-branch trajectory; finite through u_sonic.

    Away from the sonic speed this is (u**(g+1) - us**(g+1)) / (E(u) u**g)
    with E the critical field.  Both factors vanish linearly at u_sonic;
    within 1e-12*u_sonic of it the value is the removable limit
    sign * (gamma+1)/sqrt(H''(u_sonic)).  The numerator is evaluated with
    expm1/log1p, and H by `_enthalpy_local` within 0.5*u_sonic of the sonic
    speed and in closed form beyond, so the ratio stays accurate to machine
    precision arbitrarily close to it.

    Accepts a scalar, returning a float, or an array, evaluated in one pass.
    A velocity that is not finite and > 0, or one off the sonic speed where
    H(u) <= 0, raises a ValueError naming it.
    """
    s = _branch_sign(branch)
    ua = np.asarray(u, dtype=float)
    bad = ~(np.isfinite(ua) & (ua > 0.0))
    if np.any(bad):
        raise ValueError(f"dx_du_critical needs finite velocities u > 0, got u={float(ua[bad][0])}")
    g = params.gamma
    us = params.u_sonic
    flat = ua.reshape(-1)
    h = flat - us
    out = np.full_like(flat, s * (g + 1.0) / math.sqrt(enthalpy_curvature_at_sonic(params)))
    dist = np.abs(h)
    off = dist > 1e-12 * us  # the sonic nodes keep the limit: there num = E = 0
    local = off & (dist <= 0.5 * us)
    far = dist > 0.5 * us
    H = np.empty_like(flat)
    H[local] = _enthalpy_local(params, flat[local])
    H[far] = enthalpy(params, flat[far])
    num = us ** (g + 1.0) * np.expm1((g + 1.0) * np.log1p(h[off] / us)) / flat[off] ** g
    E = s * np.copysign(1.0, h[off]) * np.sqrt(2.0 * np.maximum(H[off], 0.0))
    if np.any(E == 0.0):
        raise ValueError(f"dx_du_critical: u={float(flat[off][E == 0.0][0])} is off the "
                         "critical set (H(u) <= 0 away from the sonic speed)")
    out[off] = num / E
    return out.reshape(ua.shape) if ua.ndim else float(out[0])


def _gauss_int(fn, x: float, edges: np.ndarray, n: int = 32) -> np.ndarray:
    """x, then x plus the n-point Gauss integral of fn from edges[0] to each
    later edge.  fn takes the nodes of every piece in one array; the piece
    integrals are added one at a time from edges[0]."""
    nodes, weights = _leggauss(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = fn((mid[:, None] + half[:, None] * nodes).ravel()).reshape(len(half), n)
    return np.cumsum(np.concatenate(([x], half * (vals @ weights))))


def _gauss_pieces(fn, x: float, a: float, b: float, n_seg: int, n: int = 32) -> float:
    """x plus the n-point Gauss integrals of fn over n_seg equal pieces of
    [a, b], with every node of every piece in one call of fn and the piece
    integrals added one at a time from a."""
    return float(_gauss_int(fn, x, a + (b - a) * np.arange(n_seg + 1) / n_seg, n)[-1])


def _rhs(params: GasParams):
    """ODE right-hand side (u', E') in solve_ivp's (x, y) form.  Scalar math,
    cancellation-free in the u' denominator; _du_from_state is its array form.

    A state with no finite slope (u <= 0, an overflow, or a non-finite u or
    E) raises a ValueError that names it, so that a run which leaves the
    physical range ends in one line rather than in a math domain error.
    """
    g = params.gamma
    us = params.u_sonic
    usp = us ** (g + 1.0)
    J = params.J
    ri = params.rho_ion

    def rhs(x, y):
        u, E = float(y[0]), float(y[1])
        try:
            du = E * u ** g / (usp * math.expm1((g + 1.0) * math.log1p((u - us) / us)))
        except (ValueError, OverflowError, ZeroDivisionError):
            du = math.nan
        if not math.isfinite(du):
            raise ValueError(f"the profile state u={u:.6g}, E={E:.6g} at x1={x:.6g} "
                             "has no finite slope u'")
        return (du, J / u - ri)

    return rhs


def _event(fn, direction: float):
    fn.terminal = True
    fn.direction = direction
    return fn


def _du_from_state(params: GasParams, u, E, branch: str):
    """Slope u' from the ODE right-hand side, desingularized near the sonic speed."""
    g = params.gamma
    us = params.u_sonic
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    Ea = np.atleast_1d(np.asarray(E, dtype=float))
    out = np.empty_like(ua)
    near = np.abs(ua - us) < SONIC_SWITCH_BAND * us
    if branch in (ACCELERATING, DECELERATING):
        out[near] = 1.0 / dx_du_critical(params, ua[near], branch)
    else:
        near = np.zeros_like(near)
    idx = np.nonzero(~near)[0]
    den = us ** (g + 1.0) * np.expm1((g + 1.0) * np.log1p((ua[idx] - us) / us))
    out[idx] = Ea[idx] * ua[idx] ** g / den
    return out


def integrate_profile(params: GasParams, inlet: InletData, *,
                      x_max: float | None = None,
                      u_target: float | None = None,
                      rtol: float = 1e-10,
                      atol: float = 1e-12,
                      n_samples: int = 4001) -> Profile1D:
    """Integrate the profile from the inlet until a stop condition.

    Critical-branch data is carried through the sonic point by switching to
    the u-parametrized form within |u - u_sonic| < SONIC_SWITCH_BAND*u_sonic.
    Stop conditions: x_max, u_target, or (accelerating) the turning point
    where E returns to 0.  Off-critical data must stop before the sonic
    speed; reaching it raises SonicBlowupError.
    """
    us = params.u_sonic
    u0, E0 = inlet.u0, inlet.E0
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    _check_inlet_speed(params, u0)
    if abs(u0 - us) <= SONIC_BAND * us:
        raise ValueError("degenerate inlet: exactly-sonic data is a fixed point "
                         "of the desingularized flow and is rejected")
    cls = classify_state(params, PhaseState(u0, E0), tol=1e-9)
    on_critical = cls.on_critical
    if on_critical:
        branch = DECELERATING if cls.branch == BOUNDARY else cls.branch
    else:
        branch = OFF_CRITICAL
        if x_max is None and u_target is None:
            raise ValueError("off-critical data needs an explicit x_max or u_target stop")

    if u_target is not None and u_target <= 0.0:
        raise ValueError("u_target must be > 0")
    rhs = _rhs(params)
    increasing = rhs(0.0, (u0, E0))[0] > 0.0
    ahead = 1.0 if increasing else -1.0  # event direction of a u level ahead of the run
    if u_target is not None:
        if increasing and u_target <= u0:
            raise ValueError(f"u_target={u_target} not ahead of increasing inlet u0={u0}")
        if not increasing and u_target >= u0:
            raise ValueError(f"u_target={u_target} not ahead of decreasing inlet u0={u0}")

    if branch == DECELERATING and u_target is None and x_max is None:
        u_target = us / 20.0

    x_cap = x_max if x_max is not None else 1e6
    band_lo = us * (1.0 - SONIC_SWITCH_BAND)
    band_hi = us * (1.0 + SONIC_SWITCH_BAND)

    segments = []  # (x_from, x_to, kind, payload)
    l_s = None
    l_max = None
    terminated = "x_max"

    def ev_u(value, direction):
        return _event(lambda x, y: y[0] - value, direction)

    def ev_E_zero():
        return _event(lambda x, y: y[1], -1.0)

    x_here = 0.0
    y_here = (u0, E0)
    done = False

    def run_rk(events):
        """RK45 from (x_here, y_here) toward x_cap; appends the segment, moves
        the state to its end and returns the index of the event hit, or None."""
        nonlocal x_here, y_here
        # the integrator's own norms may overflow on a state far out of range;
        # rhs then names that state
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (x_here, x_cap), y_here, method="RK45",
                            rtol=rtol, atol=atol, dense_output=True, events=events)
        if sol.status == -1:
            raise IntegratorError(f"integrator failure: {sol.message} "
                                  f"(last x1={sol.t[-1]:.6g}, u={sol.y[0, -1]:.6g}, E={sol.y[1, -1]:.6g})")
        segments.append((x_here, sol.t[-1], "rk", sol))
        x_here = sol.t[-1]
        y_here = (sol.y[0, -1], sol.y[1, -1])
        if sol.status == 0:
            return None
        return next(k for k, te in enumerate(sol.t_events) if len(te))

    # Critical data heading toward the sonic speed crosses it via phases
    # A (x-parametrized approach), B (u-parametrized band) and C (beyond);
    # critical data moving away from it integrates as phase C directly.
    toward_sonic = on_critical and ((increasing and u0 < us) or
                                    (not increasing and u0 > us))

    # ---- phase A: x-parametrized run up to the sonic band (or a stop) ----
    need_band = toward_sonic and ((increasing and u0 < band_lo) or
                                  (not increasing and u0 > band_hi))
    if branch == OFF_CRITICAL:
        events = [ev_u(band_lo, +1.0), ev_u(band_hi, -1.0)]
        if u_target is not None:
            events.append(ev_u(u_target, ahead))
        hit = run_rk(events)
        done = True
        if hit is None:
            terminated = "x_max" if x_max is not None else "guard"
        elif hit < 2:
            raise SonicBlowupError(
                "sonic blow-up: off-critical data cannot cross the sonic speed "
                f"(reached u={y_here[0]:.9g} at x1={x_here:.9g} with E={y_here[1]:.6g})")
        else:
            terminated = "u_target"
    elif need_band:
        pre_band_u = band_lo if increasing else band_hi
        events = [ev_u(pre_band_u, ahead)]
        between = (u0 < u_target < pre_band_u) if (u_target is not None and increasing) \
            else (u_target is not None and pre_band_u < u_target < u0)
        if between:
            events.append(ev_u(u_target, ahead))
        hit = run_rk(events)
        if hit is None:
            terminated = "x_max" if x_max is not None else "guard"
            done = True
        elif hit != 0:
            terminated = "u_target"
            done = True

    # ---- phase B: u-parametrized crossing of the sonic band ----
    if not done and toward_sonic:
        u_a = y_here[0]
        u_b = band_hi if increasing else band_lo
        crosses = (u_a - us) * (u_b - us) < 0.0 or abs(u_a - us) <= SONIC_BAND * us
        if u_target is not None:
            inside = (min(u_a, u_b) < u_target < max(u_a, u_b))
            if inside:
                u_b = u_target
                crosses = (u_a - us) * (u_b - us) < 0.0
                terminated = "u_target"
                done = True
        if crosses:
            u_nodes = np.concatenate([np.linspace(u_a, us, 17), np.linspace(us, u_b, 17)[1:]])
        else:
            u_nodes = np.linspace(u_a, u_b, 17)
        x_nodes = _gauss_int(lambda t: dx_du_critical(params, t, branch), x_here, u_nodes, 16)
        if crosses:
            l_s = float(x_nodes[16])  # the node at us
        if x_max is not None and x_nodes[-1] > x_max:
            keep = x_nodes <= x_max
            u_nodes, x_nodes = u_nodes[keep], x_nodes[keep]
            terminated = "x_max"
            done = True
            if l_s is not None and l_s > x_nodes[-1]:
                l_s = None
        segments.append((x_here, float(x_nodes[-1]), "band", (x_nodes.copy(), u_nodes.copy())))
        x_here = float(x_nodes[-1])
        y_here = (float(u_nodes[-1]), float(critical_field(params, u_nodes[-1], branch)))

    # ---- phase C: x-parametrized run beyond the band (or away-moving data) ----
    if not done and on_critical:
        events = []
        if branch == ACCELERATING:
            events.append(ev_E_zero())
        if u_target is not None:
            events.append(ev_u(u_target, ahead))
        hit = run_rk(events)
        if hit is None:
            terminated = "x_max"
            if x_max is None:
                raise IntegratorError("integration guard exceeded without a stop condition")
        elif branch == ACCELERATING and hit == 0:
            terminated = "turning_point"
            l_max = x_here
        else:
            terminated = "u_target"

    # ---- sample assembly on a dense x grid ----
    x_end = x_here
    base = np.linspace(0.0, x_end, n_samples)
    breaks = [seg[1] for seg in segments]
    if l_s is not None:
        breaks.append(l_s)
    grid = np.union1d(base, np.asarray(breaks))
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * max(1.0, x_end)])
    grid = grid[keep]
    if not np.isclose(grid[-1], x_end):
        grid = np.append(grid, x_end)

    u_out = np.empty_like(grid)
    E_out = np.empty_like(grid)
    for x_from, x_to, kind, payload in segments:
        mask = (grid >= x_from - 1e-15) & (grid <= x_to + 1e-15)
        xs = np.clip(grid[mask], x_from, x_to)
        if kind == "rk":
            vals = payload.sol(xs)
            u_out[mask], E_out[mask] = vals[0], vals[1]
        else:
            x_nodes, u_nodes = payload
            order = np.argsort(x_nodes)
            interp = PchipInterpolator(x_nodes[order], u_nodes[order])
            uu = interp(xs)
            u_out[mask] = uu
            E_out[mask] = critical_field(params, uu, branch)

    if l_s is not None:
        i_s = int(np.argmin(np.abs(grid - l_s)))
        u_out[i_s], E_out[i_s] = us, 0.0

    du_out = _du_from_state(params, u_out, E_out, branch)

    return Profile1D(params=params, branch=branch, x1=grid, u=u_out, E=E_out,
                     du=du_out, l_s=l_s, l_max=l_max, terminated=terminated)


def conservation_defect(profile: Profile1D) -> float:
    """max over samples of |(1/2)E^2 - H(u) - (1/2)E0^2 + H(u0)|."""
    H = np.asarray(enthalpy(profile.params, profile.u))
    ke = 0.5 * profile.E ** 2
    return float(np.max(np.abs((ke - H) - (ke[0] - H[0]))))


def locate_sonic(profile: Profile1D) -> float:
    """Sonic location l_s recomputed from the samples by interpolation.

    Independent of the l_s recorded during integration: the exactly-sonic
    sample is excluded and the crossing is re-found from its neighbours.
    """
    us = profile.params.u_sonic
    d = profile.u - us
    keep = np.abs(d) > 1e-13 * us
    x, dv = profile.x1[keep], d[keep]
    sign_change = np.nonzero(dv[:-1] * dv[1:] < 0.0)[0]
    if len(sign_change) == 0:
        raise NoSonicCrossingError("no sonic crossing in profile")
    if len(sign_change) > 1:
        raise NoSonicCrossingError(f"multiple sonic crossings at sample intervals {sign_change}")
    i = int(sign_change[0])
    lo = max(0, i - 3)
    hi = min(len(x), i + 5)
    interp = PchipInterpolator(x[lo:hi], dv[lo:hi])
    return float(brentq(interp, x[i], x[i + 1], xtol=1e-14))


@dataclass(frozen=True)
class LmaxReport:
    """Terminal-location report: finite value or divergence flag plus trend data."""

    branch: str
    finite: bool
    value: float | None
    u_floors: np.ndarray | None
    x_at_floors: np.ndarray | None
    increment_ratios: np.ndarray | None
    ratio_mean: float | None
    horizon: float
    method_values: dict


def _x_extent_accelerating(params: GasParams, u0: float) -> float:
    """l_max = x(u*) by quadrature of dx/du, with a sqrt-desingularized tail.

    dx/du behaves like 1/sqrt(u* - u) approaching the turning point, so the
    whole stretch from u_bar to u* is integrated under u = u* - s**2, which
    makes the integrand smooth and even in s.
    """
    ustar = find_u_star(params)
    fn = lambda t: dx_du_critical(params, t, ACCELERATING)
    us = params.u_sonic
    u_mid = max(u0, min(params.u_bar, 0.5 * (u0 + ustar)))
    pts = sorted({u0, u_mid} | ({us} if u0 < us < u_mid else set()))
    x = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        x = _gauss_pieces(fn, x, a, b, max(4, int(math.ceil((b - a) / (0.05 * (ustar - u0))))))
    tail = lambda s: fn(ustar - s * s) * 2.0 * s
    return _gauss_pieces(tail, x, 0.0, math.sqrt(ustar - u_mid), 8, 48)


#: x beyond which `locate_lmax` reports a decelerating extent infinite.
LMAX_HORIZON = 1e3


def locate_lmax(params: GasParams, inlet: InletData, *,
                n_floors: int = 14,
                ode_profile: Profile1D | None = None,
                rtol: float = 1e-10, atol: float = 1e-12) -> LmaxReport:
    """Terminal location of a critical-branch profile.

    Accelerating: finite, equal to x(u*); computed from the u-parametrized
    extent integral and cross-checked against the ODE turning-point event.
    Decelerating: the extent x(u) is tracked on dyadic velocity floors
    u_k = u_sonic * 2**-k; the increments shrink geometrically iff the full
    extent is finite (gamma < 2).  The report flags "infinite" when the
    mean increment ratio reaches 0.97 or x exceeds LMAX_HORIZON.
    This is an operational diagnosis, not a proof.
    """
    cls = classify_state(params, PhaseState(inlet.u0, inlet.E0), tol=1e-9)
    if not cls.on_critical:
        raise ValueError("locate_lmax requires inlet data on the critical level set")
    us = params.u_sonic

    if cls.branch == ACCELERATING or (cls.branch == BOUNDARY and inlet.u0 < us):
        quad_val = _x_extent_accelerating(params, inlet.u0)
        if ode_profile is not None and ode_profile.l_max is not None:
            ode_val = ode_profile.l_max
        else:
            prof = integrate_profile(params, inlet, rtol=rtol, atol=atol, n_samples=301)
            ode_val = prof.l_max
        return LmaxReport(branch=ACCELERATING, finite=True, value=quad_val,
                          u_floors=None, x_at_floors=None, increment_ratios=None,
                          ratio_mean=None, horizon=LMAX_HORIZON,
                          method_values={"quadrature": quad_val, "ode": ode_val})

    fn = lambda t: dx_du_critical(params, t, DECELERATING)
    floors = us * 2.0 ** (-np.arange(1, n_floors + 1, dtype=float))
    # down to the first floor, split around the (removable) sonic point
    pts = sorted({p for p in (floors[0], us * (1 - SONIC_SWITCH_BAND),
                              us * (1 + SONIC_SWITCH_BAND), inlet.u0)
                  if p <= inlet.u0}, reverse=True)
    x = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        x = _gauss_pieces(fn, x, a, b, max(4, int(math.ceil(abs(b - a) / (0.1 * us)))))
    xs = _gauss_int(fn, x, floors, 32)
    inc = np.diff(xs)
    ratios = inc[1:] / inc[:-1]
    rbar = float(np.mean(ratios[-4:]))
    # Aitken-accelerate the ratio limit when the trend is regular
    if len(ratios) >= 3:
        d1 = ratios[-2] - ratios[-3]
        d2 = ratios[-1] - ratios[-2]
        if d1 != 0.0 and abs(d2 / d1) < 0.95:
            rho = d2 / d1
            rbar = float(ratios[-1] + d2 * rho / (1.0 - rho))
    if xs[-1] > LMAX_HORIZON or rbar >= 0.97:
        return LmaxReport(branch=DECELERATING, finite=False, value=None,
                          u_floors=floors, x_at_floors=xs, increment_ratios=ratios,
                          ratio_mean=rbar, horizon=LMAX_HORIZON, method_values={})
    l_tilde = float(xs[-1] + inc[-1] * rbar / (1.0 - rbar))
    return LmaxReport(branch=DECELERATING, finite=True, value=l_tilde,
                      u_floors=floors, x_at_floors=xs, increment_ratios=ratios,
                      ratio_mean=rbar, horizon=LMAX_HORIZON, method_values={"extrapolated": l_tilde})


def reconstruct_fields(params: GasParams, profile: Profile1D) -> Profile1D:
    """Fill rho, p, Phi, phi_bar from the (x1, u, E) samples.

    rho = J/u and p = S0*rho**gamma pointwise; Phi integrates E from the
    inlet value fixed by the pseudo-Bernoulli law; phi_bar integrates u
    with phi_bar(0) = 0.
    """
    g = params.gamma
    rho = params.J / profile.u
    p = params.S0 * rho ** g
    u0 = float(profile.u[0])
    Phi0 = 0.5 * u0 * u0 + g * params.S0 / (g - 1.0) * (params.J / u0) ** (g - 1.0)
    Phi = Phi0 + cumulative_simpson(profile.E, x=profile.x1, initial=0.0)
    phi_bar = cumulative_simpson(profile.u, x=profile.x1, initial=0.0)
    return dataclasses.replace(profile, rho=rho, p=p, Phi=Phi, phi_bar=phi_bar)


def bernoulli_defect(profile: Profile1D) -> float:
    """max |u^2/2 + gamma*S0*rho^(gamma-1)/(gamma-1) - Phi| over the samples."""
    if not profile.fields_filled:
        raise ValueError("profile fields not reconstructed")
    params = profile.params
    g = params.gamma
    bern = 0.5 * profile.u ** 2 + g * params.S0 * profile.rho ** (g - 1.0) / (g - 1.0)
    return float(np.max(np.abs(bern - profile.Phi)))


def _kz_alpha_beta(params: GasParams, u, E, du):
    """alpha11 = 1 - (u/us)**(g+1), beta1 = (E - (g+1) u' u) u**(g-1) / us**(g+1)."""
    g = params.gamma
    us = params.u_sonic
    alpha = 1.0 - (u / us) ** (g + 1.0)
    beta = (E - (g + 1.0) * du * u) * u ** (g - 1.0) / us ** (g + 1.0)
    return alpha, beta


def kz_coefficients(params: GasParams, profile: Profile1D, x1):
    """Normalized mixed-operator coefficients (alpha11, beta1) at position x1.

    alpha11 = 1 - (u/u_sonic)**(gamma+1) changes sign exactly at the sonic
    location; beta1 = (E - (gamma+1) u' u) u**(gamma-1) / u_sonic**(gamma+1).
    u' is taken from the ODE right-hand side (desingularized at the sonic
    point), never from finite differences.  Accepts scalars or arrays.
    """
    xa = np.atleast_1d(np.asarray(x1, dtype=float))
    if np.any(xa < profile.x1[0] - 1e-12) or np.any(xa > profile.x1[-1] + 1e-12):
        raise ValueError("x1 out of profile range")
    us = params.u_sonic
    u = PchipInterpolator(profile.x1, profile.u)(np.clip(xa, profile.x1[0], profile.x1[-1]))
    E = PchipInterpolator(profile.x1, profile.E)(np.clip(xa, profile.x1[0], profile.x1[-1]))
    if profile.l_s is not None:
        exact = np.abs(xa - profile.l_s) <= 1e-14 * max(1.0, profile.l_s)
        u = np.where(exact, us, u)
        E = np.where(exact, 0.0, E)
    alpha, beta = _kz_alpha_beta(params, u, E, _du_from_state(params, u, E, profile.branch))
    if np.isscalar(x1) or np.asarray(x1).ndim == 0:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def _q_m_representation(params: GasParams, u, du, m: int):
    g = params.gamma
    us = params.u_sonic
    return (du / us ** (g + 1.0)) * (2 * m * (g + 1.0) * u ** g
                                     + (g - 1.0) * u ** g
                                     + 2.0 * us ** (g + 1.0) / u)


@dataclass(frozen=True)
class KZReport:
    """Sign report for Q_m = -2*beta1 - (2m-1)*d(alpha11)/dx1, m = 0..3.

    lambda_L is the smallest Q_m value seen over the profile; the weighted
    H^(m+1) estimates need lambda_L > 0.  agreement_rel_max records how well
    the closed representation of Q_m matches the direct finite-difference
    evaluation at interior samples (two independent routes).
    """

    per_m_min: dict
    lambda_L: float
    holds: bool
    agreement_rel_max: float


def kz_check(params: GasParams, profile: Profile1D, ms=(0, 1, 2, 3)) -> KZReport:
    """Evaluate the sign condition on all samples via the closed representation."""
    u, E, du, x = profile.u, profile.E, profile.du, profile.x1

    per_m_min = {}
    q_reps = {}
    for m in ms:
        q = _q_m_representation(params, u, du, m)
        q_reps[m] = q
        per_m_min[m] = float(np.min(q))
    lam = min(per_m_min.values())

    # direct route: beta1 from the samples, d(alpha11)/dx1 by finite differences
    alpha, beta = _kz_alpha_beta(params, u, E, du)
    hl = x[1:-1] - x[:-2]
    hr = x[2:] - x[1:-1]
    dalpha = (alpha[2:] * hl ** 2 - alpha[:-2] * hr ** 2
              + alpha[1:-1] * (hr ** 2 - hl ** 2)) / (hl * hr * (hl + hr))
    agree = 0.0
    lo, hi = 5, len(x) - 5
    for m in ms:
        direct = -2.0 * beta[1:-1] - (2 * m - 1) * dalpha
        rep = q_reps[m][1:-1]
        scale = np.max(np.abs(rep))
        sel = slice(lo - 1, hi - 1)
        denom = np.maximum(np.abs(rep[sel]), 1e-6 * scale)
        agree = max(agree, float(np.max(np.abs(direct[sel] - rep[sel]) / denom)))

    return KZReport(per_m_min=per_m_min, lambda_L=lam, holds=lam > 0.0,
                    agreement_rel_max=agree)


def potential_ode_residual(params: GasParams, profile: Profile1D) -> float:
    """Max residual of the degenerate second-order velocity-potential equation.

    The potential phi_bar = integral of u satisfies
    ((d1 phi)^(g+1) - us^(g+1)) d11 phi - sgn(d1 phi - us) sqrt(2 H(d1 phi)) (d1 phi)^g = 0
    with d1 phi = u and d11 phi = u' from the ODE.  Both terms vanish
    individually at the sonic sample.
    """
    if not profile.fields_filled:
        raise ValueError("profile fields not reconstructed (phi_bar missing)")
    g = params.gamma
    us = params.u_sonic
    u, du = profile.u, profile.du
    H = np.maximum(np.asarray(enthalpy(params, u)), 0.0)
    res = (u ** (g + 1.0) - us ** (g + 1.0)) * du - np.sign(u - us) * np.sqrt(2.0 * H) * u ** g
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# qualitative-property verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class LemmaReport:
    branch: str
    gamma: float
    claims: tuple
    lmax: LmaxReport | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def claim(self, name: str) -> ClaimResult:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)


PAIR_BUDGET = 1 << 20   # point-segment pairs per temporary in _seg_point_dist
PRUNE_MARGIN = 1e-9     # relative slack of every pruning comparison there


def _window_d2(P: np.ndarray, A: np.ndarray, B: np.ndarray, L2: np.ndarray,
               first: np.ndarray, width: int) -> np.ndarray:
    """Smallest squared distance from each point P[p] to the segments
    first[p] .. first[p] + width - 1."""
    best = np.full(len(P), math.inf)
    for s in range(0, width, PAIR_BUDGET):
        idx = first[:, None] + np.arange(s, min(s + PAIR_BUDGET, width))
        Ak, Bk, Lk = A[idx], B[idx], L2[idx]
        W = P[:, None, :] - Ak
        t = np.clip(np.einsum("pmj,pmj->pm", W, Bk) / Lk, 0.0, 1.0)
        D = W - t[:, :, None] * Bk
        best = np.minimum(best, np.einsum("pmj,pmj->pm", D, D).min(axis=1))
    return best


def _box_d2(P: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distances from the points P to the boxes [lo, hi] (per row)."""
    gap = np.maximum(np.maximum(lo - P, P - hi), 0.0)
    return np.einsum("pj,pj->p", gap, gap)


def _seg_point_dist(P: np.ndarray, Q: np.ndarray) -> float:
    """Directed Hausdorff distance from the points P to the polyline Q.

    Exact for any polyline, sorted or not, turning back, with repeated
    vertices or with a single one (a point): the result is the square root of the largest, over P, of the
    smallest squared distance to any segment of Q.  Each segment runs from
    its lexicographically smaller end, so the traversal direction of Q does
    not matter, and every point-segment distance comes from the one formula
    in _window_d2, so the result equals a scan over all pairs bit for bit.
    The search only skips pairs that cannot change it:

    - Bounds (Taha & Hanbury, IEEE TPAMI 37, 2015).  A point's upper bound
      is its nearest vertex (k-d tree), later its smallest window distance.
      The lower bound on the answer is an exact point minimum: each round
      scans the live point with the largest upper bound over all segments.
      A point whose upper bound is at or below the lower bound cannot set
      the maximum and is dropped (early break).
    - Certificate.  A point's window of segments starts at its nearest
      vertex and doubles each round.  When the bounding boxes of all
      vertices before and after the window lie farther away than the window
      minimum, that minimum is the point's exact minimum: it may raise the
      lower bound and the point is dropped.

    The k-d tree and box distances are rounded differently from the segment
    formula, whose rounding error is absolute, a few ulps of the largest
    coordinate.  Comparisons with them therefore widen the distance by 16
    such ulps and the squared distance by the relative margin PRUNE_MARGIN,
    in the direction that keeps a point.  No temporary holds more than
    PAIR_BUDGET point-segment pairs.
    """
    if len(Q) == 1:
        Q = np.repeat(Q, 2, axis=0)  # one zero-length segment
    # each segment runs from its lexicographically smaller end
    swap = ((Q[1:, 0] < Q[:-1, 0]) | ((Q[1:, 0] == Q[:-1, 0]) & (Q[1:, 1] < Q[:-1, 1])))[:, None]
    A = np.where(swap, Q[1:], Q[:-1])
    B = np.where(swap, Q[:-1], Q[1:]) - A
    L2 = np.einsum("ij,ij->i", B, B)
    L2 = np.where(L2 == 0.0, 1.0, L2)
    m = len(A)
    # bounding boxes of the vertices Q[:s + 1] and Q[s:]
    pre_lo, pre_hi = np.minimum.accumulate(Q), np.maximum.accumulate(Q)
    suf_lo = np.minimum.accumulate(Q[::-1])[::-1]
    suf_hi = np.maximum.accumulate(Q[::-1])[::-1]

    ulps = 16.0 * np.finfo(float).eps * max(np.abs(P).max(), np.abs(Q).max())

    def widened(d2):
        return (np.sqrt(d2) + ulps) ** 2 * (1.0 + PRUNE_MARGIN)

    vd, vertex = cKDTree(Q).query(P)
    upper = widened(vd * vd)
    lower = -math.inf
    alive = np.arange(len(P))
    half = 1
    while len(alive):
        # scan the live point with the largest upper bound over all segments
        k = alive[np.argmax(upper[alive])]
        upper[k] = _window_d2(P[k:k + 1], A, B, L2, np.zeros(1, dtype=int), m)[0]
        lower = max(lower, upper[k])
        alive = alive[upper[alive] > lower]  # the early break

        width = min(2 * half, m)
        step = max(1, PAIR_BUDGET // width)
        keep = []
        for c in range(0, len(alive), step):
            pts = alive[c:c + step]
            first = np.clip(vertex[pts] - half, 0, m - width)
            stop = first + width
            wmin = _window_d2(P[pts], A, B, L2, first, width)
            box = np.minimum(
                np.where(first > 0, _box_d2(P[pts], pre_lo[first], pre_hi[first]), math.inf),
                np.where(stop < m, _box_d2(P[pts], suf_lo[stop], suf_hi[stop]), math.inf))
            exact = box > widened(wmin)  # the certificate
            if np.any(exact):
                lower = max(lower, float(np.max(wmin[exact])))
            upper[pts] = np.minimum(upper[pts], wmin)
            keep.append(pts[~exact])
        alive = np.concatenate(keep) if keep else alive
        half *= 2
    return float(np.sqrt(lower))


def _polyline_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    return max(_seg_point_dist(P, Q), _seg_point_dist(Q, P))


def _branch_polyline(params: GasParams, branch: str, u_lo: float, u_hi: float) -> np.ndarray:
    """Sample the analytic critical branch densely over [u_lo, u_hi].

    A uniform grid is augmented with a quartically graded cluster toward the
    sqrt-tangent turning point (accelerating) and a log-spaced cluster toward
    small velocities where the field diverges (decelerating), so that polyline
    chords stay within ~1e-8 of the true curve.
    """
    u = np.linspace(u_lo, u_hi, 12001)
    if branch == ACCELERATING:
        t = np.linspace(0.0, 1.0, 8001)
        u = np.union1d(u, u_hi - (u_hi - u_lo) * (1.0 - t) ** 4)
    else:
        hi_cl = min(u_hi, 10.0 * u_lo)
        if hi_cl > u_lo * (1 + 1e-12):
            u = np.union1d(u, np.geomspace(u_lo, hi_cl, 6001))
    u = np.clip(u, u_lo, u_hi)
    E = np.asarray(critical_field(params, u, branch))
    return np.column_stack([u, E])


def verify_lemma(params: GasParams, inlet: InletData, *,
                 rtol: float = 1e-10, atol: float = 1e-12) -> LemmaReport:
    """Run the full pipeline and check the qualitative profile properties.

    Checks, per branch: (i) strict monotonicity of u, (ii) vanishing terminal
    slope, |u'| <= 1e-6 (plus diverging field on the decelerating branch),
    (iii) the visited (u, E) polyline covers the analytic critical branch
    within Hausdorff distance 1e-6, (iv) a unique sonic crossing.  Profiles
    take integrate_profile's default 4001 samples; decelerating runs stop at
    u_sonic/50.  Off-critical inlets are integrated only up to the sonic band;
    their coverage and crossing claims fail by design, and their coverage
    margin is the exact Hausdorff distance to the critical branch of the
    inlet's quadrant over the visited u-range.
    """
    us = params.u_sonic
    cls = classify_state(params, PhaseState(inlet.u0, inlet.E0), tol=1e-9)
    claims = []
    lmax_report = None

    if cls.on_critical and cls.branch == ACCELERATING:
        branch = ACCELERATING
        profile = integrate_profile(params, inlet, rtol=rtol, atol=atol)
        lmax_report = locate_lmax(params, inlet, ode_profile=profile, rtol=rtol, atol=atol)
    elif cls.on_critical and cls.branch == DECELERATING:
        branch = DECELERATING
        profile = integrate_profile(params, inlet, u_target=us / 50.0, rtol=rtol, atol=atol)
        lmax_report = locate_lmax(params, inlet, rtol=rtol, atol=atol)
    else:
        branch = OFF_CRITICAL
        increasing = _rhs(params)(0.0, (inlet.u0, inlet.E0))[0] > 0.0
        guard = us * (1.0 - 2 * SONIC_SWITCH_BAND) if inlet.u0 < us else us * (1.0 + 2 * SONIC_SWITCH_BAND)
        if increasing != (inlet.u0 < us):
            guard = None  # the run moves away from the sonic speed: no guard ahead of it
        try:
            profile = integrate_profile(params, inlet, u_target=guard, x_max=20.0,
                                        rtol=rtol, atol=atol)
        except SonicBlowupError:
            profile = None

    # (i) strict monotonicity
    if profile is not None:
        d = np.diff(profile.u)
        increasing = branch == ACCELERATING or (branch == OFF_CRITICAL and d[0] > 0)
        mono = bool(np.all(d > 0.0)) if increasing else bool(np.all(d < 0.0))
        margin = float(np.min(d)) if increasing else float(np.min(-d))
        claims.append(ClaimResult("monotonic", mono, margin,
                                  f"{'increasing' if increasing else 'decreasing'}, min step {margin:.3e}"))
    else:
        claims.append(ClaimResult("monotonic", False, 0.0, "integration blew up at the sonic band"))

    # (ii) terminal slope -> 0 (and E -> infinity on the decelerating branch)
    if profile is None:
        claims.append(ClaimResult("terminal_slope", False, math.inf, "no profile"))
    elif branch == ACCELERATING:
        m = abs(float(profile.du[-1]))
        claims.append(ClaimResult("terminal_slope", m <= 1e-6, m,
                                  f"|u'(l_max)| = {m:.3e}, E(l_max) = {profile.E[-1]:.3e}"))
    elif branch == DECELERATING:
        du_abs = np.abs(profile.du)
        m = float(du_abs[-1])
        i90 = int(0.9 * len(du_abs))
        trending = m <= du_abs[i90] + 1e-12
        growing_E = profile.E[-1] >= 3.0 * abs(profile.E[0]) + 1.0
        ok = (m <= 0.25 * float(np.max(du_abs))) and trending and growing_E
        claims.append(ClaimResult("terminal_slope", ok, m,
                                  f"|u'(end)| = {m:.3e}, E(end) = {profile.E[-1]:.3e}"))
    else:
        m = abs(float(profile.du[-1]))
        claims.append(ClaimResult("terminal_slope", m <= 1e-6, m,
                                  f"|u'(end)| = {m:.3e} (off-critical run)"))

    # (iii) phase-plane coverage of the critical branch
    if profile is None or branch == OFF_CRITICAL:
        detail = "off-critical data does not lie on the critical branch"
        if profile is not None:
            ref = ACCELERATING if (inlet.u0 - us) * inlet.E0 >= 0 else DECELERATING
            u_lo, u_hi = float(np.min(profile.u)), float(np.max(profile.u))
            poly = _branch_polyline(params, ref, u_lo, u_hi)
            dist = _polyline_hausdorff(np.column_stack([profile.u, profile.E]), poly)
        else:
            dist = math.inf
        claims.append(ClaimResult("coverage", False, dist, detail))
    else:
        visited = np.column_stack([profile.u, profile.E])
        if branch == ACCELERATING:
            poly = _branch_polyline(params, branch, inlet.u0, find_u_star(params))
        else:
            poly = _branch_polyline(params, branch, float(profile.u[-1]), inlet.u0)
        dist = _polyline_hausdorff(visited, poly)
        claims.append(ClaimResult("coverage", dist <= 1e-6, dist,
                                  f"Hausdorff distance to analytic branch = {dist:.3e}"))

    # (iv) unique sonic crossing
    if profile is None:
        claims.append(ClaimResult("sonic_crossing", False, math.inf, "no profile"))
    else:
        try:
            ls = locate_sonic(profile)
            ok = profile.l_s is not None and 0.0 < ls < profile.x1[-1]
            gap = abs(ls - profile.l_s) if profile.l_s is not None else math.inf
            claims.append(ClaimResult("sonic_crossing", ok, gap,
                                      f"l_s = {ls:.9g} (recorded {profile.l_s})"))
        except NoSonicCrossingError as exc:
            claims.append(ClaimResult("sonic_crossing", False, math.inf, str(exc)))

    return LemmaReport(branch=branch, gamma=params.gamma, claims=tuple(claims), lmax=lmax_report)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "x1,u,E,rho,p,Phi,phi_bar"


def profile_csv_text(profile: Profile1D) -> str:
    if not profile.fields_filled:
        raise ValueError("reconstruct_fields must run before CSV export")
    return csv_text(CSV_HEADER, (profile.x1, profile.u, profile.E, profile.rho, profile.p,
                                 profile.Phi, profile.phi_bar))


def profile_to_csv(profile: Profile1D, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(profile_csv_text(profile))
