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

from .field2d import aitken_limit
from .gas import (
    ACCELERATING,
    DECELERATING,
    OFF_CRITICAL,
    SONIC_BAND,
    GasParams,
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
    terminated: str  # turning_point | u_target | x_max | guard
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


def _inlet_course(params: GasParams, inlet: InletData) -> tuple[str, bool]:
    """Branch of an inlet, and whether u increases from it.

    On the critical level set the inlet is accelerating, and u increases,
    iff (u0 - u_sonic)*E0 > 0; otherwise it is decelerating, E0 = 0
    included.  Off it the branch is OFF_CRITICAL and the direction is the
    sign of u' from the ODE right-hand side, which raises on a state with no
    finite slope.
    """
    u0, E0 = inlet.u0, inlet.E0
    if abs(0.5 * E0 * E0 - enthalpy(params, u0)) <= 1e-9:
        accelerating = (u0 - params.u_sonic) * E0 > 0.0
        return (ACCELERATING if accelerating else DECELERATING), accelerating
    return OFF_CRITICAL, _rhs(params)(0.0, (u0, E0))[0] > 0.0


def integrate_profile(params: GasParams, inlet: InletData, *,
                      x_max: float | None = None,
                      u_target: float | None = None,
                      rtol: float = 1e-10,
                      atol: float = 1e-12,
                      n_samples: int = 4001) -> Profile1D:
    """Integrate the profile from the inlet until a stop condition.

    RK45 runs in x1 until an event: the run enters the sonic band
    |u - u_sonic| < SONIC_SWITCH_BAND*u_sonic, reaches u_target, or, on the
    accelerating branch, reaches the turning point where E returns to 0.
    Critical-branch data crosses the band by quadrature of dx/du, after
    which the next RK run starts; off-critical data entering the band, or
    starting inside it and heading for the sonic speed, raises
    SonicBlowupError.  Decelerating data with no stop runs to u_sonic/20.

    `terminated` names the stop: "turning_point", "u_target", "x_max", or
    "guard" when off-critical data with no x_max runs out to x1 = 1e6
    without reaching u_target.  Critical data with no x_max that does so
    raises IntegratorError.
    """
    us = params.u_sonic
    u0, E0 = inlet.u0, inlet.E0
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    _check_inlet_speed(params, u0)
    if abs(u0 - us) <= SONIC_BAND * us:
        raise ValueError("degenerate inlet: exactly-sonic data is a fixed point "
                         "of the desingularized flow and is rejected")
    if u_target is not None and u_target <= 0.0:
        raise ValueError("u_target must be > 0")
    branch, increasing = _inlet_course(params, inlet)
    if branch == OFF_CRITICAL and x_max is None and u_target is None:
        raise ValueError("off-critical data needs an explicit x_max or u_target stop")
    ahead = 1.0 if increasing else -1.0  # event direction of a u level ahead of the run
    if u_target is not None:
        if increasing and u_target <= u0:
            raise ValueError(f"u_target={u_target} not ahead of increasing inlet u0={u0}")
        if not increasing and u_target >= u0:
            raise ValueError(f"u_target={u_target} not ahead of decreasing inlet u0={u0}")

    if branch == DECELERATING and u_target is None and x_max is None:
        u_target = us / 20.0

    rhs = _rhs(params)
    x_cap = x_max if x_max is not None else 1e6
    band_lo = us * (1.0 - SONIC_SWITCH_BAND)
    band_hi = us * (1.0 + SONIC_SWITCH_BAND)

    # every RK run watches the same events; `meaning` names each one
    events = [_event(lambda x, y: y[0] - band_lo, 1.0),   # band entered from below
              _event(lambda x, y: y[0] - band_hi, -1.0)]  # band entered from above
    meaning = ["band", "band"]
    if branch == ACCELERATING:
        events.append(_event(lambda x, y: y[1], -1.0))
        meaning.append("turning_point")
    if u_target is not None:
        events.append(_event(lambda x, y: y[0] - u_target, ahead))
        meaning.append("u_target")

    segments = []  # (x_from, x_to, kind, payload)
    l_s = None
    terminated = None
    x_here = 0.0
    y_here = (u0, E0)
    # data heading toward the sonic speed from inside the band has already
    # entered it: critical data starts with the band quadrature, off-critical
    # data blows up
    in_band = increasing == (u0 < us) and band_lo <= u0 <= band_hi
    if in_band and branch == OFF_CRITICAL:
        raise SonicBlowupError(
            "sonic blow-up: off-critical data cannot cross the sonic speed "
            f"(inlet u0={u0:.9g} with E0={E0:.6g} starts inside the sonic band heading for it)")
    while terminated is None:
        if in_band:
            # u-parametrized crossing of the sonic band, or up to u_target in it
            in_band = False
            u_a = y_here[0]
            u_b = band_hi if increasing else band_lo
            if u_target is not None and min(u_a, u_b) < u_target < max(u_a, u_b):
                u_b = u_target
                terminated = "u_target"
            crosses = (u_a - us) * (u_b - us) < 0.0
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
                if l_s is not None and l_s > x_nodes[-1]:
                    l_s = None
            segments.append((x_here, float(x_nodes[-1]), "band", (x_nodes, u_nodes)))
            x_here = float(x_nodes[-1])
            y_here = (float(u_nodes[-1]), float(critical_field(params, u_nodes[-1], branch)))
            continue

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
            if x_max is None and branch != OFF_CRITICAL:
                raise IntegratorError("integration guard exceeded without a stop condition")
            terminated = "x_max" if x_max is not None else "guard"
            continue
        hit = meaning[next(k for k, te in enumerate(sol.t_events) if len(te))]
        if hit != "band":
            terminated = hit
        elif branch == OFF_CRITICAL:
            raise SonicBlowupError(
                "sonic blow-up: off-critical data cannot cross the sonic speed "
                f"(reached u={y_here[0]:.9g} at x1={x_here:.9g} with E={y_here[1]:.6g})")
        else:
            in_band = True
    l_max = x_here if terminated == "turning_point" else None

    # ---- sample assembly on a dense x grid ----
    x_end = x_here
    base = np.linspace(0.0, x_end, n_samples)
    breaks = [seg[1] for seg in segments]
    if l_s is not None:
        breaks.append(l_s)
    grid = np.union1d(base, np.asarray(breaks))
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * max(1.0, x_end)])
    grid = grid[keep]

    u_out = np.empty_like(grid)
    E_out = np.empty_like(grid)
    for x_from, x_to, kind, payload in segments:
        mask = (grid >= x_from - 1e-15) & (grid <= x_to + 1e-15)
        xs = np.clip(grid[mask], x_from, x_to)
        if kind == "rk":
            vals = payload.sol(xs)
            u_out[mask], E_out[mask] = vals[0], vals[1]
        else:
            # x_nodes increase strictly: dx/du has the sign of the run's direction
            uu = PchipInterpolator(*payload)(xs)
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
    ratio_mean: float | None  # the limiting increment ratio; see locate_lmax
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
#: Dyadic velocity floors u_sonic * 2**-k, k = 1..LMAX_FLOORS, that `locate_lmax` tracks.
LMAX_FLOORS = 14


def locate_lmax(params: GasParams, inlet: InletData, *,
                ode_profile: Profile1D | None = None) -> LmaxReport:
    """Terminal location of a critical-branch profile.

    Accelerating: finite, equal to x(u*); computed from the u-parametrized
    extent integral and cross-checked against the ODE turning-point event.
    Decelerating: the extent x(u) is tracked on dyadic velocity floors
    u_k = u_sonic * 2**-k; the increments shrink geometrically iff the full
    extent is finite (gamma < 2).  The limiting increment ratio, reported as
    `ratio_mean`, is the Aitken limit of the increment ratios when their
    trend is regular, and the mean of the last four ratios otherwise.  The
    report flags "infinite" when that ratio reaches 0.97 or x exceeds
    LMAX_HORIZON.  This is an operational diagnosis, not a proof.
    """
    branch, _ = _inlet_course(params, inlet)
    if branch == OFF_CRITICAL:
        raise ValueError("locate_lmax requires inlet data on the critical level set")
    us = params.u_sonic

    if branch == ACCELERATING:
        quad_val = _x_extent_accelerating(params, inlet.u0)
        if ode_profile is not None and ode_profile.l_max is not None:
            ode_val = ode_profile.l_max
        else:
            prof = integrate_profile(params, inlet, n_samples=301)
            ode_val = prof.l_max
        return LmaxReport(branch=ACCELERATING, finite=True, value=quad_val,
                          u_floors=None, x_at_floors=None, increment_ratios=None,
                          ratio_mean=None, horizon=LMAX_HORIZON,
                          method_values={"quadrature": quad_val, "ode": ode_val})

    fn = lambda t: dx_du_critical(params, t, DECELERATING)
    floors = us * 2.0 ** (-np.arange(1, LMAX_FLOORS + 1, dtype=float))
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
    rbar = float(aitken_limit(ratios, 0.95, np.mean(ratios[-4:])))
    finite = not (xs[-1] > LMAX_HORIZON or rbar >= 0.97)
    l_tilde = float(xs[-1] + inc[-1] * rbar / (1.0 - rbar)) if finite else None
    return LmaxReport(branch=DECELERATING, finite=finite, value=l_tilde,
                      u_floors=floors, x_at_floors=xs, increment_ratios=ratios, ratio_mean=rbar,
                      horizon=LMAX_HORIZON, method_values={"extrapolated": l_tilde} if finite else {})


def reconstruct_fields(profile: Profile1D) -> Profile1D:
    """Fill rho, p, Phi, phi_bar from the (x1, u, E) samples.

    rho = J/u and p = S0*rho**gamma pointwise; Phi integrates E from the
    inlet value fixed by the pseudo-Bernoulli law; phi_bar integrates u
    with phi_bar(0) = 0.
    """
    params = profile.params
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


def kz_coefficients(profile: Profile1D, x1):
    """Normalized mixed-operator coefficients (alpha11, beta1) at position x1.

    alpha11 = 1 - (u/u_sonic)**(gamma+1) changes sign exactly at the sonic
    location; beta1 = (E - (gamma+1) u' u) u**(gamma-1) / u_sonic**(gamma+1).
    u' is taken from the ODE right-hand side (desingularized at the sonic
    point), never from finite differences.  Accepts scalars or arrays.
    """
    xa = np.atleast_1d(np.asarray(x1, dtype=float))
    if np.any(xa < profile.x1[0] - 1e-12) or np.any(xa > profile.x1[-1] + 1e-12):
        raise ValueError("x1 out of profile range")
    params = profile.params
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
    evaluation at interior samples (two independent routes).  alpha11 and
    beta1 are the coefficients at the profile's samples, as the direct
    route computes them.
    """

    per_m_min: dict
    lambda_L: float
    holds: bool
    agreement_rel_max: float
    alpha11: np.ndarray
    beta1: np.ndarray


#: Orders m of the weighted H^(m+1) estimates whose sign condition kz_check tests.
KZ_ORDERS = (0, 1, 2, 3)


def kz_check(profile: Profile1D) -> KZReport:
    """Evaluate the sign condition on all samples via the closed representation."""
    u, E, du, x = profile.u, profile.E, profile.du, profile.x1

    # direct route: beta1 from the samples, d(alpha11)/dx1 by finite differences
    alpha, beta = _kz_alpha_beta(profile.params, u, E, du)
    hl = x[1:-1] - x[:-2]
    hr = x[2:] - x[1:-1]
    dalpha = (alpha[2:] * hl ** 2 - alpha[:-2] * hr ** 2
              + alpha[1:-1] * (hr ** 2 - hl ** 2)) / (hl * hr * (hl + hr))
    per_m_min = {}
    agree = 0.0
    sel = slice(4, len(x) - 6)  # interior samples 5 .. len(x) - 6
    for m in KZ_ORDERS:
        q = _q_m_representation(profile.params, u, du, m)
        per_m_min[m] = float(np.min(q))
        rep = q[1:-1]
        direct = -2.0 * beta[1:-1] - (2 * m - 1) * dalpha
        denom = np.maximum(np.abs(rep[sel]), 1e-6 * np.max(np.abs(rep)))
        agree = max(agree, float(np.max(np.abs(direct[sel] - rep[sel]) / denom)))
    lam = min(per_m_min.values())

    return KZReport(per_m_min=per_m_min, lambda_L=lam, holds=lam > 0.0,
                    agreement_rel_max=agree, alpha11=alpha, beta1=beta)


def potential_ode_residual(profile: Profile1D) -> float:
    """Max residual of the degenerate second-order velocity-potential equation.

    The potential phi_bar = integral of u satisfies
    ((d1 phi)^(g+1) - us^(g+1)) d11 phi - sgn(d1 phi - us) sqrt(2 H(d1 phi)) (d1 phi)^g = 0
    with d1 phi = u and d11 phi = u' from the ODE.  Both terms vanish
    individually at the sonic sample.  It reads u and du alone, so a profile
    need not be reconstructed first.
    """
    params = profile.params
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
    first[p] .. first[p] + width - 1, whose starts are A and vectors B.

    P, A and B are (n, 2) arrays.  _seg_point_dist passes transposes of
    arrays of x and y rows, so that each coordinate column is contiguous and
    every distance is the one point-segment formula on 1-D gathers of them.
    A zero-length segment has L2 = 1."""
    (px, py), (ax, ay), (bx, by) = P.T, A.T, B.T
    best = np.full(len(P), math.inf)
    for s in range(0, width, PAIR_BUDGET):
        # one row per offset into the windows, one column per point
        idx = np.arange(s, min(s + PAIR_BUDGET, width))[:, None] + first
        bxk, byk = bx[idx], by[idx]
        wx, wy = px - ax[idx], py - ay[idx]
        t = np.clip((wx * bxk + wy * byk) / L2[idx], 0.0, 1.0)
        dx, dy = wx - t * bxk, wy - t * byk
        best = np.minimum(best, np.min(dx * dx + dy * dy, axis=0))
    return best


def _norm2(V: np.ndarray) -> np.ndarray:
    """Squared lengths of the columns of V, an array of x and y rows."""
    return V[0] * V[0] + V[1] * V[1]


def _box_d2(P: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distances from the points P to the boxes [lo, hi], one point
    and one box per column of these arrays of x and y rows."""
    return _norm2(np.maximum(np.maximum(lo - P, P - hi), 0.0))


def _sort_seed(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """For each point of P, the nearer of the two vertices of Q whose first
    coordinates bracket the point's: one stable sort of Q, one binary search
    per point.  P and Q are arrays of x and y rows."""
    order = np.argsort(Q[0], kind="stable")
    j = np.searchsorted(Q[0].take(order), P[0])
    below, above = order.take(np.maximum(j - 1, 0)), order.take(np.minimum(j, Q.shape[1] - 1))
    return np.where(_norm2(P - Q.take(above, axis=1)) < _norm2(P - Q.take(below, axis=1)),
                    above, below)


def _seg_point_dist(P: np.ndarray, Q: np.ndarray) -> float:
    """Directed Hausdorff distance from the points P to the polyline Q.

    Exact for any polyline, sorted or not, turning back, with repeated
    vertices or with a single one (a point): the result is the square root
    of the largest, over P, of the smallest squared distance to any segment
    of Q.  Each segment runs from its lexicographically smaller end, so the
    traversal direction of Q does not matter, and every point-segment
    distance comes from the one formula in _window_d2, so the result equals
    a scan over all pairs bit for bit.  The search only skips pairs that
    cannot change it:

    - Certificate.  A point's window of segments starts at a seed vertex.
      When the bounding boxes of all vertices before and after the window
      lie farther away than the window minimum, that minimum is the point's
      exact minimum: it may raise the lower bound and the point is dropped.
    - Bounds (Taha & Hanbury, IEEE TPAMI 37, 2015).  The lower bound on the
      answer is an exact point minimum.  A point's upper bound is its
      smallest window minimum so far or its nearest vertex (k-d tree).  A
      point whose upper bound is at or below the lower bound cannot set the
      maximum and is dropped (early break).

    Stage 1 seeds every point from one stable sort of Q's first coordinate:
    of the two vertices that bracket the point's first coordinate, the
    nearer one.  The two segments around it are certified at once for most
    points when both polylines are graphs over that coordinate, as the
    lemma's (u, E) polylines are.  Stage 2 takes the points left over.
    Each round scans the live point with the largest upper bound over all
    segments, applies the early break and certifies windows around each
    point's vertex, doubling them until no point is left.  Only after the
    first scan, and only if points are still alive, does a k-d tree on Q
    give those points their nearest vertices, a bound for the early break
    and the vertices of the windows.  On the lemma's polylines stage 1
    leaves at most one point and the first scan none, so no tree is built.
    A seed far along Q from the point (a vertical or closed Q, many vertices
    with one first coordinate) costs only the stage-2 rounds.  Any vertex is
    a valid seed, and a window minimum is a value of the one formula, so the
    seed changes which pairs are evaluated, never the result.

    The points, the segment starts and vectors, and the prefix and suffix
    boxes are split once into contiguous x and y rows, so that every step
    of the search, the formula included, runs on 1-D arrays and gathers.

    The k-d tree and box distances are rounded differently from the segment
    formula, whose rounding error is absolute, a few ulps of the largest
    coordinate.  Comparisons with them therefore widen the distance by 16
    such ulps and the squared distance by the relative margin PRUNE_MARGIN,
    in the direction that keeps a point.  The bracketing-vertex distances
    only choose a seed and need no widening.  No temporary holds more than
    PAIR_BUDGET point-segment pairs.
    """
    if len(Q) == 1:
        Q = np.repeat(Q, 2, axis=0)  # one zero-length segment
    # x and y rows, each contiguous; P, A and B below are (n, 2) views of them
    Pt, Qt = np.array(P.T), np.array(Q.T)
    (x0, x1), (y0, y1) = (Qt[0, :-1], Qt[0, 1:]), (Qt[1, :-1], Qt[1, 1:])
    # each segment runs from its lexicographically smaller end
    swap = (x1 < x0) | ((x1 == x0) & (y1 < y0))
    At = np.array([np.where(swap, x1, x0), np.where(swap, y1, y0)])
    Bt = np.array([np.where(swap, x0, x1), np.where(swap, y0, y1)]) - At
    L2 = _norm2(Bt)
    L2 = np.where(L2 == 0.0, 1.0, L2)
    A, B = At.T, Bt.T
    m = len(L2)
    # bounding boxes of the vertices Q[:s + 1] and Q[s:]
    pre_lo, pre_hi = np.minimum.accumulate(Qt, axis=1), np.maximum.accumulate(Qt, axis=1)
    suf_lo = np.minimum.accumulate(Qt[:, ::-1], axis=1)[:, ::-1]
    suf_hi = np.maximum.accumulate(Qt[:, ::-1], axis=1)[:, ::-1]

    ulps = 16.0 * np.finfo(float).eps * max(np.abs(Pt).max(), np.abs(Qt).max())

    def widened(d2):
        return (np.sqrt(d2) + ulps) ** 2 * (1.0 + PRUNE_MARGIN)

    def certify(pts, vertex, half):
        """One round over the points pts: the minima over the 2 * half
        segments around vertex[pts], in chunks of at most PAIR_BUDGET pairs.
        Returns the largest minimum the certificate makes exact, and the
        points it leaves with their minima."""
        width = min(2 * half, m)
        step = max(1, PAIR_BUDGET // width)
        top = -math.inf
        left, bound = [pts[:0]], [np.empty(0)]
        for c in range(0, len(pts), step):
            chunk = pts[c:c + step]
            Pc = Pt.take(chunk, axis=1)
            first = np.clip(vertex[chunk] - half, 0, m - width)
            stop = first + width
            wmin = _window_d2(Pc.T, A, B, L2, first, width)
            box = np.minimum(
                np.where(first > 0, _box_d2(Pc, pre_lo.take(first, axis=1),
                                            pre_hi.take(first, axis=1)), math.inf),
                np.where(stop < m, _box_d2(Pc, suf_lo.take(stop, axis=1),
                                           suf_hi.take(stop, axis=1)), math.inf))
            exact = box > widened(wmin)  # the certificate
            if np.any(exact):
                top = max(top, float(np.max(wmin[exact])))
            left.append(chunk[~exact])
            bound.append(wmin[~exact])
        return top, np.concatenate(left), np.concatenate(bound)

    # stage 1: a two-segment window around each point's sort seed
    lower, alive, wmin = certify(np.arange(len(P)), _sort_seed(Pt, Qt), 1)
    upper = np.empty(len(P))
    upper[alive] = wmin
    # stage 2: the points left
    vertex = np.empty(len(P), dtype=int)
    half = 1
    while len(alive):
        # scan the live point with the largest upper bound over all segments
        k = alive[np.argmax(upper[alive])]
        upper[k] = _window_d2(Pt[:, k:k + 1].T, A, B, L2, np.zeros(1, dtype=int), m)[0]
        lower = max(lower, upper[k])
        alive = alive[upper[alive] > lower]  # the early break
        if half == 1 and len(alive):
            # after the first scan only: the nearest vertex of each point
            # left, a bound for the early break again
            vd, vertex[alive] = cKDTree(Q).query(P[alive])
            upper[alive] = np.minimum(upper[alive], widened(vd * vd))
            alive = alive[upper[alive] > lower]
        top, alive, wmin = certify(alive, vertex, half)
        lower = max(lower, top)
        upper[alive] = np.minimum(upper[alive], wmin)
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


_OFF_CRITICAL_COVERAGE = "off-critical data does not lie on the critical branch"


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
    inlet's quadrant over the visited u-range.  A run that blows up at the
    sonic band fails all four claims.
    """
    us = params.u_sonic
    branch, increasing = _inlet_course(params, inlet)

    # each branch fixes the profile, the l_max report, and the critical branch
    # and u-range the coverage claim measures against
    if branch == ACCELERATING:
        profile = integrate_profile(params, inlet, rtol=rtol, atol=atol)
        lmax_report = locate_lmax(params, inlet, ode_profile=profile)
        ref, u_lo, u_hi = branch, inlet.u0, find_u_star(params)
    elif branch == DECELERATING:
        profile = integrate_profile(params, inlet, u_target=us / 50.0, rtol=rtol, atol=atol)
        lmax_report = locate_lmax(params, inlet)
        ref, u_lo, u_hi = branch, float(profile.u[-1]), inlet.u0
    else:
        below, above = us * (1.0 - 2 * SONIC_SWITCH_BAND), us * (1.0 + 2 * SONIC_SWITCH_BAND)
        if increasing and inlet.u0 < below:
            guard = below
        elif not increasing and inlet.u0 > above:
            guard = above
        else:
            # the run moves away from the sonic speed, or starts between the
            # guard and it: no guard ahead of it
            guard = None
        try:
            profile = integrate_profile(params, inlet, u_target=guard, x_max=20.0,
                                        rtol=rtol, atol=atol)
        except SonicBlowupError:
            return LemmaReport(branch=branch, gamma=params.gamma, lmax=None, claims=(
                ClaimResult("monotonic", False, 0.0, "integration blew up at the sonic band"),
                ClaimResult("terminal_slope", False, math.inf, "no profile"),
                ClaimResult("coverage", False, math.inf, _OFF_CRITICAL_COVERAGE),
                ClaimResult("sonic_crossing", False, math.inf, "no profile")))
        lmax_report = None
        # the critical branch of the inlet's quadrant
        ref = ACCELERATING if (inlet.u0 - us) * inlet.E0 >= 0 else DECELERATING
        u_lo, u_hi = float(np.min(profile.u)), float(np.max(profile.u))
    claims = []

    # (i) strict monotonicity
    d = np.diff(profile.u)
    increasing = branch == ACCELERATING or (branch == OFF_CRITICAL and d[0] > 0)
    mono = bool(np.all(d > 0.0)) if increasing else bool(np.all(d < 0.0))
    margin = float(np.min(d)) if increasing else float(np.min(-d))
    claims.append(ClaimResult("monotonic", mono, margin,
                              f"{'increasing' if increasing else 'decreasing'}, min step {margin:.3e}"))

    # (ii) terminal slope -> 0 (and E -> infinity on the decelerating branch)
    m = abs(float(profile.du[-1]))
    if branch == DECELERATING:
        du_abs = np.abs(profile.du)
        i90 = int(0.9 * len(du_abs))
        trending = m <= du_abs[i90] + 1e-12
        growing_E = profile.E[-1] >= 3.0 * abs(profile.E[0]) + 1.0
        ok = (m <= 0.25 * float(np.max(du_abs))) and trending and growing_E
        detail = f"|u'(end)| = {m:.3e}, E(end) = {profile.E[-1]:.3e}"
    else:
        ok = m <= 1e-6
        detail = (f"|u'(l_max)| = {m:.3e}, E(l_max) = {profile.E[-1]:.3e}" if branch == ACCELERATING
                  else f"|u'(end)| = {m:.3e} (off-critical run)")
    claims.append(ClaimResult("terminal_slope", ok, m, detail))

    # (iii) phase-plane coverage of the critical branch
    dist = _polyline_hausdorff(np.column_stack([profile.u, profile.E]),
                               _branch_polyline(params, ref, u_lo, u_hi))
    if branch == OFF_CRITICAL:
        claims.append(ClaimResult("coverage", False, dist, _OFF_CRITICAL_COVERAGE))
    else:
        claims.append(ClaimResult("coverage", dist <= 1e-6, dist,
                                  f"Hausdorff distance to analytic branch = {dist:.3e}"))

    # (iv) unique sonic crossing
    try:
        ls = locate_sonic(profile)
        ok = profile.l_s is not None and 0.0 < ls < profile.x1[-1]
        gap = abs(ls - profile.l_s) if profile.l_s is not None else math.inf
        claims.append(ClaimResult("sonic_crossing", ok, gap,
                                  f"l_s = {ls:.9g} (recorded {profile.l_s})"))
    except NoSonicCrossingError as exc:
        claims.append(ClaimResult("sonic_crossing", False, math.inf, str(exc)))

    return LemmaReport(branch=branch, gamma=params.gamma, claims=tuple(claims), lmax=lmax_report)
