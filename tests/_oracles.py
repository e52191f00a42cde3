"""Independent oracles used across the tests.

Each is a from-scratch route to a quantity the package computes some other
way; none call the implementation under test.
"""

import numpy as np
from scipy.integrate import cumulative_simpson, quad, solve_ivp


def h_quadrature(gamma, S0, J, rho_ion, u):
    """Phase-plane potential H(u) by raw adaptive quadrature."""
    us = (gamma * S0 * J ** (gamma - 1.0)) ** (1.0 / (gamma + 1.0))
    ub = J / rho_ion

    def integrand(t):
        return t ** (-(gamma + 1.0)) * (t ** (gamma + 1.0) - us ** (gamma + 1.0)) * (ub - t)

    val, _ = quad(integrand, us, u, epsabs=1e-14, epsrel=1e-12, limit=300)
    return (J / ub) * val


def normal_shock_cubic_gamma2(rho_inf, q_inf):
    """Downstream normal-shock speed for gamma=2 from the cubic's roots.

    Mass flux + Bernoulli reduce to u**3 - 2(B0+1)u + 2 rho_inf q_inf = 0;
    the subsonic root is the smallest positive one.
    """
    B0 = 0.5 * q_inf ** 2 + (rho_inf - 1.0)
    roots = np.roots([1.0, 0.0, -2.0 * (B0 + 1.0), 2.0 * rho_inf * q_inf])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    return real[0]


def reduced_ode_solution(alpha, beta, f, l_s, L, w0, x_grid):
    """Bounded solution of alpha(x) w'' + beta(x) w' = f(x), w(0) = w0.

    The slope v = w' obeys a first-order ODE that is singular at the sonic
    location; boundedness selects the regular branch with v(l_s) =
    f(l_s)/beta(l_s).  Integrating outward from l_s in both directions is
    the stable orientation (the singular mode decays away from l_s).
    """
    h = 1e-6
    b0 = beta(l_s)
    ap = (alpha(l_s + h) - alpha(l_s - h)) / (2 * h)
    bp = (beta(l_s + h) - beta(l_s - h)) / (2 * h)
    fp = (f(l_s + h) - f(l_s - h)) / (2 * h)
    v0 = f(l_s) / b0
    v1 = (fp - bp * v0) / (ap + b0)
    delta = 1e-6

    def rhs(x, y):
        return [(f(x) - beta(x) * y[0]) / alpha(x)]

    sol_left = solve_ivp(rhs, (l_s - delta, 0.0), [v0 - v1 * delta],
                         rtol=1e-11, atol=1e-13, dense_output=True)
    sol_right = solve_ivp(rhs, (l_s + delta, L), [v0 + v1 * delta],
                          rtol=1e-11, atol=1e-13, dense_output=True)

    def v_of(x):
        if x < l_s - delta:
            return sol_left.sol(x)[0]
        if x > l_s + delta:
            return sol_right.sol(x)[0]
        return v0 + v1 * (x - l_s)

    v = np.array([v_of(x) for x in x_grid])
    return w0 + cumulative_simpson(v, x=x_grid, initial=0.0)


def directed_polyline_distance(P, Q):
    """Directed Hausdorff distance from the points P to the polyline Q by a
    scan over every segment, at most 2**16 point-segment pairs at a time.

    Each segment runs from its lexicographically smaller end A to the other
    end, B is the segment vector and a zero-length segment divides by 1; the
    point-segment distance is then |W - t B| with W = p - A and
    t = clip(W.B / |B|^2, 0, 1), its dot products written out as x0*y0 + x1*y1.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    swap = (Q[1:, 0] < Q[:-1, 0]) | ((Q[1:, 0] == Q[:-1, 0]) & (Q[1:, 1] < Q[:-1, 1]))
    a = np.where(swap[:, None], Q[1:], Q[:-1])
    b = np.where(swap[:, None], Q[:-1], Q[1:]) - a
    l2 = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1]
    l2 = np.where(l2 == 0.0, 1.0, l2)
    rows = max(1, (1 << 16) // len(a))
    best = -np.inf
    for c in range(0, len(P), rows):
        wx = P[c:c + rows, 0:1] - a[:, 0]
        wy = P[c:c + rows, 1:2] - a[:, 1]
        t = np.clip((wx * b[:, 0] + wy * b[:, 1]) / l2, 0.0, 1.0)
        dx = wx - t * b[:, 0]
        dy = wy - t * b[:, 1]
        best = max(best, float((dx * dx + dy * dy).min(axis=1).max()))
    return float(np.sqrt(best))
