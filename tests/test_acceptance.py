"""Acceptance suite: one test per criterion, one printed line each.

Run `pytest tests/test_acceptance.py -s` to see the lines; every criterion
asserts its stated tolerances and runtime budget.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from _oracles import h_quadrature, normal_shock_cubic_gamma2, reduced_ode_solution
from conftest import gamma_family
from sonicflow.cli import main
from sonicflow.gas import critical_field, enthalpy, find_u_star
from sonicflow.keldysh import (KeldyshBC, KeldyshCoefficients, KeldyshDomain,
                               KeldyshOptions, corner_probe, solve_model,
                               sonic_derivative_scan, reference_scenario,
                               verify_bounds)
from sonicflow.mixed2d import (BoundaryData2D, ChannelDomain, build_operator,
                               solve_linear, sonic_smoothness_diag)
from sonicflow.profile1d import (conservation_defect, critical_inlet,
                                 dx_du_critical, integrate_profile, kz_check,
                                 kz_coefficients, verify_lemma)
from sonicflow.shockpolar import UpstreamState, compute_polar, normal_shock, weak_state

CANON = dict(gamma=3.0, S0=1.0 / 3.0, J=1.0, rho_ion=0.5)


def report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} [{elapsed:.2f}s / budget {budget:.0f}s] {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_phase_plane_exactness(canonical):
    t0 = time.perf_counter()
    ok = True
    details = []

    ok &= canonical.u_sonic == pytest.approx(1.0, abs=1e-14)
    ok &= float(enthalpy(canonical, 2.0)) == pytest.approx(7.0 / 48.0, rel=1e-12)
    ok &= float(critical_field(canonical, 2.0)) == pytest.approx(math.sqrt(7.0 / 24.0), rel=1e-12)
    ustar = find_u_star(canonical)
    ok &= abs(ustar - 2.7746) <= 1e-3  # the quoted figure is rounded
    ok &= ustar == pytest.approx(2.774065663490481, abs=1e-9)
    details.append(f"u*={ustar:.9f}")

    grid = np.geomspace(0.01, 20.0, 200)
    worst = 0.0
    for u in grid:
        hq = h_quadrature(**CANON, u=float(u))
        hc = float(enthalpy(canonical, float(u)))
        worst = max(worst, abs(hc - hq) / max(abs(hq), 1e-13))
    ok &= worst <= 1e-10
    details.append(f"closed-vs-quadrature rel {worst:.2e}")
    report(1, ok, "; ".join(details), time.perf_counter() - t0, 1.0)


def test_criterion_2_conservation_and_sonic_slope(canonical):
    t0 = time.perf_counter()
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95),
                             u_target=2.0, n_samples=2001)
    defect = conservation_defect(prof)
    ok = prof.l_s is not None and defect <= 1e-8

    limit = dx_du_critical(canonical, 1.0, "accelerating")
    ok &= limit == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    mean_ratio = 0.5 * (dx_du_critical(canonical, 1.0 + 1e-6, "accelerating")
                        + dx_du_critical(canonical, 1.0 - 1e-6, "accelerating"))
    ok &= mean_ratio == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    report(2, ok, f"conservation defect {defect:.2e}; dx/du limit {limit:.8f}",
           time.perf_counter() - t0, 1.0)


def test_criterion_3_lemma_suite(canonical):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []

    for u0 in rng.uniform(0.70, 0.97, size=10):
        rep = verify_lemma(canonical, critical_inlet(canonical, float(u0)),
                           rtol=1e-9, atol=1e-11)
        if not rep.passed:
            failures.append(("acc", u0, [(c.name, c.margin) for c in rep.claims
                                         if not c.passed]))

    gammas = [1.3, 1.5, 2.0, 3.0]
    dichotomy_ok = True
    for k, ratio in enumerate(rng.uniform(1.03, 1.30, size=10)):
        gamma = gammas[k % 4]
        params = gamma_family(gamma)
        inlet = critical_inlet(params, float(ratio) * params.u_sonic,
                               branch="decelerating")
        rep = verify_lemma(params, inlet, rtol=1e-9, atol=1e-11)
        if not rep.passed:
            failures.append(("dec", gamma, [(c.name, c.margin) for c in rep.claims
                                            if not c.passed]))
        expect_finite = gamma < 2.0
        if rep.lmax.finite is not expect_finite:
            dichotomy_ok = False
            failures.append(("dichotomy", gamma, rep.lmax.finite))

    ok = not failures and dichotomy_ok
    report(3, ok, f"20 randomized inlets; failures: {failures}",
           time.perf_counter() - t0, 30.0)


def test_criterion_4_kz_dichotomy(canonical):
    t0 = time.perf_counter()
    cases = []
    for gamma, u0_rel, branch, u_tgt in (
            (3.0, 0.95, "accelerating", 2.0),
            (1.5, 0.92, "accelerating", 1.6),
            (3.0, 1.05, "decelerating", 0.4),
            (1.5, 1.08, "decelerating", 0.45)):
        params = canonical if gamma == 3.0 else gamma_family(gamma)
        inlet = critical_inlet(params, u0_rel * params.u_sonic, branch=branch)
        prof = integrate_profile(params, inlet, u_target=u_tgt)
        rep = kz_check(prof)
        cases.append((branch, gamma, rep.holds, rep.lambda_L, rep.agreement_rel_max))

    ok = True
    for branch, gamma, holds, lam, agree in cases:
        if branch == "accelerating":
            ok &= holds and lam > 0.0
        else:
            ok &= (not holds) and lam < 0.0
        ok &= agree <= 1e-6
    detail = "; ".join(f"{b[:3]} g={g}: holds={h} lam={l:.3g} agree={a:.1e}"
                       for b, g, h, l, a in cases)
    report(4, ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_5_keldysh():
    t0 = time.perf_counter()
    a = 4.0
    dom = KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x, fp=lambda x: 1.0,
                        fpp=lambda x: 0.0, omega=1.0)
    coeffs = KeldyshCoefficients(a=a, b=1.0)
    exact = lambda x: x * x / (2.0 * a)
    bc = KeldyshBC(top_mode="dirichlet", top_data=exact, right_data=lambda y: exact(0.5))
    errs, hs = [], []
    for n in (17, 33, 65):
        fld = solve_model(dom, coeffs, KeldyshOptions(nx=n, ny=n, tol=1e-12,
                                                      max_iter=120), bc)
        errs.append(float(np.max(np.abs(fld.values - exact(fld.x)))))
        hs.append(1.0 / n)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = abs(slope - 1.0) <= 0.3  # nominal first order (upwinded psi_x term)

    sdom, scoeffs, sbc = reference_scenario()
    fld = solve_model(sdom, scoeffs, KeldyshOptions(nx=257, ny=257, tol=1e-11,
                                                    max_iter=200), sbc)
    f0 = float(fld.y[0, -1])
    scan = sonic_derivative_scan(fld, [0.25 * f0, 0.5 * f0])
    scan_ok = bool(np.all(np.abs(scan.limits - 1.0 / a) <= 0.15 / a))
    probe = corner_probe(fld)
    gap_ok = probe.gap > 0.5 * (1.0 / a)
    bounds = verify_bounds(fld, scoeffs)
    ok &= scan_ok and gap_ok and bounds.psi_nonneg and bounds.quadratic_holds
    report(5, ok,
           f"manufactured order {slope:.3f}; scan limits {np.round(scan.limits, 4)} "
           f"(target 0.25 +/- 15%); corner gap {probe.gap:.3f} (> 0.125); "
           f"psi_min {bounds.psi_min:.1e}",
           time.perf_counter() - t0, 300.0)


def test_criterion_6_mixed_type(canonical):
    t0 = time.perf_counter()
    background = integrate_profile(canonical, critical_inlet(canonical, 0.95),
                                   u_target=2.2)
    L = 2.0
    g = lambda x: 0.02 * (1.0 + np.sin(1.3 * x + 0.4))
    gp = lambda x: 0.02 * 1.3 * np.cos(1.3 * x + 0.4)
    gpp = lambda x: -0.02 * 1.3 ** 2 * np.sin(1.3 * x + 0.4)

    errs, hs = [], []
    for n in (65, 129, 257):
        dom = ChannelDomain(L=L, n1=n, n2=n)
        spec = build_operator(background, dom)
        X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
        wstar = np.cos(np.pi * X2) * g(X1)
        F = np.cos(np.pi * X2) * (spec.alpha11[:, None] * gpp(X1)
                                  - np.pi ** 2 * g(X1) + spec.beta1[:, None] * gp(X1))
        bc = BoundaryData2D(inlet_data=lambda x2: math.cos(math.pi * x2) * g(0.0))
        fld = solve_linear(spec, F, bc)
        errs.append(float(np.max(np.abs(fld.values - wstar))))
        hs.append(L / (n - 1))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = slope >= 1.0

    # x2-independent reduction vs the adaptive singular-ODE oracle
    f1 = lambda x: 0.02 * np.sin(2.0 * x)
    dom = ChannelDomain(L=L, n1=1025, n2=9)
    spec = build_operator(background, dom)
    F = np.tile(f1(dom.x1)[:, None], (1, dom.n2))
    fld = solve_linear(spec, F, BoundaryData2D(inlet_data=lambda x2: 0.01))
    alpha = lambda x: kz_coefficients(background, x)[0]
    beta = lambda x: kz_coefficients(background, x)[1]
    oracle = reduced_ode_solution(alpha, beta, f1, background.l_s, L, 0.01, dom.x1)
    dev = float(np.max(np.abs(fld.values[:, dom.n2 // 2] - oracle)))
    ok &= dev <= 1e-4

    # smoothness diagnostic for smooth manufactured data
    dom = ChannelDomain(L=L, n1=129, n2=49)
    spec = build_operator(background, dom)
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    F = np.cos(np.pi * X2) * (spec.alpha11[:, None] * gpp(X1)
                              - np.pi ** 2 * g(X1) + spec.beta1[:, None] * gp(X1))
    fld = solve_linear(spec, F, BoundaryData2D(
        inlet_data=lambda x2: math.cos(math.pi * x2) * g(0.0)))
    rep = sonic_smoothness_diag(fld, spec)
    h1 = L / 128.0
    smooth_ok = (rep.w_jump <= 10 * h1 ** 2 and rep.dw_jump <= 2 * h1
                 and rep.d2w_jump <= 10 * math.sqrt(h1))
    ok &= smooth_ok
    report(6, ok,
           f"order {slope:.3f} (>= 1.0); 1D-oracle dev {dev:.2e} (<= 1e-4); "
           f"jumps ({rep.w_jump:.1e}, {rep.dw_jump:.1e}, {rep.d2w_jump:.1e})",
           time.perf_counter() - t0, 120.0)


def test_criterion_7_shock_polar():
    t0 = time.perf_counter()
    state = UpstreamState(gamma=2.0, rho_inf=1.0, q_inf=2.0)
    u, rho = normal_shock(state)
    ok = abs(u - (math.sqrt(3.0) - 1.0)) <= 1e-10
    ok &= abs(rho - (math.sqrt(3.0) + 1.0)) <= 1e-10
    ok &= abs(u - normal_shock_cubic_gamma2(1.0, 2.0)) <= 1e-9
    curve = compute_polar(state)
    res = float(np.max(curve.residuals))
    ok &= res <= 1e-10
    ok &= curve.theta_sonic < curve.theta_d
    v, _, _ = weak_state(curve, 0.0)
    ok &= abs(v[0] - 2.0) <= 1e-9 and abs(v[1]) <= 1e-9
    report(7, ok,
           f"normal shock ({u:.12f}, {rho:.12f}); max RH residual {res:.1e}; "
           f"theta_sonic {curve.theta_sonic:.4f} < theta_d {curve.theta_d:.4f}; "
           f"weak(0)=({v[0]:.3f},{v[1]:.1e})",
           time.perf_counter() - t0, 1.0)


def test_criterion_8_determinism_and_cli(tmp_path):
    t0 = time.perf_counter()
    gas = {"gamma": 3.0, "S0": 1.0 / 3.0, "J": 1.0, "rho_ion": 0.5}

    def cfg_path(name, cfg):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def digest(p):
        return hashlib.sha256(open(p, "rb").read()).hexdigest()

    runs = {
        "phase-portrait": {"gas": gas, "n": 201},
        "profile": {"gas": gas, "inlet": {"u0": 0.95, "branch": "accelerating"},
                    "stop": {"u_target": 2.0}},
        "kz-check": {"gas": gas, "inlet": {"u0": 1.05, "branch": "decelerating"},
                     "stop": {"u_target": 0.4}},
        "keldysh-solve": {"scenario": "manufactured", "grid": {"nx": 25, "ny": 25}},
        "mixed-solve": {"gas": gas, "inlet": {"u0": 0.95, "branch": "accelerating"},
                        "channel": {"L": 2.0, "n1": 49, "n2": 25},
                        "bc": {"kind": "cos", "amplitude": 0.01},
                        "source": {"kind": "zero"}},
        "shock-polar": {"upstream": {"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0},
                        "n_samples": 512},
        "geometry": {"upstream": {"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0},
                     "theta_w": 0.15, "configuration": "wedge-flow"},
    }
    ok = True
    details = []
    for sub, body in runs.items():
        out = tmp_path / sub.replace("-", "_")
        cfg = {"schema_version": 1, "subcommand": sub, "output_dir": str(out)}
        cfg.update(body)
        path = cfg_path(f"{sub}.json", cfg)
        code = main(["run", path])
        if code != 0:
            ok = False
            details.append(f"{sub} exit {code}")
            continue
        manifest = json.loads((out / "manifest.json").read_text())
        csvs = [o["name"] for o in manifest["outputs"] if o["name"].endswith(".csv")]
        before = {n: digest(out / n) for n in csvs}
        code = main(["run", path])
        after = {n: digest(out / n) for n in csvs}
        if code != 0 or before != after:
            ok = False
            details.append(f"{sub} not reproducible")

    # exit-code contracts
    bad_cfg = cfg_path("bad.json", {"schema_version": 1, "subcommand": "profile",
                                    "output_dir": str(tmp_path / "bad"),
                                    "gas": dict(gas, gamma=0.9),
                                    "inlet": {"u0": 0.95, "branch": "accelerating"}})
    ok &= main(["run", bad_cfg]) == 1
    blow_cfg = cfg_path("blow.json", {"schema_version": 1, "subcommand": "profile",
                                      "output_dir": str(tmp_path / "blow"),
                                      "gas": gas, "inlet": {"u0": 0.95, "E0": -0.10},
                                      "stop": {"u_target": 1.5}})
    ok &= main(["run", blow_cfg]) == 2
    report(8, ok, f"7 subcommands byte-identical; exit codes 0/1/2 honored "
                  f"{details or ''}", time.perf_counter() - t0, 120.0)
