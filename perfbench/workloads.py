"""The four benchmark workloads: inputs drawn from a seed, one case at a time.

Every workload is a closed loop with one client: the next case starts when
the previous one has finished, in one process, with no extra threads.  A
case calls the package through module attributes (``sf.keldysh.solve_model``)
so that the traced run sees the calls.  Each case returns the list of gate
misses; an empty list is a pass.  The gates use the acceptance-suite
tolerances and live in plain functions so the self-test can feed them a
perturbed result.

Baseline numbers, the environment they were taken in and the run-to-run
spread are in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

CANONICAL = dict(gamma=3.0, S0=1.0 / 3.0, J=1.0, rho_ion=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable[[int, str], list]   # (seed, output root) -> cases
    warmup: Callable[[list], list]           # cases -> the warm-up cases
    run_case: Callable[[object, dict, dict], list]  # (sf, case, pass memo) -> misses


# ---------------------------------------------------------------------------
# keldysh-ref
# ---------------------------------------------------------------------------

KELDYSH_SIZES = (65, 97)
KELDYSH_RANGES = {"a": (3.95, 4.05), "o_scale": (0.045, 0.055), "eps0": (0.495, 0.505)}


def keldysh_cases(seed, out_root):
    """Reference scenario at 65^2 and 97^2, one seeded parameter draw each.

    Why: 83-88% of the time goes to fresh ``splu`` factorizations, one per
    damped Picard step (ROADMAP item 2's mechanism); no profile1d work runs.
    Ranges are narrow around the reference (a=4, o_scale=0.05, eps0=0.5):
    over a in [3.5, 4.5], o_scale in [0.03, 0.07], eps0 in [0.4, 0.6] the
    Picard count runs from 57 to 185 and some draws abort (NOTES.md, defect
    3), which would make the time depend on the seed rather than the code.
    The largest size is 97^2, not 129^2: a 129^2 solve takes 10-15 s, so a
    run could not repeat the pass, with the host-speed probe between cases,
    often enough to be steady (NOTES.md).  81^2 and 113^2 are avoided too:
    the reference solve stops on the patience check at 81^2 and needs 153
    Picard steps at 113^2.  The 257^2 case is left out: about 63 s per run.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n in KELDYSH_SIZES:
        draw = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in KELDYSH_RANGES.items()}
        cases.append(dict(draw, n=n))
    return cases


def keldysh_gate(a, scan_limits, corner_gap, psi_nonneg, quadratic_holds):
    """Acceptance 5: scan limits within 15% of 1/a, corner gap > 0.5/a,
    psi >= 0 and the quadratic bound."""
    misses = []
    if not np.all(np.abs(np.asarray(scan_limits) - 1.0 / a) <= 0.15 / a):
        misses.append(f"scan limits {np.round(scan_limits, 4)} not within 15% of 1/a={1 / a:.4f}")
    if not corner_gap > 0.5 / a:
        misses.append(f"corner gap {corner_gap:.4g} <= 0.5/a")
    if not psi_nonneg:
        misses.append("psi < 0")
    if not quadratic_holds:
        misses.append("quadratic bound fails")
    return misses


def keldysh_solve(sf, case):
    k = sf.keldysh
    dom, coeffs, bc = k.reference_scenario(eps0=case["eps0"], a=case["a"],
                                           o_scale=case["o_scale"])
    opts = k.KeldyshOptions(nx=case["n"], ny=case["n"], tol=1e-11, max_iter=200)
    fld = k.solve_model(dom, coeffs, opts, bc)
    f0 = float(fld.y[0, -1])
    scan = k.sonic_derivative_scan(fld, [0.25 * f0, 0.5 * f0])
    probe = k.corner_probe(fld)
    bounds = k.verify_bounds(fld, coeffs)
    return scan.limits, probe.gap, bounds


def keldysh_run(sf, case, memo):
    limits, gap, bounds = keldysh_solve(sf, case)
    return keldysh_gate(case["a"], limits, gap, bounds.psi_nonneg, bounds.quadratic_holds)


# ---------------------------------------------------------------------------
# mixed-channel
# ---------------------------------------------------------------------------

MIXED_SIZES = (257, 385)
MIXED_U0 = (0.94, 0.96)
MIXED_L = 2.0


def mixed_cases(seed, out_root):
    """Accelerating, supersonic-exit channel at 257^2 and 385^2, one seeded u0.

    Why: at 385^2 one large LU (about 3.7 s of a 4.8 s case) and about 1 s
    of per-node Python assembly, no nonlinear loop (ROADMAP item 3's
    mechanism); the two sizes show LU fill growing faster than linearly
    (13.5M and 37.7M stored entries).  The largest size is 385^2, not
    513^2: a 513^2 case takes 10-18 s, one LU call, so a run could not
    repeat it with the host-speed probe between cases (NOTES.md).  Manufactured solution and
    source as in acceptance 6.  u0 is drawn from [0.94, 0.96] rather than
    [0.85, 0.97]: the sonic column moves with u0 and the LU time with it
    (the 513^2 case took 12 s at u0=0.97 and 15.5 s at 0.85, one run each),
    which would make the time depend on the seed rather than the code.
    """
    rng = np.random.default_rng(seed)
    u0 = float(rng.uniform(*MIXED_U0))
    return [{"u0": u0, "n": n} for n in MIXED_SIZES]


def _mixed_manufactured(x1, x2, alpha11, beta1):
    g = 0.02 * (1.0 + np.sin(1.3 * x1 + 0.4))
    gp = 0.02 * 1.3 * np.cos(1.3 * x1 + 0.4)
    gpp = -0.02 * 1.3 ** 2 * np.sin(1.3 * x1 + 0.4)
    wstar = np.cos(np.pi * x2) * g
    source = np.cos(np.pi * x2) * (alpha11 * gpp - np.pi ** 2 * g + beta1 * gp)
    return wstar, source


def mixed_gate(residual, errors):
    """Acceptance 6 on a pair of sizes: the solver's residual check and an
    observed order >= 1 of the w* error.  ``errors`` maps h -> max error."""
    misses = []
    if not residual <= 1e-8:
        misses.append(f"linear residual {residual:.3e} > 1e-8")
    if len(errors) >= 2:
        (h_a, e_a), (h_b, e_b) = sorted(errors.items())[-2:]
        order = math.log(e_b / e_a) / math.log(h_b / h_a)
        if not order >= 1.0:
            misses.append(f"w* error order {order:.3f} < 1.0")
    return misses


def mixed_solve(sf, case):
    params = sf.gas.GasParams(**CANONICAL)
    background = sf.profile1d.integrate_profile(
        params, sf.profile1d.critical_inlet(params, case["u0"]), u_target=2.2)
    dom = sf.mixed2d.ChannelDomain(L=MIXED_L, n1=case["n"], n2=case["n"])
    spec = sf.mixed2d.build_operator(background, dom)
    X1, X2 = np.meshgrid(dom.x1, dom.x2, indexing="ij")
    wstar, source = _mixed_manufactured(X1, X2, spec.alpha11[:, None], spec.beta1[:, None])
    g0 = 0.02 * (1.0 + math.sin(0.4))
    bc = sf.mixed2d.BoundaryData2D(inlet_data=lambda x2: math.cos(math.pi * x2) * g0)
    fld = sf.mixed2d.solve_linear(spec, source, bc)
    return fld.metadata["residual"], float(np.max(np.abs(fld.values - wstar))), MIXED_L / (case["n"] - 1)


def mixed_run(sf, case, memo):
    residual, err, h = mixed_solve(sf, case)
    errors = memo.setdefault(("errors", case["u0"]), {})
    errors[h] = err
    return mixed_gate(residual, errors)


# ---------------------------------------------------------------------------
# lemma-suite
# ---------------------------------------------------------------------------

LEMMA_GAMMAS = (1.3, 1.5, 2.0, 3.0)


def gamma_family(gamma):
    """u_sonic = 1 for any gamma: S0 = 1/gamma, J = 1, rho_ion = 1/2."""
    return dict(gamma=gamma, S0=1.0 / gamma, J=1.0, rho_ion=0.5)


def lemma_cases(seed, out_root):
    """Acceptance 3 drawn from the seed: 10 accelerating inlets u0 in
    [0.70, 0.97] (canonical gas), 10 decelerating inlets u0/u_s in
    [1.03, 1.30] over gamma in {1.3, 1.5, 2, 3}.

    Why: pure profile1d/gas code with no sparse linear algebra; 91% of the
    time is ``verify_lemma`` self time (the polyline Hausdorff check).
    """
    rng = np.random.default_rng(seed)
    cases = [{"params": CANONICAL, "u0": float(u0), "branch": "accelerating"}
             for u0 in rng.uniform(0.70, 0.97, size=10)]
    for k, ratio in enumerate(rng.uniform(1.03, 1.30, size=10)):
        gamma = LEMMA_GAMMAS[k % len(LEMMA_GAMMAS)]
        cases.append({"params": gamma_family(gamma), "u0": float(ratio), "branch": "decelerating"})
    return cases


def lemma_gate(report, branch, gamma):
    """``report.passed``, plus the l_max dichotomy on decelerating inlets:
    finite exactly when gamma < 2."""
    misses = []
    if not report.passed:
        misses.append("claims failed: " + ", ".join(c.name for c in report.claims if not c.passed))
    if branch == "decelerating" and report.lmax.finite is not (gamma < 2.0):
        misses.append(f"l_max finite={report.lmax.finite} at gamma={gamma}")
    return misses


def lemma_solve(sf, case):
    params = sf.gas.GasParams(**case["params"])
    inlet = sf.profile1d.critical_inlet(params, case["u0"] * params.u_sonic, branch=case["branch"])
    return sf.profile1d.verify_lemma(params, inlet, rtol=1e-9, atol=1e-11)


def lemma_run(sf, case, memo):
    report = lemma_solve(sf, case)
    return lemma_gate(report, case["branch"], case["params"]["gamma"])


# ---------------------------------------------------------------------------
# cli-artifacts
# ---------------------------------------------------------------------------

UPSTREAM = {"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0}


def cli_cases(seed, out_root):
    """Seven configs through ``sonicflow.cli.main(["run", cfg])`` in-process.

    Why: the only workload that measures cli, svgplot (heatmaps), shockpolar
    (``compute_polar``) and artifact writing, and it uses both solvers
    differently: the mixed solve is a decelerating, subsonic-exit channel
    (one global LU, no supersonic column march possible) and the Keldysh
    solve is the manufactured Dirichlet-top problem without the reference
    scenario's oblique top condition and perturbation terms.  Only the
    profile inlet u0 in [0.85, 0.97] is drawn from the seed.  The warm-up
    runs all seven configs, because the gate compares CSV digests with it.
    """
    rng = np.random.default_rng(seed)
    u0 = float(rng.uniform(0.85, 0.97))
    bodies = {
        "phase-portrait": {"gas": CANONICAL, "n": 20001},
        "profile": {"gas": CANONICAL, "inlet": {"u0": u0, "branch": "accelerating"}},
        "kz-check": {"gas": CANONICAL, "inlet": {"u0": 1.05, "branch": "decelerating"},
                     "stop": {"u_target": 0.4}},
        "keldysh-solve": {"scenario": "manufactured", "grid": {"nx": 65, "ny": 65}},
        "mixed-solve": {"gas": CANONICAL, "inlet": {"u0": 1.05, "branch": "decelerating"},
                        "channel": {"L": 1.0, "n1": 257, "n2": 129},
                        "bc": {"kind": "cos", "amplitude": 0.01, "outlet_zero": True},
                        "source": {"kind": "sin", "amplitude": 0.02, "wavenumber": 2.0}},
        "shock-polar": {"upstream": UPSTREAM, "n_samples": 20000},
        "geometry": {"upstream": UPSTREAM, "theta_w": 0.15, "configuration": "wedge-flow"},
    }
    cases = []
    for sub, body in bodies.items():
        stem = os.path.join(out_root, sub)
        cfg = dict({"schema_version": 1, "subcommand": sub, "output_dir": stem}, **body)
        path = stem + ".json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        cases.append({"sub": sub, "config": path, "outdir": stem, "digests": {}})
    return cases


def csv_digests(outdir):
    """sha256 of every CSV the run's manifest lists, hashed from the files."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        names = [o["name"] for o in json.load(fh)["outputs"] if o["name"].endswith(".csv")]
    out = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def cli_gate(code, digests, reference):
    """Exit 0 and CSV digests identical to the warm-up run's."""
    if code != 0:
        return [f"exit {code}"]
    if not digests or digests != reference:
        return ["CSV digests differ from the warm-up run"]
    return []


def cli_run(sf, case, memo):
    code = sf.cli.main(["run", case["config"]])
    digests = csv_digests(case["outdir"]) if code == 0 else {}
    case["digests"] = case["digests"] or digests  # the warm-up pass fixes the reference
    return cli_gate(code, digests, case["digests"])


WORKLOADS = {
    "keldysh-ref": Workload("keldysh-ref", keldysh_cases, lambda cases: cases[:1], keldysh_run),
    "mixed-channel": Workload("mixed-channel", mixed_cases, lambda cases: cases[:1], mixed_run),
    "lemma-suite": Workload("lemma-suite", lemma_cases, lambda cases: cases[:1], lemma_run),
    "cli-artifacts": Workload("cli-artifacts", cli_cases, lambda cases: cases, cli_run),
}
