"""Config-driven command line front end.

One JSON config file per run (documented schema, versioned); the subcommand
is named inside the config.  CSV is the canonical data format and is byte-
reproducible; SVG plots are derived artifacts regenerated deterministically
from the same data.  Every run writes a manifest listing the emitted files
with content digests.

Exit codes: 0 success, 1 config/validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .field2d import csv_text, field_csv_text
from .gas import GasParams, critical_field, find_u_star
from .keldysh import (KeldyshBC, KeldyshCoefficients, KeldyshConvergenceError,
                      KeldyshDivergenceError, KeldyshDomain, KeldyshOptions,
                      corner_probe, solve_model, sonic_derivative_scan,
                      reference_scenario, verify_bounds, _Grid, _scan_abscissas)
from .mixed2d import BoundaryData2D, ChannelDomain, build_operator, solve_linear, \
    sonic_smoothness_diag, _sonic_side_columns
from .profile1d import (InletData, ProfileError, critical_inlet, integrate_profile,
                        kz_check, profile_csv_text, reconstruct_fields, verify_lemma)
from .shockpolar import (SelfSimilarState, UpstreamState, compute_polar,
                         normal_shock, pseudo_sonic_geometry, weak_state)
from .svgplot import SvgCanvas, heatmap, line_plot

SCHEMA_VERSION = 1
ENV_OUTPUT_ROOT = "SONICFLOW_OUTPUT_ROOT"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_GAS = {"gamma": float, "S0": float, "J": float, "rho_ion": float}
_INLET = {"u0": float, "E0": float, "branch": str}
_STOP = {"x_max": float, "u_target": float}
_INTEG = {"rtol": float, "atol": float, "n_samples": int}
_EMIT = {"svg": bool, "svg_timestamp": bool}

SCHEMAS = {
    "phase-portrait": {"gas": _GAS, "u_min": float, "u_max": float, "n": int},
    "profile": {"gas": _GAS, "inlet": _INLET, "stop": _STOP, "integrator": _INTEG},
    "kz-check": {"gas": _GAS, "inlet": _INLET, "stop": _STOP, "integrator": _INTEG},
    "keldysh-solve": {
        "scenario": str,  # reference | manufactured
        "a": float, "b": float, "eps0": float, "o_scale": float,
        "grid": {"nx": int, "ny": int, "grading": float},
        "solver": {"max_iter": int, "tol": float},
        "scan": {"y_fractions": list},
        "corner": {"c": float},
    },
    "mixed-solve": {
        "gas": _GAS, "inlet": _INLET,
        "channel": {"L": float, "n1": int, "n2": int},
        "bc": {"inlet_mode": str, "kind": str, "amplitude": float, "mode_k": int,
               "anchor": float, "outlet_zero": bool},
        "source": {"kind": str, "amplitude": float, "wavenumber": float},
        "integrator": _INTEG,
    },
    "shock-polar": {"upstream": {"gamma": float, "rho_inf": float, "q_inf": float},
                    "n_samples": int},
    "geometry": {"upstream": {"gamma": float, "rho_inf": float, "q_inf": float},
                 "theta_w": float, "configuration": str, "k": float},
}
_COMMON = {"schema_version": int, "subcommand": str, "output_dir": str, "emit": _EMIT}


def _check_keys(block, schema, path):
    if not isinstance(block, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key, val in block.items():
        if key not in schema:
            raise ConfigError(f"unknown key {path + key!r}")
        want = schema[key]
        if isinstance(want, dict):
            _check_keys(val, want, path + key + ".")
        elif want is float:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{path + key} must be a number")
        elif want is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{path + key} must be an integer")
        elif want is bool:
            if not isinstance(val, bool):
                raise ConfigError(f"{path + key} must be a boolean")
        elif want is str:
            if not isinstance(val, str):
                raise ConfigError(f"{path + key} must be a string")
        elif want is list:
            if not isinstance(val, list):
                raise ConfigError(f"{path + key} must be a list")


def validate_config(cfg: dict) -> str:
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    sub = cfg.get("subcommand")
    if sub not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {sub!r}; expected one of {sorted(SCHEMAS)}")
    merged = dict(_COMMON)
    merged.update(SCHEMAS[sub])
    _check_keys(cfg, merged, "")
    return sub


def _gas_from(cfg) -> GasParams:
    g = cfg.get("gas")
    if g is None:
        raise ConfigError("missing 'gas' block")
    try:
        return GasParams(gamma=float(g["gamma"]), S0=float(g["S0"]),
                         J=float(g["J"]), rho_ion=float(g["rho_ion"]))
    except KeyError as exc:
        raise ConfigError(f"gas block missing {exc}") from exc


def _inlet_from(cfg, params: GasParams) -> InletData:
    blk = cfg.get("inlet")
    if blk is None:
        raise ConfigError("missing 'inlet' block")
    u0 = float(blk["u0"])
    if "E0" in blk:
        return InletData(u0=u0, E0=float(blk["E0"]))
    branch = blk.get("branch", "accelerating")
    return critical_inlet(params, u0, branch)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

class ArtifactWriter:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.files: list[str] = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.outdir, name)

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", newline="") as fh:
            fh.write(text)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True,
                                         default=_json_default) + "\n")

    def discard(self) -> None:
        """Remove what this writer wrote and any manifest left by an earlier
        run, so that a failed run leaves nothing that looks like a result."""
        for name in self.files + ["manifest.json"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.outdir, name))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _digest(path: str) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        data = fh.read()
        h.update(data)
    return {"bytes": len(data), "sha256": h.hexdigest()}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _emit_opts(cfg):
    emit = cfg.get("emit", {})
    return emit.get("svg", True), emit.get("svg_timestamp", False)


def run_phase_portrait(cfg, aw: ArtifactWriter) -> None:
    params = _gas_from(cfg)
    ustar = find_u_star(params)
    u_min = float(cfg.get("u_min", 0.3 * params.u_sonic))
    u_max = min(float(cfg.get("u_max", ustar)), ustar)  # critical set ends at u*
    n = int(cfg.get("n", 1001))
    u = np.linspace(u_min, u_max, n)
    e_acc = np.asarray(critical_field(params, u, "accelerating"))
    e_dec = np.asarray(critical_field(params, u, "decelerating"))
    aw.write_text("portrait.csv", csv_text("u,E_accelerating,E_decelerating",
                                           [u, e_acc, e_dec]))
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        line_plot(aw.path("portrait.svg"),
                  [(u, e_acc, "#1f77b4"), (u, e_dec, "#d62728")],
                  title="critical trajectories", xlabel="u", ylabel="E",
                  markers=[(params.u_sonic, 0.0, "u_s"), (params.u_bar, 0.0, "u_bar"),
                           (ustar, 0.0, "u_*")],
                  timestamp=ts)


def _integrator_opts(cfg) -> dict:
    """The integrator keys the config sets, as integrate_profile arguments;
    absent ones keep its defaults."""
    return {key: _INTEG[key](val) for key, val in cfg.get("integrator", {}).items()}


def _profile_from(cfg, params):
    inlet = _inlet_from(cfg, params)
    stop = cfg.get("stop", {})
    return integrate_profile(params, inlet, x_max=stop.get("x_max"),
                             u_target=stop.get("u_target"), **_integrator_opts(cfg)), inlet


def _lemma_json(report):
    return {
        "branch": report.branch,
        "gamma": report.gamma,
        "passed": report.passed,
        "claims": [{"name": c.name, "passed": bool(c.passed), "margin": c.margin,
                    "detail": c.detail} for c in report.claims],
        "lmax": None if report.lmax is None else {
            "finite": report.lmax.finite,
            "value": report.lmax.value,
            "ratio_mean": report.lmax.ratio_mean,
            "horizon": report.lmax.horizon,
            "method_values": report.lmax.method_values,
        },
    }


def run_profile(cfg, aw: ArtifactWriter) -> None:
    params = _gas_from(cfg)
    profile, inlet = _profile_from(cfg, params)
    profile = reconstruct_fields(params, profile)
    aw.write_text("profile.csv", profile_csv_text(profile))
    report = verify_lemma(params, inlet)
    aw.write_json("lemma_report.json", _lemma_json(report))
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        line_plot(aw.path("profile.svg"),
                  [(profile.x1, profile.u, "#1f77b4"), (profile.x1, profile.E, "#d62728")],
                  title="profile: u (blue), E (red)", xlabel="x1", ylabel="value",
                  markers=[(profile.l_s, params.u_sonic, "l_s")] if profile.l_s else [],
                  timestamp=ts)


def run_kz_check(cfg, aw: ArtifactWriter) -> None:
    params = _gas_from(cfg)
    profile, _ = _profile_from(cfg, params)
    profile = reconstruct_fields(params, profile)
    report = kz_check(params, profile)
    g = params.gamma
    us = params.u_sonic
    alpha = 1.0 - (profile.u / us) ** (g + 1.0)
    beta = (profile.E - (g + 1.0) * profile.du * profile.u) * profile.u ** (g - 1.0) / us ** (g + 1.0)
    aw.write_text("coefficients.csv", csv_text("x1,alpha11,beta1",
                                               [profile.x1, alpha, beta]))
    aw.write_json("kz_report.json", {
        "holds": report.holds,
        "lambda_L": report.lambda_L,
        "per_m_min": {str(m): v for m, v in report.per_m_min.items()},
        "agreement_rel_max": report.agreement_rel_max,
        "branch": profile.branch,
    })
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        line_plot(aw.path("coefficients.svg"),
                  [(profile.x1, alpha, "#1f77b4"), (profile.x1, beta, "#d62728")],
                  title="alpha11 (blue), beta1 (red)", xlabel="x1", ylabel="value",
                  timestamp=ts)


def run_keldysh(cfg, aw: ArtifactWriter) -> None:
    scenario = cfg.get("scenario", "reference")
    a = float(cfg.get("a", 4.0))
    b = float(cfg.get("b", 1.0))
    eps0 = float(cfg.get("eps0", 0.5))
    # grid and solver keys are KeldyshOptions fields; absent ones keep its defaults
    opts = KeldyshOptions(**cfg.get("grid", {}), **cfg.get("solver", {}))
    if scenario == "reference":
        dom, coeffs, bc = reference_scenario(eps0=eps0, a=a, b=b,
                                           o_scale=float(cfg.get("o_scale", 0.05)))
    elif scenario == "manufactured":
        dom = KeldyshDomain(eps0=eps0, f=lambda x: 1.0 + x, fp=lambda x: 1.0,
                            fpp=lambda x: 0.0, omega=1.0)
        coeffs = KeldyshCoefficients(a=a, b=b)
        exact = lambda x: x * x / (2.0 * a)
        bc = KeldyshBC(top_mode="dirichlet", top_data=exact,
                       right_data=lambda y: exact(eps0))
    else:
        raise ConfigError(f"unknown keldysh scenario {scenario!r}")
    coeffs.validate_bounds(dom)
    # the scan abscissas depend on the grid alone: reject a coarse grid unsolved
    _scan_abscissas(_Grid(dom, opts.nx, opts.ny, opts.grading).x)
    fld = solve_model(dom, coeffs, opts, bc)
    aw.write_text("field.csv", field_csv_text(fld))
    f0 = float(fld.y[0, -1])
    fractions = cfg.get("scan", {}).get("y_fractions", [0.25, 0.5])
    scan = sonic_derivative_scan(fld, [fr * f0 for fr in fractions])
    cols = [scan.x_k] + [scan.table[i] for i in range(len(scan.y_values))]
    hdr = "x," + ",".join(f"psi_xx_y{fr:g}" for fr in fractions)
    aw.write_text("scan.csv", csv_text(hdr, cols))
    probe = corner_probe(fld, c=float(cfg.get("corner", {}).get("c", 1.0)))
    bounds = verify_bounds(fld, coeffs)
    aw.write_json("diagnostics.json", {
        "iterations": fld.metadata["iterations"],
        "residual": fld.metadata["residual"],
        "clamp_active": fld.metadata["clamp_active"],
        "scan_limits": scan.limits,
        "scan_target": 1.0 / a,
        "corner": {"tangential": probe.limit_tangential,
                   "hugging": probe.limit_hugging, "gap": probe.gap},
        "bounds": {"psi_min": bounds.psi_min, "psi_nonneg": bounds.psi_nonneg,
                   "L": bounds.quadratic_L, "mu": bounds.mu, "delta": bounds.delta},
    })
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        heatmap(aw.path("field.svg"), fld.x, fld.y, fld.values,
                title="degenerate-model solution", xlabel="x", ylabel="y", timestamp=ts)
        series = [(scan.x_k, scan.table[i], color)
                  for i, color in zip(range(len(scan.y_values)),
                                      ("#1f77b4", "#d62728", "#2ca02c", "#9467bd"))]
        line_plot(aw.path("scan.svg"), series, title="psi_xx traces toward x=0",
                  xlabel="x", ylabel="psi_xx", timestamp=ts)


def run_mixed(cfg, aw: ArtifactWriter) -> None:
    params = _gas_from(cfg)
    inlet = _inlet_from(cfg, params)
    chan = cfg.get("channel", {})
    L = float(chan.get("L", 2.0))
    # n1 and n2 are ChannelDomain fields; absent ones keep its defaults
    dom = ChannelDomain(**dict(chan, L=L))
    profile = integrate_profile(params, inlet, x_max=1.02 * L, **_integrator_opts(cfg))
    if profile.x1[-1] < L:
        raise ConfigError(f"profile terminates at x1={profile.x1[-1]:.6g} < L={L}; "
                          "shorten the channel")
    spec = build_operator(profile, dom)
    _sonic_side_columns(spec)  # the smoothness diagnostic's columns, before solving
    bc_blk = cfg.get("bc", {})
    kind = bc_blk.get("kind", "cos")
    amp = float(bc_blk.get("amplitude", 0.01))
    k = int(bc_blk.get("mode_k", 1))
    if kind == "cos":
        data = lambda x2: amp * math.cos(math.pi * k * x2)
    elif kind == "zero":
        data = lambda x2: 0.0
    else:
        raise ConfigError(f"unknown inlet data kind {kind!r}")
    outlet = (lambda x2: 0.0) if bc_blk.get("outlet_zero") else None
    bc = BoundaryData2D(inlet_mode=bc_blk.get("inlet_mode", "dirichlet"),
                        inlet_data=data, outlet_data=outlet,
                        anchor=float(bc_blk.get("anchor", 0.0)))
    src = cfg.get("source", {})
    s_kind = src.get("kind", "zero")
    if s_kind == "zero":
        f = None
    elif s_kind == "sin":
        s_amp = float(src.get("amplitude", 0.02))
        s_k = float(src.get("wavenumber", 2.0))
        f = lambda X1, X2: s_amp * np.sin(s_k * X1) * np.ones_like(X2)
    else:
        raise ConfigError(f"unknown source kind {s_kind!r}")
    fld = solve_linear(spec, f, bc)
    aw.write_text("solution.csv", field_csv_text(fld))
    aw.write_text("coefficients.csv", csv_text("x1,alpha11,beta1",
                                               [spec.x1, spec.alpha11, spec.beta1]))
    diag = sonic_smoothness_diag(fld, spec)
    aw.write_json("smoothness.json", {
        "l_s": diag.l_s, "w_jump": diag.w_jump, "dw_jump": diag.dw_jump,
        "d2w_jump": diag.d2w_jump, "kz_holds": spec.kz_holds,
        "residual": fld.metadata["residual"],
    })
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        heatmap(aw.path("solution.svg"), fld.x, fld.y, fld.values,
                title="mixed-type channel solution", xlabel="x1", ylabel="x2",
                timestamp=ts)


def run_shock_polar(cfg, aw: ArtifactWriter) -> None:
    up = cfg.get("upstream")
    if up is None:
        raise ConfigError("missing 'upstream' block")
    state = UpstreamState(gamma=float(up["gamma"]), rho_inf=float(up["rho_inf"]),
                          q_inf=float(up["q_inf"]))
    curve = compute_polar(state, n_samples=int(cfg.get("n_samples", 2048)))
    aw.write_text("polar.csv", csv_text("sigma,u1,u2,rho,deflection",
                                        [curve.sigma, curve.u1, curve.u2,
                                         curve.rho, curve.deflection]))
    aw.write_json("angles.json", {
        "theta_d": curve.theta_d, "theta_sonic": curve.theta_sonic,
        "sigma_detach": curve.sigma_detach, "sigma_sonic": curve.sigma_sonic,
        "normal_state": {"u": curve.normal_state[0], "rho": curve.normal_state[1]},
        "max_rh_residual": float(np.max(curve.residuals)),
    })
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        u1 = np.concatenate([curve.u1, curve.u1[::-1]])
        u2 = np.concatenate([curve.u2, -curve.u2[::-1]])
        wk, _, _ = weak_state(curve, curve.theta_sonic)
        line_plot(aw.path("polar.svg"), [(u1, u2, "#1f77b4")],
                  title="shock polar", xlabel="u1", ylabel="u2",
                  markers=[(curve.normal_state[0], 0.0, "normal"),
                           (state.q_inf, 0.0, "vanishing"),
                           (wk[0], wk[1], "sonic")],
                  timestamp=ts)


def run_geometry(cfg, aw: ArtifactWriter) -> None:
    up = cfg.get("upstream")
    if up is None:
        raise ConfigError("missing 'upstream' block")
    state = UpstreamState(gamma=float(up["gamma"]), rho_inf=float(up["rho_inf"]),
                          q_inf=float(up["q_inf"]))
    theta_w = float(cfg.get("theta_w", 0.15))
    configuration = cfg.get("configuration", "wedge-flow")
    curve = compute_polar(state)
    u_vec, rho0, sigma = weak_state(curve, theta_w)
    ss = SelfSimilarState(gamma=state.gamma, u0_vec=(float(u_vec[0]), float(u_vec[1])),
                         rho0=rho0, k=float(cfg.get("k", 0.0)))
    geo = pseudo_sonic_geometry(ss, theta_w, configuration)
    u_ns, rho_ns = normal_shock(state)
    aw.write_json("states.json", {
        "weak_state": {"u1": float(u_vec[0]), "u2": float(u_vec[1]), "rho": rho0,
                       "sigma": sigma},
        "normal_state": {"u": u_ns, "rho": rho_ns,
                         "sonic_radius": rho_ns ** (0.5 * (state.gamma - 1.0))},
        "theta_w": theta_w, "theta_d": curve.theta_d, "theta_sonic": curve.theta_sonic,
        "sonic_circle": {"center": list(ss.u0_vec), "radius": ss.sonic_radius},
        "configuration": configuration,
    })
    arc = geo.arc_points(0.0, 2.0 * math.pi, 361)
    aw.write_text("sonic_arc.csv", csv_text("xi1,xi2", [arc[:, 0], arc[:, 1]]))
    svg_on, ts = _emit_opts(cfg)
    if svg_on:
        r = ss.sonic_radius
        span = max(state.q_inf, abs(ss.u0_vec[0]) + r) * 1.2
        cv = SvgCanvas((-0.2 * span, span), (-0.7 * span, 0.7 * span),
                       title=f"configuration ({configuration})", xlabel="xi1",
                       ylabel="xi2", timestamp=ts)
        # wedge
        wedge_len = span
        cv.line(0.0, 0.0, wedge_len, wedge_len * math.tan(theta_w), color="#000000", width=2)
        cv.line(0.0, 0.0, wedge_len, -wedge_len * math.tan(theta_w), color="#000000", width=2)
        # sonic circle and center
        cv.circle(ss.u0_vec[0], ss.u0_vec[1], r, color="#2ca02c")
        cv.marker(ss.u0_vec[0], ss.u0_vec[1], color="#2ca02c")
        cv.text(ss.u0_vec[0], ss.u0_vec[1] + 0.05 * span, "u0", size=10)
        # straight oblique shock through the origin at the shock angle
        shock_ang = theta_w + sigma if configuration == "wedge-flow" else sigma
        cv.line(0.0, 0.0, span * math.cos(shock_ang), span * math.sin(shock_ang),
                color="#d62728", width=1.5, dash="6,3")
        cv.write(aw.path("sketch.svg"))


HANDLERS = {
    "phase-portrait": run_phase_portrait,
    "profile": run_profile,
    "kz-check": run_kz_check,
    "keldysh-solve": run_keldysh,
    "mixed-solve": run_mixed,
    "shock-polar": run_shock_polar,
    "geometry": run_geometry,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _resolve_outdir(cfg, config_path: str) -> str:
    outdir = cfg.get("output_dir")
    if outdir is None:
        base = os.path.splitext(os.path.basename(config_path))[0]
        outdir = f"runs/{base}"
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root and not os.path.isabs(outdir):
        outdir = os.path.join(root, outdir)
    return outdir


def run_config(config_path: str) -> int:
    t0 = time.perf_counter()
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 1
    aw = None
    try:
        sub = validate_config(cfg)
        aw = ArtifactWriter(_resolve_outdir(cfg, config_path))
        HANDLERS[sub](cfg, aw)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = 1
    except (ProfileError, KeldyshDivergenceError, KeldyshConvergenceError,
            RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = 2
    else:
        code = 0
    if code:
        if aw is not None:
            aw.discard()
        return code

    outputs = []
    for name in aw.files:
        info = _digest(os.path.join(aw.outdir, name))
        outputs.append({"name": name, **info})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": sub,
        "tool_version": __version__,
        "config": cfg,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    with open(os.path.join(aw.outdir, "manifest.json"), "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_sweep(config_paths, jobs: int | None = None) -> int:
    codes = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for code in pool.map(run_config, config_paths):
            codes.append(code)
    for path, code in zip(config_paths, codes):
        print(f"{path}: exit {code}")
    return max(codes) if codes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sonicflow",
        description="Sonic-interface toolkit: profiles, degenerate solvers, shock polar")
    parser.add_argument("--version", action="version", version=f"sonicflow {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)
    p_run = subs.add_parser("run", help="execute one config file")
    p_run.add_argument("config", help="JSON config path")
    p_sweep = subs.add_parser("sweep", help="execute many configs concurrently")
    p_sweep.add_argument("configs", nargs="+", help="JSON config paths")
    p_sweep.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run_config(args.config)
    return run_sweep(args.configs, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
