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
import traceback
from typing import NamedTuple

import numpy as np

from . import __version__
from .field2d import csv_text, field_csv_text
from .gas import GasParams, critical_field, find_u_star
from .keldysh import (KeldyshConvergenceError, KeldyshDivergenceError, KeldyshOptions,
                      corner_probe, manufactured_scenario, solve_model,
                      sonic_derivative_scan, reference_scenario, verify_bounds, _Grid,
                      _scan_abscissas)
from .mixed2d import BoundaryData2D, ChannelDomain, build_operator, solve_linear, \
    sonic_smoothness_diag, _sonic_side_columns
from .profile1d import (InletData, ProfileError, critical_inlet, integrate_profile,
                        kz_check, profile_csv_text, reconstruct_fields, verify_lemma,
                        _kz_alpha_beta)
from .shockpolar import (CONFIGURATIONS, SelfSimilarState, UpstreamState, compute_polar,
                         pseudo_sonic_geometry, weak_state)
from .svgplot import SvgCanvas, heatmap, line_plot

SCHEMA_VERSION = 1
ENV_OUTPUT_ROOT = "SONICFLOW_OUTPUT_ROOT"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config table
# ---------------------------------------------------------------------------

REQUIRED, LIBRARY = object(), object()


class Key(NamedTuple):
    """A config key's type; its default: REQUIRED, the CLI's own or LIBRARY
    (absent unless set: the library's default applies, or one the handler
    works out); and the allowed strings or (predicate, description) the CLI checks."""

    type: type
    default: object = LIBRARY
    allowed: tuple = ()


_SCENARIOS = {"reference": reference_scenario, "manufactured": manufactured_scenario}
_GAS = {key: Key(float, REQUIRED) for key in ("gamma", "S0", "J", "rho_ion")}
_INLET = {"u0": Key(float, REQUIRED), "E0": Key(float), "branch": Key(str)}
_INTEG = {"rtol": Key(float), "atol": Key(float), "n_samples": Key(int)}
_PROFILE = {"gas": _GAS, "inlet": _INLET,
            "stop": {"x_max": Key(float), "u_target": Key(float)}, "integrator": _INTEG}
_UPSTREAM = {key: Key(float, REQUIRED) for key in ("gamma", "rho_inf", "q_inf")}

#: Every key a config may set, per subcommand; a dict value is a block.
CONFIG_KEYS = {
    "phase-portrait": {"gas": _GAS, "u_min": Key(float), "u_max": Key(float),
                       "n": Key(int, 1001, (lambda n: n >= 2, "at least 2 samples"))},
    "profile": _PROFILE,
    "kz-check": _PROFILE,
    "keldysh-solve": {
        "scenario": Key(str, "reference", tuple(_SCENARIOS)),
        "a": Key(float), "b": Key(float), "eps0": Key(float), "o_scale": Key(float),
        "grid": {"nx": Key(int), "ny": Key(int), "grading": Key(float)},
        "solver": {"max_iter": Key(int), "tol": Key(float)},
        "scan": {"y_fractions": Key(list, (0.25, 0.5), (
            lambda v: bool(v) and all(type(fr) in (int, float) and 0.0 <= fr <= 1.0 for fr in v),
            "a non-empty list of numbers in [0, 1]"))},
        "corner": {"c": Key(float)},
    },
    "mixed-solve": {
        "gas": _GAS, "inlet": _INLET,
        "channel": {"L": Key(float, 2.0), "n1": Key(int), "n2": Key(int)},
        "bc": {"inlet_mode": Key(str), "kind": Key(str, "cos", ("cos", "zero")),
               "amplitude": Key(float, 0.01), "mode_k": Key(int, 1), "anchor": Key(float),
               "outlet_zero": Key(bool, False)},
        "source": {"kind": Key(str, "zero", ("zero", "sin")), "amplitude": Key(float, 0.02),
                   "wavenumber": Key(float, 2.0)},
        "integrator": _INTEG,
    },
    "shock-polar": {"upstream": _UPSTREAM, "n_samples": Key(int)},
    "geometry": {"upstream": _UPSTREAM, "theta_w": Key(float, 0.15),
                 "configuration": Key(str, "wedge-flow", CONFIGURATIONS), "k": Key(float)},
}
_COMMON = {"schema_version": Key(int, REQUIRED), "subcommand": Key(str, REQUIRED),
           "output_dir": Key(str), "emit": {"svg": Key(bool, True)}}
_NOUNS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
          list: "a list"}


def _typed(val, key: Key, path: str):
    """val as the key's type (JSON integers as floats), if it is allowed."""
    if (not isinstance(val, (int, float) if key.type is float else key.type)
            or key.type in (int, float) and isinstance(val, bool)):
        raise ConfigError(f"{path} must be {_NOUNS[key.type]}")
    if key.type is float:
        if not abs(val) <= sys.float_info.max:  # json reads NaN and Infinity
            raise ConfigError(f"{path} must be a finite number, got {val}")
        val = float(val)
    if key.allowed:
        test, what = key.allowed if callable(key.allowed[0]) else \
            (key.allowed.__contains__, " or ".join(map(repr, key.allowed)))
        if not test(val):
            raise ConfigError(f"{path} must be {what}, got {val!r}")
    return val


def _resolve(blk, keys: dict, path: str) -> dict:
    """Block `blk` checked against `keys`: the keys it sets, typed, and the
    CLI's defaults of those it leaves out."""
    if not isinstance(blk, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for name in blk:
        if name not in keys:
            raise ConfigError(f"unknown key {path + name!r}")
    out = {}
    for name, key in keys.items():
        if isinstance(key, dict):
            if name not in blk and any(k.default is REQUIRED for k in key.values()):
                raise ConfigError(f"missing {name!r} block")
            out[name] = _resolve(blk.get(name, {}), key, path + name + ".")
        elif name in blk:
            out[name] = _typed(blk[name], key, path + name)
        elif key.default is REQUIRED:
            raise ConfigError(f"{path[:-1]} block missing {name!r}")
        elif key.default is not LIBRARY:
            out[name] = key.default
    return out


def validate_config(cfg: dict) -> dict:
    """The resolved config: the keys `cfg` sets, converted to their types,
    and the CLI's defaults; keys with a library default stay absent."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be an object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    sub = cfg.get("subcommand")
    if not isinstance(sub, str) or sub not in CONFIG_KEYS:
        raise ConfigError(f"unknown subcommand {sub!r}; expected one of {sorted(CONFIG_KEYS)}")
    return _resolve(cfg, {**_COMMON, **CONFIG_KEYS[sub]}, "")


def _pick(blk: dict, *names) -> dict:
    """The keys among `names` that `blk` sets, for a library call's kwargs."""
    return {name: blk[name] for name in names if name in blk}


def _inlet_from(blk: dict, params: GasParams) -> InletData:
    if "E0" in blk:
        return InletData(u0=blk["u0"], E0=blk["E0"])
    return critical_inlet(params, blk["u0"], **_pick(blk, "branch"))


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

class ArtifactWriter:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.files: list[str] = []
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir {outdir!r}: {exc}") from exc

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.outdir, name)

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", newline="") as fh:
            fh.write(text)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True,
                                         default=_json_default) + "\n")


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

def run_phase_portrait(cfg, aw: ArtifactWriter) -> None:
    params = GasParams(**cfg["gas"])
    ustar = find_u_star(params)
    u_min = cfg.get("u_min", 0.3 * params.u_sonic)
    u_max = min(cfg.get("u_max", ustar), ustar)  # critical set ends at u*
    u = np.linspace(u_min, u_max, cfg["n"])
    e_acc = np.asarray(critical_field(params, u, "accelerating"))
    e_dec = np.asarray(critical_field(params, u, "decelerating"))
    aw.write_text("portrait.csv", csv_text("u,E_accelerating,E_decelerating",
                                           [u, e_acc, e_dec]))
    if cfg["emit"]["svg"]:
        line_plot(aw.path("portrait.svg"),
                  [(u, e_acc, "#1f77b4"), (u, e_dec, "#d62728")],
                  title="critical trajectories", xlabel="u", ylabel="E",
                  markers=[(params.u_sonic, 0.0, "u_s"), (params.u_bar, 0.0, "u_bar"),
                           (ustar, 0.0, "u_*")])


def _profile_from(cfg, params):
    inlet = _inlet_from(cfg["inlet"], params)
    return integrate_profile(params, inlet, **cfg["stop"], **cfg["integrator"]), inlet


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
    params = GasParams(**cfg["gas"])
    profile, inlet = _profile_from(cfg, params)
    profile = reconstruct_fields(params, profile)
    aw.write_text("profile.csv", profile_csv_text(profile))
    report = verify_lemma(params, inlet)
    aw.write_json("lemma_report.json", _lemma_json(report))
    if cfg["emit"]["svg"]:
        line_plot(aw.path("profile.svg"),
                  [(profile.x1, profile.u, "#1f77b4"), (profile.x1, profile.E, "#d62728")],
                  title="profile: u (blue), E (red)", xlabel="x1", ylabel="value",
                  markers=[(profile.l_s, params.u_sonic, "l_s")] if profile.l_s else [])


def run_kz_check(cfg, aw: ArtifactWriter) -> None:
    params = GasParams(**cfg["gas"])
    profile, _ = _profile_from(cfg, params)
    profile = reconstruct_fields(params, profile)
    report = kz_check(params, profile)
    alpha, beta = _kz_alpha_beta(params, profile.u, profile.E, profile.du)
    aw.write_text("coefficients.csv", csv_text("x1,alpha11,beta1",
                                               [profile.x1, alpha, beta]))
    aw.write_json("kz_report.json", {
        "holds": report.holds,
        "lambda_L": report.lambda_L,
        "per_m_min": {str(m): v for m, v in report.per_m_min.items()},
        "agreement_rel_max": report.agreement_rel_max,
        "branch": profile.branch,
    })
    if cfg["emit"]["svg"]:
        line_plot(aw.path("coefficients.svg"),
                  [(profile.x1, alpha, "#1f77b4"), (profile.x1, beta, "#d62728")],
                  title="alpha11 (blue), beta1 (red)", xlabel="x1", ylabel="value")


def run_keldysh(cfg, aw: ArtifactWriter) -> None:
    opts = KeldyshOptions(**cfg["grid"], **cfg["solver"])
    scenario = cfg["scenario"]
    if scenario != "reference" and "o_scale" in cfg:
        raise ConfigError(f"o_scale applies to the reference scenario only, not {scenario!r}")
    dom, coeffs, bc = _SCENARIOS[scenario](**_pick(cfg, "eps0", "a", "b", "o_scale"))
    coeffs.validate_bounds(dom)
    # the scan abscissas depend on the grid alone: reject a coarse grid unsolved
    _scan_abscissas(_Grid(dom, opts.nx, opts.ny, opts.grading).x)
    fractions = cfg["scan"]["y_fractions"]
    fld = solve_model(dom, coeffs, opts, bc)
    aw.write_text("field.csv", field_csv_text(fld))
    f0 = float(fld.y[0, -1])
    scan = sonic_derivative_scan(fld, [fr * f0 for fr in fractions])
    cols = [scan.x_k] + [scan.table[i] for i in range(len(scan.y_values))]
    hdr = "x," + ",".join(f"psi_xx_y{fr:g}" for fr in fractions)
    aw.write_text("scan.csv", csv_text(hdr, cols))
    probe = corner_probe(fld, **cfg["corner"])
    bounds = verify_bounds(fld, coeffs)
    aw.write_json("diagnostics.json", {
        **{key: fld.metadata[key] for key in (
            "iterations", "factorizations", "lu_nnz", "update_history", "residual",
            "clamp_active", "clamp_count", "clamp_columns")},
        "scan_limits": scan.limits,
        "scan_target": 1.0 / coeffs.a,
        "corner": {"tangential": probe.limit_tangential,
                   "hugging": probe.limit_hugging, "gap": probe.gap},
        "bounds": {"psi_min": bounds.psi_min, "psi_nonneg": bounds.psi_nonneg,
                   "L": bounds.quadratic_L, "mu": bounds.mu, "delta": bounds.delta},
    })
    if cfg["emit"]["svg"]:
        heatmap(aw.path("field.svg"), fld.x, fld.y, fld.values,
                title="degenerate-model solution", xlabel="x", ylabel="y")
        series = [(scan.x_k, scan.table[i], color)
                  for i, color in zip(range(len(scan.y_values)),
                                      ("#1f77b4", "#d62728", "#2ca02c", "#9467bd"))]
        line_plot(aw.path("scan.svg"), series, title="psi_xx traces toward x=0",
                  xlabel="x", ylabel="psi_xx")


def run_mixed(cfg, aw: ArtifactWriter) -> None:
    params = GasParams(**cfg["gas"])
    inlet = _inlet_from(cfg["inlet"], params)
    L = cfg["channel"]["L"]
    dom = ChannelDomain(**cfg["channel"])
    profile = integrate_profile(params, inlet, x_max=1.02 * L, **cfg["integrator"])
    if profile.x1[-1] < L:
        raise ConfigError(f"profile terminates at x1={profile.x1[-1]:.6g} < L={L}; "
                          "shorten the channel")
    spec = build_operator(profile, dom)
    _sonic_side_columns(spec)  # the smoothness diagnostic's columns, before solving
    bc_blk = cfg["bc"]
    amp, k = bc_blk["amplitude"], bc_blk["mode_k"]
    if bc_blk["kind"] == "cos":
        data = lambda x2: amp * math.cos(math.pi * k * x2)
    else:
        data = lambda x2: 0.0
    outlet = (lambda x2: 0.0) if bc_blk["outlet_zero"] else None
    bc = BoundaryData2D(inlet_data=data, outlet_data=outlet,
                        **_pick(bc_blk, "inlet_mode", "anchor"))
    src = cfg["source"]
    f = None if src["kind"] == "zero" else \
        lambda X1, X2: src["amplitude"] * np.sin(src["wavenumber"] * X1) * np.ones_like(X2)
    fld = solve_linear(spec, f, bc)
    aw.write_text("solution.csv", field_csv_text(fld))
    aw.write_text("coefficients.csv", csv_text("x1,alpha11,beta1",
                                               [spec.x1, spec.alpha11, spec.beta1]))
    diag = sonic_smoothness_diag(fld, spec)
    aw.write_json("smoothness.json", {
        "l_s": diag.l_s, "w_jump": diag.w_jump, "dw_jump": diag.dw_jump,
        "d2w_jump": diag.d2w_jump, "kz_holds": spec.kz_holds,
        "residual": fld.metadata["residual"], "modes": fld.metadata["n2"],
    })
    if cfg["emit"]["svg"]:
        heatmap(aw.path("solution.svg"), fld.x, fld.y, fld.values,
                title="mixed-type channel solution", xlabel="x1", ylabel="x2")


def run_shock_polar(cfg, aw: ArtifactWriter) -> None:
    state = UpstreamState(**cfg["upstream"])
    curve = compute_polar(state, **_pick(cfg, "n_samples"))
    aw.write_text("polar.csv", csv_text("sigma,u1,u2,rho,deflection",
                                        [curve.sigma, curve.u1, curve.u2,
                                         curve.rho, curve.deflection]))
    aw.write_json("angles.json", {
        "theta_d": curve.theta_d, "theta_sonic": curve.theta_sonic,
        "sigma_detach": curve.sigma_detach, "sigma_sonic": curve.sigma_sonic,
        "normal_state": {"u": curve.normal_state[0], "rho": curve.normal_state[1]},
        "max_rh_residual": float(np.max(curve.residuals)),
    })
    if cfg["emit"]["svg"]:
        u1 = np.concatenate([curve.u1, curve.u1[::-1]])
        u2 = np.concatenate([curve.u2, -curve.u2[::-1]])
        wk, _, _ = weak_state(curve, curve.theta_sonic)
        line_plot(aw.path("polar.svg"), [(u1, u2, "#1f77b4")],
                  title="shock polar", xlabel="u1", ylabel="u2",
                  markers=[(curve.normal_state[0], 0.0, "normal"),
                           (state.q_inf, 0.0, "vanishing"),
                           (wk[0], wk[1], "sonic")])


def run_geometry(cfg, aw: ArtifactWriter) -> None:
    state = UpstreamState(**cfg["upstream"])
    theta_w, configuration = cfg["theta_w"], cfg["configuration"]
    curve = compute_polar(state)
    u_vec, rho0, sigma = weak_state(curve, theta_w)
    ss = SelfSimilarState(gamma=state.gamma, u0_vec=(float(u_vec[0]), float(u_vec[1])),
                         rho0=rho0, **_pick(cfg, "k"))
    geo = pseudo_sonic_geometry(ss, theta_w, configuration)
    u_ns, rho_ns = curve.normal_state
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
    if cfg["emit"]["svg"]:
        r = ss.sonic_radius
        span = max(state.q_inf, abs(ss.u0_vec[0]) + r) * 1.2
        cv = SvgCanvas((-0.2 * span, span), (-0.7 * span, 0.7 * span),
                       title=f"configuration ({configuration})", xlabel="xi1",
                       ylabel="xi2")
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

def _resolve_outdir(cfg, config_path: str) -> str | None:
    """The output directory a config names (runs/<config name> by default), or None."""
    base = os.path.splitext(os.path.basename(config_path))[0]
    outdir = cfg.get("output_dir", f"runs/{base}") if isinstance(cfg, dict) else None
    if not isinstance(outdir, str):
        return None
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root and not os.path.isabs(outdir):
        outdir = os.path.join(root, outdir)
    return outdir


def _write_manifest(aw: ArtifactWriter, sub: str, cfg: dict, t0: float) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": sub,
        "tool_version": __version__,
        "config": cfg,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": [{"name": name, **_digest(os.path.join(aw.outdir, name))}
                    for name in aw.files],
    }
    with open(os.path.join(aw.outdir, "manifest.json"), "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_config(config_path: str) -> int:
    t0 = time.perf_counter()
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 1
    outdir = _resolve_outdir(cfg, config_path)
    aw = None
    try:
        resolved = validate_config(cfg)
        aw = ArtifactWriter(outdir)
        HANDLERS[resolved["subcommand"]](resolved, aw)
        _write_manifest(aw, resolved["subcommand"], cfg, t0)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = 1
    except (ProfileError, KeldyshDivergenceError, KeldyshConvergenceError,
            RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # a defect: one line naming where it was raised, not a traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message} "
              f"({os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        code = 2
    else:
        return 0
    # a failed run leaves nothing that looks like a result: not what it
    # wrote, nor a manifest left by an earlier run
    if outdir is not None and os.path.isdir(outdir):
        for name in (aw.files if aw else []) + ["manifest.json"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(outdir, name))
    return code


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
