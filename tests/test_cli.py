import contextlib
import hashlib
import io
import json
import os
import platform
import re
import tempfile
import warnings
from pathlib import Path

import numpy
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from sonicflow import cli, keldysh, mixed2d, shockpolar
from sonicflow.cli import main
from sonicflow.gas import GasParams
from sonicflow.profile1d import critical_inlet, integrate_profile, kz_check

GAS = {"gamma": 3.0, "S0": 1.0 / 3.0, "J": 1.0, "rho_ion": 0.5}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def strict_json(path):
    """The JSON at path, failing on NaN and Infinity, which JSON does not have."""
    def reject(name):
        raise AssertionError(f"{path} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def check_manifest(outdir):
    manifest = strict_json(outdir / "manifest.json")
    assert manifest["schema_version"] == 1
    assert manifest["outputs"], "manifest lists no artifacts"
    for entry in manifest["outputs"]:
        path = outdir / entry["name"]
        assert path.exists()
        assert sha(path) == entry["sha256"]
        assert path.stat().st_size == entry["bytes"]
        if path.suffix == ".json":
            strict_json(path)
    return manifest


def base_cfg(sub, outdir, **extra):
    cfg = {"schema_version": 1, "subcommand": sub, "output_dir": str(outdir)}
    cfg.update(extra)
    return cfg


def test_profile_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("profile", out, gas=GAS,
                   inlet={"u0": 0.95, "branch": "accelerating"},
                   stop={"u_target": 2.0})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    manifest = check_manifest(out)
    names = {o["name"] for o in manifest["outputs"]}
    assert {"profile.csv", "lemma_report.json", "profile.svg"} <= names
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["passed"] is True
    header = (out / "profile.csv").read_text().split("\n", 1)[0]
    assert header == "x1,u,E,rho,p,Phi,phi_bar"


def test_manifest_records_the_environment(tmp_path):
    # the last digits of polar.csv may depend on the numpy build, so a digest
    # that differs between hosts is explained from the manifest alone
    out = tmp_path / "out"
    cfg = base_cfg("shock-polar", out, upstream={"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0},
                   n_samples=50, emit={"svg": False})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    assert check_manifest(out)["env"] == {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count()}


def test_manifest_records_the_resolved_config(tmp_path):
    # next to the config as written: the config the run used, with the CLI's
    # defaults filled in; keys with a library default stay absent
    out = tmp_path / "out"
    cfg = base_cfg("mixed-solve", out, gas=GAS, inlet={"u0": 0.95, "branch": "accelerating"},
                   channel={"n1": 65, "n2": 33}, bc={"inlet_mode": "dirichlet"},
                   emit={"svg": False})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    manifest = check_manifest(out)
    assert manifest["config"] == cfg
    resolved = manifest["resolved_config"]
    assert resolved["channel"] == {"L": 2.0, "n1": 65, "n2": 33}
    assert resolved["bc"] == {"inlet_mode": "dirichlet", "kind": "cos", "amplitude": 0.01,
                              "mode_k": 1, "outlet_zero": False}
    assert resolved["inlet"] == cfg["inlet"] and resolved["integrator"] == {}


def test_profile_off_critical_reports_failing_claims(tmp_path):
    # off-critical inlets moving away from the sonic speed: a report, not an
    # error; the claims verify_lemma cannot measure (no sonic crossing, or
    # no profile after its own integration blows up, for (1.02, 0.05)) have
    # a null margin
    for u0, E0, unmeasured in ((0.9, 0.01, {"sonic_crossing"}),
                               (1.2, 0.01, {"sonic_crossing"}),
                               (1.02, 0.05, {"terminal_slope", "coverage", "sonic_crossing"})):
        out = tmp_path / f"out{u0}"
        cfg = base_cfg("profile", out, gas=GAS, inlet={"u0": u0, "E0": E0},
                       stop={"x_max": 1.0}, emit={"svg": False})
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
        check_manifest(out)
        report = json.loads((out / "lemma_report.json").read_text())
        assert report["branch"] == "off-critical" and report["passed"] is False
        failed = {c["name"] for c in report["claims"] if not c["passed"]}
        assert {"coverage", "sonic_crossing"} <= failed
        assert {c["name"] for c in report["claims"] if c["margin"] is None} == unmeasured


def test_profile_near_sonic_inlet(tmp_path):
    # 1e-5 above the sonic speed on the accelerating branch: the run goes on
    # to the turning point
    out = tmp_path / "out"
    cfg = base_cfg("profile", out, gas=GAS, inlet={"u0": 1.00001, "branch": "accelerating"},
                   emit={"svg": False})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    check_manifest(out)
    assert json.loads((out / "lemma_report.json").read_text())["branch"] == "accelerating"


def test_phase_portrait_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("phase-portrait", out, gas=GAS, n=301)
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    check_manifest(out)
    assert (out / "portrait.csv").exists() and (out / "portrait.svg").exists()


def test_kz_check_decelerating_negative_finding_is_success(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("kz-check", out, gas=GAS,
                   inlet={"u0": 1.05, "branch": "decelerating"},
                   stop={"u_target": 0.4})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    rep = json.loads((out / "kz_report.json").read_text())
    assert rep["holds"] is False and rep["lambda_L"] < 0.0
    check_manifest(out)
    # the coefficient columns are the ones kz_check samples, to the last bit
    params = GasParams(**GAS)
    profile = integrate_profile(params, critical_inlet(params, 1.05, branch="decelerating"),
                                u_target=0.4)
    report = kz_check(profile)
    rows = [line.split(",") for line in (out / "coefficients.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == profile.x1.tolist()
    assert [float(r[1]) for r in rows] == report.alpha11.tolist()
    assert [float(r[2]) for r in rows] == report.beta1.tolist()


def test_keldysh_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("keldysh-solve", out, scenario="manufactured",
                   grid={"nx": 33, "ny": 33})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    manifest = check_manifest(out)
    names = {o["name"] for o in manifest["outputs"]}
    assert {"field.csv", "scan.csv", "diagnostics.json"} <= names
    diag = json.loads((out / "diagnostics.json").read_text())
    assert abs(diag["scan_limits"][0] - 0.25) < 0.03
    # solver telemetry: one factorization for the start and one per Newton
    # step, the largest LU fill, and no clamp beyond the first interior
    # column at the final iterate
    assert diag["factorizations"] == diag["iterations"] + 1 == len(diag["update_history"]) + 1
    assert len(diag["step_factors"]) == diag["iterations"] > 0
    assert len(diag["clamped_per_step"]) == diag["factorizations"]
    assert diag["clamped_per_step"][-1] == 0
    assert diag["final_update"] <= 1e-11 and diag["lu_nnz"] > 0
    # the last LU is kept through four chord steps
    assert diag["chord_steps"] == [0, 0, 4]
    assert diag["clamp_active"] is False
    assert diag["clamp_count"] == 0 and diag["clamp_columns"] is None


def test_mixed_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("mixed-solve", out, gas=GAS,
                   inlet={"u0": 0.95, "branch": "accelerating"},
                   channel={"L": 2.0, "n1": 65, "n2": 33},
                   bc={"inlet_mode": "dirichlet", "kind": "cos", "amplitude": 0.01},
                   source={"kind": "zero"})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    check_manifest(out)
    rep = json.loads((out / "smoothness.json").read_text())
    assert rep["kz_holds"] is True
    assert rep["modes"] == 33  # one banded x1 solve per x2 mode


def test_failed_run_leaves_no_artifacts(tmp_path, capsys, monkeypatch):
    # all are rejected before any solve: an unknown key, a wrong type and a
    # missing required key, an unknown scenario, bc.kind or source.kind, the
    # 3x3 scan has too few abscissas, grid sizes must be at least 1 and a
    # 1-cell x column has too few nodes, the scan heights must be a non-empty
    # list of numbers in [0, 1], the manufactured scenario takes no o_scale,
    # the short accelerating channel has no sonic location, and the geometry
    # configuration is neither of the two the chart knows
    solves = []
    for module, name in ((keldysh, "splu"), (mixed2d, "dgbsv"), (shockpolar, "compute_polar")):
        def counting(*args, real=getattr(module, name), **kwargs):
            solves.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    channel = dict(gas=GAS, inlet={"u0": 1.05, "branch": "decelerating"},
                   channel={"L": 0.5, "n1": 9, "n2": 5})
    runs = {
        "unknown_key": base_cfg("phase-portrait", tmp_path / "unknown_key", gas=GAS, nn=11),
        "wrong_type": base_cfg("phase-portrait", tmp_path / "wrong_type", gas=GAS, n="x"),
        "missing_key": base_cfg("shock-polar", tmp_path / "missing_key",
                                upstream={"gamma": 2.0, "q_inf": 2.0}),
        "scenario": base_cfg("keldysh-solve", tmp_path / "scenario", scenario="exact",
                             grid={"nx": 17, "ny": 17}),
        "bc_kind": base_cfg("mixed-solve", tmp_path / "bc_kind", bc={"kind": "sin"}, **channel),
        "source_kind": base_cfg("mixed-solve", tmp_path / "source_kind",
                                source={"kind": "cos"}, **channel),
        "keldysh": base_cfg("keldysh-solve", tmp_path / "keldysh",
                            grid={"nx": 3, "ny": 3}),
        **{f"grid{i}": base_cfg("keldysh-solve", tmp_path / f"grid{i}", grid=grid)
           for i, grid in enumerate(({"nx": 0, "ny": 3}, {"nx": 3, "ny": 0},
                                     {"nx": 1, "ny": 3}))},
        **{f"scan{i}": base_cfg("keldysh-solve", tmp_path / f"scan{i}",
                                scenario="manufactured", grid={"nx": 17, "ny": 17},
                                scan={"y_fractions": fractions})
           for i, fractions in enumerate((["x"], [], [1.5]))},
        "o_scale": base_cfg("keldysh-solve", tmp_path / "o_scale", scenario="manufactured",
                            o_scale=0.05, grid={"nx": 17, "ny": 17}),
        "mixed": base_cfg("mixed-solve", tmp_path / "mixed", gas=GAS,
                          inlet={"u0": 0.7, "branch": "accelerating"},
                          channel={"L": 0.8, "n1": 65, "n2": 33},
                          bc={"kind": "cos", "amplitude": 0.01, "outlet_zero": True}),
        "configuration": base_cfg("geometry", tmp_path / "configuration", upstream=UPSTREAM,
                                  configuration="x"),
    }
    errors = {}
    for name, cfg in runs.items():
        out = tmp_path / name
        out.mkdir()
        (out / "manifest.json").write_text("{}")  # left by an earlier run
        assert main(["run", write_cfg(tmp_path, name + ".json", cfg)]) == 1, name
        assert list(out.iterdir()) == [], name
        errors[name] = capsys.readouterr().err
        assert errors[name].startswith("validation error: ") and errors[name].count("\n") == 1
    assert len(solves) == 0
    assert [errors[name] for name in ("wrong_type", "scenario", "bc_kind", "source_kind",
                                      "configuration")] == [
        "validation error: n must be an integer\n",
        "validation error: scenario must be 'reference' or 'manufactured', got 'exact'\n",
        "validation error: bc.kind must be 'cos' or 'zero', got 'sin'\n",
        "validation error: source.kind must be 'zero' or 'sin', got 'cos'\n",
        "validation error: configuration must be 'reflection' or 'wedge-flow', got 'x'\n"]


def test_readme_lists_the_config_table():
    # README's subcommand table names each subcommand's top-level keys, and its
    # value lists are the ones the config table (or, for bc.inlet_mode, the
    # library) accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*?) \|", readme, re.M)
    listed = {sub: re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys)) for sub, keys in rows}
    assert listed == {sub: list(keys) for sub, keys in cli.CONFIG_KEYS.items()}
    keldysh_keys, mixed_keys = cli.CONFIG_KEYS["keldysh-solve"], cli.CONFIG_KEYS["mixed-solve"]
    assert re.search(r"`scenario` \(`(\w+)`/`(\w+)`\)", readme).groups() == \
        keldysh_keys["scenario"].allowed
    bc = re.search(r"`bc`:\s+`\{inlet_mode:\s+([\w|]+),\s+kind:\s+([\w|]+),", readme)
    source = re.search(r"`source`:\s+`\{kind:\s+([\w|]+),", readme)
    assert tuple(bc.group(2).split("|")) == mixed_keys["bc"]["kind"].allowed
    assert tuple(source.group(1).split("|")) == mixed_keys["source"]["kind"].allowed
    configuration = re.search(r"`configuration` \(geometry\):\s+`([\w|-]+)`", readme)
    assert tuple(configuration.group(1).split("|")) == shockpolar.CONFIGURATIONS
    modes = bc.group(1).split("|")
    for mode in modes:
        mixed2d.BoundaryData2D(inlet_mode=mode)
    with pytest.raises(ValueError, match=re.escape(f"inlet_mode must be {'/'.join(modes)},")):
        mixed2d.BoundaryData2D(inlet_mode="d3")


def test_shock_polar_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("shock-polar", out,
                   upstream={"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    ang = json.loads((out / "angles.json").read_text())
    assert ang["theta_sonic"] < ang["theta_d"]
    assert ang["max_rh_residual"] <= 1e-10
    check_manifest(out)


def test_geometry_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("geometry", out,
                   upstream={"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0},
                   theta_w=0.15, configuration="wedge-flow")
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    states = json.loads((out / "states.json").read_text())
    assert states["sonic_circle"]["radius"] > 0.0
    check_manifest(out)


# sketch.svg of (gamma, rho_inf, q_inf) = (2, 1, 2) at theta_w = 0.15: the one
# artifact that draws with line, circle, marker and text together
SKETCH_SHA256 = {
    "wedge-flow": "93f3ed44e1663c672f8c687a925408e4627af818a1a63bb394a808564f0698c0",
    "reflection": "addac079d0ce40e5946613ed70ec1ba2985f6fc4191ef9ad813e4836960d14c5",
}


@pytest.mark.parametrize("configuration", sorted(SKETCH_SHA256))
def test_geometry_sketch_bytes(tmp_path, configuration):
    out = tmp_path / "out"
    cfg = base_cfg("geometry", out, upstream={"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0},
                   theta_w=0.15, configuration=configuration)
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    assert sha(out / "sketch.svg") == SKETCH_SHA256[configuration]


OVERFLOW_GAS = {"gamma": 2000.0, "S0": 1.0, "J": 2.0, "rho_ion": 0.5}  # u_sonic overflows


def test_invalid_gamma_exit_1(tmp_path, capsys):
    bad = dict(GAS, gamma=0.9)
    cfg = base_cfg("profile", tmp_path / "out", gas=bad,
                   inlet={"u0": 0.95, "branch": "accelerating"})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err and "> 1" in err
    cfg = base_cfg("phase-portrait", tmp_path / "out", gas=OVERFLOW_GAS)
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    assert capsys.readouterr().err.startswith("validation error: u_sonic")


def test_unknown_key_exit_1(tmp_path, capsys):
    # unknown keys, emit.svg_timestamp among them, and numbers that json
    # reads but that are not finite
    profile = dict(gas=GAS, inlet={"u0": 0.95, "branch": "accelerating"})
    cfgs = [base_cfg("profile", tmp_path / "out", tollerance=1e-3, **profile),
            base_cfg("profile", tmp_path / "out", emit={"svg_timestamp": True}, **profile),
            base_cfg("phase-portrait", tmp_path / "out", gas=GAS, u_min=float("nan")),
            base_cfg("phase-portrait", tmp_path / "out", gas=GAS, u_max=float("-inf"))]
    for cfg in cfgs:
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: unknown key 'tollerance'",
                   "validation error: unknown key 'emit.svg_timestamp'",
                   "validation error: u_min must be a finite number, got nan",
                   "validation error: u_max must be a finite number, got -inf"]


def test_bad_schema_version_exit_1(tmp_path, capsys):
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS)
    cfg["schema_version"] = 99
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    # a config that is not an object at all
    assert main(["run", write_cfg(tmp_path, "list.json", [cfg])]) == 1
    # a subcommand that is not a string, so not a key of the config table
    for sub in (["profile"], {"k": 1}):
        assert main(["run", write_cfg(tmp_path, "c.json", dict(cfg, schema_version=1, subcommand=sub))]) == 1
    err = capsys.readouterr().err.splitlines()
    expected = sorted(cli.CONFIG_KEYS)
    assert err == ["validation error: schema_version must be 1",
                   "validation error: config must be an object",
                   f"validation error: unknown subcommand ['profile']; expected one of {expected}",
                   f"validation error: unknown subcommand {{'k': 1}}; expected one of {expected}"]


def test_solver_failure_exit_2(tmp_path, capsys):
    # off-critical data heading into the sonic band blows up: exit 2
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS,
                   inlet={"u0": 0.95, "E0": -0.10},
                   stop={"u_target": 1.5})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "sonic blow-up" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    binary = tmp_path / "binary.json"  # not UTF-8
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(binary)]) == 1
    # an output_dir that exists as a file is left as it is
    taken = tmp_path / "taken"
    taken.write_text("keep")
    cfg = base_cfg("phase-portrait", taken, gas=GAS, n=11)
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and err[1].startswith(f"error: cannot read config {binary}")
    assert err[2].startswith("validation error: cannot create output_dir")
    assert taken.read_text() == "keep"


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg("profile", out, gas=GAS,
                   inlet={"u0": 0.95, "branch": "accelerating"},
                   stop={"u_target": 2.0})
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["run", path]) == 0
    first = {n: sha(out / n) for n in ("profile.csv", "profile.svg")}
    assert main(["run", path]) == 0
    second = {n: sha(out / n) for n in ("profile.csv", "profile.svg")}
    assert first == second


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SONICFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = base_cfg("phase-portrait", "rel_out", gas=GAS, n=101)
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 0
    assert (tmp_path / "root" / "rel_out" / "portrait.csv").exists()


def test_sweep(tmp_path):
    ok = base_cfg("phase-portrait", tmp_path / "a", gas=GAS, n=101)
    bad = base_cfg("profile", tmp_path / "b", gas=dict(GAS, gamma=0.5),
                   inlet={"u0": 0.95, "branch": "accelerating"})
    p1 = write_cfg(tmp_path, "a.json", ok)
    p2 = write_cfg(tmp_path, "b.json", bad)
    assert main(["sweep", p1, p2, "--jobs", "2"]) == 1
    assert (tmp_path / "a" / "portrait.csv").exists()


def test_missing_required_keys_exit_1(tmp_path, capsys):
    cfgs = [base_cfg("profile", tmp_path / "p", gas=GAS, inlet={}),
            base_cfg("shock-polar", tmp_path / "s", upstream={"gamma": 2.0, "q_inf": 2.0}),
            base_cfg("geometry", tmp_path / "g", upstream={"gamma": 2.0, "q_inf": 2.0})]
    for i, cfg in enumerate(cfgs):
        assert main(["run", write_cfg(tmp_path, f"c{i}.json", cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: inlet block missing 'u0'",
                   "validation error: upstream block missing 'rho_inf'",
                   "validation error: upstream block missing 'rho_inf'"]


def test_sweep_reports_every_config(tmp_path, capsys):
    big = write_cfg(tmp_path, "c.json",
                    base_cfg("phase-portrait", tmp_path / "c", gas=OVERFLOW_GAS))
    ok = write_cfg(tmp_path, "a.json", base_cfg("phase-portrait", tmp_path / "a", gas=GAS, n=101))
    bad = write_cfg(tmp_path, "b.json", base_cfg("profile", tmp_path / "b", gas=GAS, inlet={}))
    assert main(["sweep", big, ok, bad, "--jobs", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{big}: exit 1", f"{ok}: exit 0", f"{bad}: exit 1"]


def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, monkeypatch):
    # one line and exit 1, before any worker pool is made
    pools = []
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        lambda **kwargs: pools.append(kwargs))
    path = write_cfg(tmp_path, "a.json", base_cfg("phase-portrait", tmp_path / "a", gas=GAS, n=101))
    for jobs in ("0", "-3"):
        assert main(["sweep", path, "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["validation error: --jobs must be >= 1, got 0",
                                         "validation error: --jobs must be >= 1, got -3"]
    assert captured.out == "" and pools == []
    assert not (tmp_path / "a").exists()


def test_sweep_starts_at_most_one_worker_per_config(tmp_path, monkeypatch):
    real = cli.concurrent.futures.ProcessPoolExecutor
    workers = []

    def recording(max_workers):
        workers.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", recording)
    paths = [write_cfg(tmp_path, f"{name}.json",
                       base_cfg("phase-portrait", tmp_path / name, gas=GAS, n=101))
             for name in ("a", "b")]
    assert main(["sweep", *paths, "--jobs", "8"]) == 0
    assert main(["sweep", paths[0]]) == 0  # the default is clamped too
    assert workers == [2, 1]


def test_internal_error_exit_2(tmp_path, capsys, monkeypatch):
    # a defect in a handler is one line on stderr and exit 2, and what the
    # handler wrote before it is removed
    def broken(cfg, aw):
        aw.write_text("portrait.csv", "u\n")
        raise KeyError("oops")
    monkeypatch.setitem(cli.HANDLERS, "phase-portrait", broken)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, "c.json", base_cfg("phase-portrait", out, gas=GAS))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: KeyError: 'oops' (test_cli.py:")
    assert list(out.iterdir()) == []


def test_phase_portrait_needs_two_samples(tmp_path, capsys):
    for n in (0, 1):
        cfg = base_cfg("phase-portrait", tmp_path / "out", gas=GAS, n=n)
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: n must be at least 2 samples, got 0",
                   "validation error: n must be at least 2 samples, got 1"]


def test_profile_needs_two_samples(tmp_path, capsys):
    for n in (0, 1):
        cfg = base_cfg("profile", tmp_path / "out", gas=GAS,
                       inlet={"u0": 0.95, "branch": "accelerating"},
                       integrator={"n_samples": n})
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert not (tmp_path / "out" / "profile.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: n_samples must be at least 2, got 0",
                   "validation error: n_samples must be at least 2, got 1"]


def test_shock_polar_needs_three_samples(tmp_path, capsys):
    for n in (0, 1, 2):
        cfg = base_cfg("shock-polar", tmp_path / "out", upstream=UPSTREAM, n_samples=n)
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert not (tmp_path / "out" / "polar.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"validation error: n_samples must be at least 3, got {n}" for n in (0, 1, 2)]


def test_shock_polar_precision_limits_exit_1(tmp_path, capsys):
    # upstream states given as (gamma, rho_inf, Mach); q_inf = Mach * rho_inf**((gamma-1)/2)
    limits = [((1.01, 1.0, 20.0), "no bracketable detachment maximum"),
              ((1.0001, 1.0, 1.000001), "sonic angle 1.62e-09 not below the detachment angle")]
    for (gamma, rho_inf, mach), limit in limits:
        upstream = {"gamma": gamma, "rho_inf": rho_inf,
                    "q_inf": mach * rho_inf ** (0.5 * (gamma - 1.0))}
        cfg = base_cfg("shock-polar", tmp_path / "out", upstream=upstream, n_samples=2000)
        assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"validation error: shock polar of gamma={gamma:.9g}, rho_inf={rho_inf:.9g}, "
                              f"q_inf={upstream['q_inf']:.9g}: {limit}"), err
        assert not (tmp_path / "out" / "polar.csv").exists()


def test_profile_off_critical_inlet_inside_the_sonic_band_exits_2(tmp_path, capsys):
    # 5e-4 below the sonic speed and heading for it: the run has already
    # entered the band, where off-critical data blows up
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS, inlet={"u0": 0.9995, "E0": -0.001},
                   stop={"x_max": 0.5})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: sonic blow-up") and err.count("\n") == 1, err
    assert "u0=0.9995" in err and "E0=-0.001" in err
    assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []


def test_every_subcommand_reruns_to_identical_svg_and_json(tmp_path):
    # the manifest records the wall time; every other SVG and JSON artifact
    # is byte-reproducible
    bodies = dict(FUZZ_BODIES, **{"mixed-solve": {
        "gas": GAS, "inlet": {"u0": 0.95, "branch": "accelerating"},
        "channel": {"L": 2.0, "n1": 33, "n2": 17},
        "bc": {"inlet_mode": "dirichlet", "kind": "cos", "amplitude": 0.01}, "source": {"kind": "zero"}}})
    for sub, body in bodies.items():
        out = tmp_path / sub
        path = write_cfg(tmp_path, f"{sub}.json",
                         dict(body, schema_version=1, subcommand=sub, output_dir=str(out)))
        runs = []
        for _ in range(2):
            assert main(["run", path]) == 0, sub
            runs.append({p.name: sha(p) for p in out.iterdir()
                         if p.suffix in (".svg", ".json") and p.name != "manifest.json"})
        assert any(name.endswith(".svg") for name in runs[0]), sub
        assert runs[0] == runs[1], sub


# ---------------------------------------------------------------------------
# config fuzzing: every config ends in exit 0, 1 or 2, never in a traceback
# ---------------------------------------------------------------------------

UPSTREAM = {"gamma": 2.0, "rho_inf": 1.0, "q_inf": 2.0}
# cheap valid bodies for the fuzzer to break
FUZZ_BODIES = {
    "phase-portrait": {"gas": GAS, "n": 11},
    "profile": {"gas": GAS, "inlet": {"u0": 0.9, "E0": 0.01}, "stop": {"x_max": 0.5},
                "integrator": {"n_samples": 11}},
    "kz-check": {"gas": GAS, "inlet": {"u0": 1.05, "branch": "decelerating"},
                 "stop": {"u_target": 0.4}, "integrator": {"n_samples": 101}},
    "keldysh-solve": {"scenario": "manufactured", "scan": {"y_fractions": [0.5]}},
    "mixed-solve": {"gas": GAS, "inlet": {"u0": 1.05, "branch": "decelerating"},
                    "channel": {"L": 0.5, "n1": 9, "n2": 5}},
    "shock-polar": {"upstream": UPSTREAM, "n_samples": 16},
    "geometry": {"upstream": UPSTREAM, "theta_w": 0.15},
}
JUNK = st.sampled_from([None, True, "x", -1, 0, 0.5, 2.5, [], [1], {}, {"k": 1},
                        float("nan"), float("inf"), float("-inf"), 1e308, -1e308])


@st.composite
def fuzz_configs(draw):
    """A valid config with up to three keys dropped or replaced by junk, or
    junk in place of the whole config."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    sub = draw(st.sampled_from(sorted(FUZZ_BODIES)))
    cfg = json.loads(json.dumps(dict(FUZZ_BODIES[sub], schema_version=1, subcommand=sub,
                                     emit={"svg": False})))
    for _ in range(draw(st.integers(0, 3))):
        paths = [(cfg, key) for key in cfg]
        paths += [(blk, key) for blk in cfg.values() if isinstance(blk, dict) for key in blk]
        if not paths:
            break
        blk, key = draw(st.sampled_from(paths))
        if draw(st.booleans()):
            del blk[key]
        else:
            blk[key] = draw(JUNK)
    if sub == "keldysh-solve":
        # grid sizes below the scan's minimum: no case reaches a solve
        cfg["grid"] = {"nx": draw(st.integers(-2, 4)), "ny": draw(st.integers(-2, 4))}
    return cfg


@pytest.mark.filterwarnings("ignore:sign condition fails on the background profile:UserWarning")
@settings(derandomize=True, max_examples=120, deadline=None)
@given(fuzz_configs(), st.booleans())
def test_fuzzed_configs_exit_cleanly(cfg, outdir_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(cfg, dict):
            out = os.path.join(tmp, "out")
            if outdir_is_file:
                with open(out, "w") as fh:
                    fh.write("taken")
            cfg = dict(cfg, output_dir=out)
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", path]) in (0, 1, 2)
        assert not any(line.startswith("internal error") for line in err.getvalue().splitlines()), \
            err.getvalue()


def test_extreme_finite_values_exit_1(tmp_path, capsys):
    # finite numbers whose powers overflow: a one-line validation error, not an
    # internal OverflowError, and no floating-point warning on the way
    def body(sub):
        return json.loads(json.dumps(dict(FUZZ_BODIES[sub], schema_version=1, subcommand=sub,
                                          output_dir=str(tmp_path / "out"))))

    cases = [(sub, blk, key, value)
             for sub in ("profile", "kz-check", "mixed-solve")
             for blk, key, value in (("inlet", "u0", 1e308), ("gas", "gamma", 1e308),
                                     ("gas", "S0", 1e-308))]
    cases += [(sub, "upstream", "q_inf", 1e308) for sub in ("shock-polar", "geometry")]
    cfgs = []
    for sub, blk, key, value in cases:
        cfgs.append(body(sub))
        cfgs[-1][blk][key] = value
    # c_inf**2 = rho_inf**(gamma-1) overflows: a float power that raises
    cfgs += [dict(body(sub), upstream=dict(UPSTREAM, gamma=gamma, rho_inf=rho_inf))
             for sub in ("shock-polar", "geometry") for gamma, rho_inf in ((100.0, 1e300), (1e308, 2.0))]
    # (u_bar/u_sonic)**1001 = 2**1001 is finite, but the accelerating run goes
    # on to u* of about 3, and 3**1001 overflows
    cfgs.append(dict(body("profile"), gas={"gamma": 1000.0, "S0": 1e-3, "J": 1.0, "rho_ion": 0.5},
                     inlet={"u0": 0.99, "branch": "accelerating"}, stop={}))
    for cfg in cfgs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1, cfg
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
        assert list((tmp_path / "out").iterdir()) == []


def test_profile_leaving_the_finite_range_exits_1(tmp_path, capsys):
    # off-critical runs whose u overflows or crosses zero: one line naming the
    # state that has no finite slope, not a math domain error
    cases = [(GAS, {"u0": 0.9, "E0": 1e150}),
             ({"gamma": 100.0, "S0": 0.01, "J": 1.0, "rho_ion": 0.5}, {"u0": 1.5, "E0": 1e6})]
    for gas, inlet in cases:
        cfg = base_cfg("profile", tmp_path / "out", gas=gas, inlet=inlet, stop={"x_max": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1, inlet
        err = capsys.readouterr().err
        assert err.startswith("validation error: the profile state u=") and err.count("\n") == 1, err
        assert "has no finite slope" in err, err
        assert list((tmp_path / "out").iterdir()) == []
