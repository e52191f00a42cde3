import hashlib
import json
import os

from sonicflow import keldysh, mixed2d
from sonicflow.cli import main

GAS = {"gamma": 3.0, "S0": 1.0 / 3.0, "J": 1.0, "rho_ion": 0.5}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def check_manifest(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["outputs"], "manifest lists no artifacts"
    for entry in manifest["outputs"]:
        path = outdir / entry["name"]
        assert path.exists()
        assert sha(path) == entry["sha256"]
        assert path.stat().st_size == entry["bytes"]
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


def test_failed_run_leaves_no_artifacts(tmp_path, capsys, monkeypatch):
    # both are rejected before any solve: the 3x3 scan has too few abscissas,
    # the short accelerating channel has no sonic location
    factorizations = []
    for module in (keldysh, mixed2d):
        def counting(mat, real=module.splu):
            factorizations.append(mat)
            return real(mat)
        monkeypatch.setattr(module, "splu", counting)
    runs = {
        "keldysh": base_cfg("keldysh-solve", tmp_path / "keldysh",
                            grid={"nx": 3, "ny": 3}),
        "mixed": base_cfg("mixed-solve", tmp_path / "mixed", gas=GAS,
                          inlet={"u0": 0.7, "branch": "accelerating"},
                          channel={"L": 0.8, "n1": 65, "n2": 33},
                          bc={"kind": "cos", "amplitude": 0.01, "outlet_zero": True}),
    }
    for name, cfg in runs.items():
        out = tmp_path / name
        out.mkdir()
        (out / "manifest.json").write_text("{}")  # left by an earlier run
        assert main(["run", write_cfg(tmp_path, name + ".json", cfg)]) == 1
        assert list(out.iterdir()) == []
    assert capsys.readouterr().err.count("validation error") == 2
    assert len(factorizations) == 0


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


def test_invalid_gamma_exit_1(tmp_path, capsys):
    bad = dict(GAS, gamma=0.9)
    cfg = base_cfg("profile", tmp_path / "out", gas=bad,
                   inlet={"u0": 0.95, "branch": "accelerating"})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err and "> 1" in err


def test_unknown_key_exit_1(tmp_path, capsys):
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS,
                   inlet={"u0": 0.95, "branch": "accelerating"})
    cfg["tollerance"] = 1e-3
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_schema_version_exit_1(tmp_path, capsys):
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS)
    cfg["schema_version"] = 99
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 1


def test_solver_failure_exit_2(tmp_path, capsys):
    # off-critical data heading into the sonic band blows up: exit 2
    cfg = base_cfg("profile", tmp_path / "out", gas=GAS,
                   inlet={"u0": 0.95, "E0": -0.10},
                   stop={"u_target": 1.5})
    assert main(["run", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "sonic blow-up" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1


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
