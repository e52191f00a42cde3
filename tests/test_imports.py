"""What importing the package and running a subcommand load: each in a fresh
interpreter, since this test process has imported everything already."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sonicflow

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exported when its __init__ imported each module
EXPORTED = {
    "gas": ("ACCELERATING", "DECELERATING", "GasParams", "critical_field", "enthalpy",
            "find_u_star"),
    "profile1d": ("InletData", "KZReport", "LemmaReport", "LmaxReport", "Profile1D",
                  "ProfileError", "SonicBlowupError", "NoSonicCrossingError",
                  "bernoulli_defect", "conservation_defect", "critical_inlet",
                  "dx_du_critical", "integrate_profile", "kz_check", "kz_coefficients",
                  "locate_lmax", "locate_sonic", "potential_ode_residual",
                  "reconstruct_fields", "verify_lemma"),
    "field2d": ("Field2D",),
    "keldysh": ("KeldyshBC", "KeldyshCoefficients", "KeldyshDomain", "KeldyshOptions",
                "corner_probe", "manufactured_scenario", "solve_model",
                "sonic_derivative_scan", "reference_scenario", "verify_bounds"),
    "mixed2d": ("BoundaryData2D", "ChannelDomain", "MixedOperatorSpec", "build_operator",
                "solve_linear", "sonic_smoothness_diag"),
    "shockpolar": ("DetachedShockError", "SelfSimilarState", "ShockPolarCurve",
                   "UpstreamState", "bernoulli_density", "compute_polar", "normal_shock",
                   "pseudo_sonic_geometry", "weak_state"),
}
MODULES = ("cli", "field2d", "gas", "keldysh", "mixed2d", "profile1d", "shockpolar", "svgplot")


def loaded_after(code):
    """The names in sys.modules after a fresh interpreter has run `code`."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_subpackages(modules):
    """The public scipy subpackages among `modules`; ``import scipy`` loads
    only its private modules and scipy.version."""
    parts = {name.split(".")[1] for name in modules if name.startswith("scipy.")}
    return sorted(part for part in parts if not part.startswith("_") and part != "version")


def test_import_loads_no_module():
    modules = loaded_after("import sonicflow")
    assert sorted(m for m in modules if m.startswith("sonicflow.")) == []
    assert scipy_subpackages(modules) == []


def test_version_loads_no_scipy_subpackage():
    modules = loaded_after("from sonicflow.cli import main\n"
                           "try:\n    main(['--version'])\n"
                           "except SystemExit as exc:\n    assert exc.code == 0\n")
    assert scipy_subpackages(modules) == []


def test_keldysh_run_loads_no_profile_stack(tmp_path):
    # a keldysh-solve needs scipy.sparse, not the profiles' ODE, optimize,
    # interpolate and spatial stack, nor the other solver modules
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"schema_version": 1, "subcommand": "keldysh-solve",
                               "output_dir": str(tmp_path / "out"), "scenario": "manufactured",
                               "grid": {"nx": 17, "ny": 17}}))
    modules = loaded_after(f"from sonicflow import cli\n"
                           f"assert cli.main(['run', {str(cfg)!r}]) == 0\n")
    assert "sonicflow.keldysh" in modules and "scipy.sparse.linalg" in modules
    assert sorted(modules & {"scipy.optimize", "scipy.integrate", "scipy.interpolate",
                             "scipy.spatial", "sonicflow.profile1d", "sonicflow.mixed2d",
                             "sonicflow.shockpolar"}) == []


def test_package_exports_resolve_to_their_modules():
    names = dir(sonicflow)
    for module, exported in EXPORTED.items():
        defining = importlib.import_module(f"sonicflow.{module}")
        for name in exported:
            assert getattr(sonicflow, name) is getattr(defining, name), name
            assert name in names
    for module in MODULES:
        assert getattr(sonicflow, module) is importlib.import_module(f"sonicflow.{module}")
        assert module in names
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sonicflow.no_such_name
    assert not hasattr(sonicflow, "profile_csv_text")
    assert getattr(sonicflow, "no_such_module", None) is None
