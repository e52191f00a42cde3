"""Sonic-interface toolkit.

Numerics for the two kinds of sonic interfaces in steady transonic flow:
smooth accelerating/decelerating transonic profiles of the 1D Euler-Poisson
system (regular interfaces), Keldysh-type degenerate model solutions whose
sonic boundary is a weak discontinuity, the mixed-type channel operator
built on a transonic background, and the steady potential-flow shock polar
with its self-similar configuration geometry.

``import sonicflow`` loads none of the modules below.  A name the package
exports (``sonicflow.solve_model``) or a module (``sonicflow.keldysh``) is
imported on first access (PEP 562), so a Keldysh solve loads scipy.sparse
and not the ODE, optimize, interpolate and spatial stack of the profiles.
"""

import importlib

__version__ = "0.1.0"

#: The names the package exports, per defining module.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("cli", "field2d", "gas", "keldysh", "mixed2d", "profile1d", "shockpolar",
            "svgplot")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it on the package
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_MODULES})
