"""Sonic-interface toolkit.

Numerics for the two kinds of sonic interfaces in steady transonic flow:
smooth accelerating/decelerating transonic profiles of the 1D Euler-Poisson
system (regular interfaces), Keldysh-type degenerate model solutions whose
sonic boundary is a weak discontinuity, the mixed-type channel operator
built on a transonic background, and the steady potential-flow shock polar
with its self-similar configuration geometry.
"""

__version__ = "0.1.0"

from .gas import (ACCELERATING, DECELERATING, GasParams, critical_field, enthalpy,
                  find_u_star)
from .profile1d import (InletData, KZReport, LemmaReport, LmaxReport, Profile1D,
                        ProfileError, SonicBlowupError, NoSonicCrossingError,
                        bernoulli_defect, conservation_defect, critical_inlet,
                        dx_du_critical, integrate_profile, kz_check,
                        kz_coefficients, locate_lmax, locate_sonic,
                        potential_ode_residual, reconstruct_fields,
                        verify_lemma)
from .field2d import Field2D
from .keldysh import (KeldyshBC, KeldyshCoefficients, KeldyshDomain,
                      KeldyshOptions, corner_probe, manufactured_scenario, solve_model,
                      sonic_derivative_scan, reference_scenario, verify_bounds)
from .mixed2d import (BoundaryData2D, ChannelDomain, MixedOperatorSpec,
                      build_operator, solve_linear, sonic_smoothness_diag)
from .shockpolar import (DetachedShockError, SelfSimilarState, ShockPolarCurve,
                         UpstreamState, bernoulli_density, compute_polar,
                         normal_shock, pseudo_sonic_geometry, weak_state)
