import pytest

from sonicflow.gas import GasParams
from sonicflow.profile1d import critical_inlet, integrate_profile, reconstruct_fields


@pytest.fixture(scope="session")
def canonical():
    """gamma=3, S0=1/3, J=1, rho_ion=1/2: u_sonic=1, u_bar=2, zeta0=2."""
    return GasParams(gamma=3.0, S0=1.0 / 3.0, J=1.0, rho_ion=0.5)


@pytest.fixture(scope="session")
def acc_profile(canonical):
    """Canonical accelerating transonic profile on [0, x(u=2)]."""
    prof = integrate_profile(canonical, critical_inlet(canonical, 0.95), u_target=2.0)
    return reconstruct_fields(prof)


@pytest.fixture(scope="session")
def dec_profile(canonical):
    """Canonical decelerating transonic profile down to u = 0.4."""
    prof = integrate_profile(canonical, critical_inlet(canonical, 1.05, branch="decelerating"),
                             u_target=0.4)
    return reconstruct_fields(prof)


def gamma_family(gamma: float) -> GasParams:
    """Params with u_sonic = 1 for any gamma: S0 = 1/gamma, J = 1, rho_ion = 1/2."""
    return GasParams(gamma=gamma, S0=1.0 / gamma, J=1.0, rho_ion=0.5)
