"""Shared fixtures for the test suite.

Rate tables are the expensive objects here, so the ones several modules
need are built once per session and handed out read-only.
"""

import math

import numpy as np
import pytest

from qotto import bath, model

# Baseline operating point used throughout: drive frequencies in kHz,
# stroke duration in ms, populations dimensionless.
NU_COLD = 2.0
NU_HOT = 3.6
TAU = 0.1
G_SHIFT = 0.2
P_COLD = 0.261
P_HOT = 0.99
ALPHA = 0.6

EPS_COLD = 2.0 * math.pi * math.sqrt(NU_COLD**2 + 0.25)
EPS_HOT = 2.0 * math.pi * math.sqrt(NU_HOT**2 + 0.25)
BETA_COLD = math.log((1.0 - P_COLD) / P_COLD) / EPS_COLD
BETA_HOT = math.log((1.0 - P_HOT) / P_HOT) / EPS_HOT

# A rate table of the baseline cold bath carries a warning that the
# weak-coupling treatment is marginal; that is a property of the operating
# point, not a test failure.
MARGINAL_COUPLING = "ignore:dissipation strength is not small"


@pytest.fixture(scope="session")
def system():
    return model.SystemParams(NU_COLD, NU_HOT, TAU, G_SHIFT)


@pytest.fixture(scope="session")
def hot_bath():
    return bath.BathSpec(alpha=ALPHA, omega_c=30.0, beta=BETA_HOT, mu=0.0)


@pytest.fixture(scope="session")
def cold_bath():
    return bath.BathSpec(alpha=ALPHA, omega_c=30.0, beta=BETA_COLD, mu=0.0)


@pytest.fixture(scope="session")
def rate_table():
    """Factory for hot-bath rate tables over the full heating window."""
    cache = {}

    def build(omega_c, t_max=10.0):
        key = (omega_c, t_max)
        if key not in cache:
            spec = bath.BathSpec(alpha=ALPHA, omega_c=omega_c,
                                 beta=BETA_HOT, mu=0.0)
            [cache[key]] = bath.build_rate_trajectories([spec], EPS_HOT,
                                                        t_max)
        return cache[key]

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
