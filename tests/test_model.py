"""Working-substance model: Hamiltonians, transition data, thermal states."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import conftest
from oracles import (hamiltonian_compression, hamiltonian_expansion,
                     population_from_beta)
from qotto import matcore, model
from qotto.matcore import SIGMA_X, SIGMA_Z, dag
from qotto.model import (SystemParams, beta_from_population, hamiltonian_cold,
                         hamiltonian_hot, jump_operator,
                         state_from_population, transition_energy)


@pytest.mark.parametrize("kwargs", [
    dict(nu_cold=3.6, nu_hot=2.0, tau=0.1, g=0.2),   # ordering flipped
    dict(nu_cold=2.0, nu_hot=2.0, tau=0.1, g=0.2),   # no gap between strokes
    dict(nu_cold=2.0, nu_hot=3.6, tau=0.0, g=0.2),
    dict(nu_cold=2.0, nu_hot=3.6, tau=0.1, g=-0.1),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


def test_derived_frequencies(system):
    assert system.omega == pytest.approx(math.pi / (2 * 0.1), rel=1e-15)
    assert system.omega_tilde == pytest.approx(0.2 * system.omega, rel=1e-15)


def test_ramp_endpoints_match_static_hamiltonians(system):
    assert_allclose(hamiltonian_expansion(system, 0.0),
                    hamiltonian_cold(system), atol=1e-13)
    assert_allclose(hamiltonian_expansion(system, system.tau),
                    hamiltonian_hot(system), atol=1e-13)
    assert_allclose(hamiltonian_compression(system, system.tau),
                    -hamiltonian_cold(system), atol=1e-13)
    assert_allclose(hamiltonian_compression(system, 0.0),
                    -hamiltonian_hot(system), atol=1e-13)


@pytest.mark.parametrize("t", [-0.01, 0.11])
def test_ramp_time_domain(system, t):
    with pytest.raises(ValueError):
        hamiltonian_expansion(system, t)
    with pytest.raises(ValueError):
        hamiltonian_compression(system, t)


def test_ramp_continuity(system, rng):
    """Finite-difference increments stay under the Lipschitz budget."""
    # d/dt of the ramp is bounded by pi*|nu_dot| + pi*nu_max*omega in
    # spectral norm; check increments against that constant
    nu_dot = (system.nu_hot - system.nu_cold) / system.tau
    c = math.pi * abs(nu_dot) + math.pi * system.nu_hot * system.omega
    delta = 1e-7
    for t in rng.uniform(0.0, system.tau - delta, size=20):
        jump = (hamiltonian_expansion(system, t + delta)
                - hamiltonian_expansion(system, t))
        norm = scipy.linalg.norm(jump, 2)
        assert norm <= c * delta * (1.0 + 1e-6)


def test_transition_energies(system):
    eps_c, _ = transition_energy(hamiltonian_cold(system))
    eps_h, _ = transition_energy(hamiltonian_hot(system))
    assert eps_c == pytest.approx(2 * math.pi * math.sqrt(4.25), rel=1e-13)
    assert eps_h == pytest.approx(conftest.EPS_HOT, rel=1e-13)
    assert eps_c == pytest.approx(12.95311834341519, abs=1e-11)
    assert eps_h == pytest.approx(22.83659117630216, abs=1e-11)
    eps_z, _ = transition_energy(SIGMA_Z)
    assert eps_z == pytest.approx(2.0, abs=1e-14)


def test_transition_energy_rejects_degenerate():
    with pytest.raises(ValueError):
        transition_energy(np.eye(2, dtype=complex))


def test_jump_operator_structure_sigma_z():
    a = jump_operator(SIGMA_Z)
    # lowering operator between sigma_z eigenstates, up to phase
    assert_allclose(np.abs(a), [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)
    assert np.trace(dag(a) @ a).real == pytest.approx(1.0, abs=1e-14)


def test_jump_weights(system):
    """|kappa|^2 compares the flip operator against the energy eigenbasis."""
    a_hot = jump_operator(hamiltonian_hot(system))
    assert np.trace(dag(a_hot) @ a_hot).real == pytest.approx(1.0, abs=1e-12)

    a_cold = jump_operator(hamiltonian_cold(system))
    k_cold = math.sqrt(np.trace(dag(a_cold) @ a_cold).real)
    # geometric route: cold axis tilts out of the x-y plane by the level
    # shift, leaving sqrt(1 - (nu/hypot(nu, g*omega/2pi))^2) of sigma_x
    expected = math.sqrt(1.0 - (2.0 / math.hypot(2.0, 0.5)) ** 2)
    assert k_cold == pytest.approx(expected, rel=1e-12)
    assert k_cold == pytest.approx(0.24253562503633, abs=1e-11)
    assert k_cold == pytest.approx(math.sqrt(1.0 / 17.0), rel=1e-12)


def test_jump_operator_against_dense_eigensolver(system):
    """Same construction routed through numpy's eigh instead of herm_eig2."""
    for h in (hamiltonian_cold(system), hamiltonian_hot(system),
              np.array([[0.4, 1 - 2j], [1 + 2j, -0.4]])):
        vals, vecs = np.linalg.eigh(h)
        lo, hi = vecs[:, 0], vecs[:, 1]
        ref = np.vdot(lo, SIGMA_X @ hi) * np.outer(lo, hi.conj())
        a = jump_operator(h)
        # phases differ between eigensolvers; compare the gauge invariants
        assert np.trace(dag(a) @ a).real == pytest.approx(
            np.trace(dag(ref) @ ref).real, abs=1e-12)
        assert_allclose(np.abs(a), np.abs(ref), atol=1e-12)


def test_jump_weight_bounded(rng):
    for _ in range(25):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = m + dag(m)
        if transition_energy(h)[1].gap < 1e-6:
            continue
        a = jump_operator(h)
        assert np.trace(dag(a) @ a).real <= 1.0 + 1e-12


def test_state_extremes(system):
    h = hamiltonian_cold(system)
    eig = transition_energy(h)[1]
    ground = state_from_population(h, 0.0)
    assert_allclose(ground.mat @ eig.v_minus, eig.v_minus, atol=1e-13)
    maximally_mixed = state_from_population(h, 0.5)
    assert_allclose(maximally_mixed.mat, np.eye(2) / 2, atol=1e-14)


def test_state_population_round_trip(system, rng):
    h = hamiltonian_hot(system)
    eig = transition_energy(h)[1]
    for p in rng.uniform(0.01, 0.99, size=12):
        rho = state_from_population(h, p)
        read_back = np.vdot(eig.v_plus, rho.mat @ eig.v_plus).real
        assert read_back == pytest.approx(p, abs=1e-12)
        # no coherence between the levels
        assert abs(np.vdot(eig.v_plus, rho.mat @ eig.v_minus)) < 1e-13


def test_state_rejects_bad_population(system):
    h = hamiltonian_cold(system)
    for p in (-0.01, 1.01):
        with pytest.raises(ValueError):
            state_from_population(h, p)


def test_gibbs_equivalence(system, rng):
    """Population states match exp(-beta*H)/Z built by scipy."""
    hams = [hamiltonian_cold(system), hamiltonian_hot(system)]
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    hams.append(m + dag(m))
    for h in hams:
        for p in (0.1, 0.261, 0.499, 0.9, 0.99):
            beta = beta_from_population(h, p)
            gibbs = scipy.linalg.expm(-beta * h)
            gibbs /= np.trace(gibbs).real
            assert_allclose(state_from_population(h, p).mat, gibbs, atol=1e-10)


def test_beta_values(system):
    h_cold = hamiltonian_cold(system)
    h_hot = hamiltonian_hot(system)
    assert beta_from_population(h_cold, 0.5) == pytest.approx(0.0, abs=1e-15)
    beta_cold = beta_from_population(h_cold, 0.261)
    eps_cold = transition_energy(h_cold)[0]
    assert beta_cold == pytest.approx(math.log(0.739 / 0.261) / eps_cold,
                                      rel=1e-12)
    assert beta_cold == pytest.approx(0.08034957189707, abs=1e-11)
    assert beta_cold == pytest.approx(0.08036, abs=5e-5)
    # population inversion flips the sign
    assert beta_from_population(h_hot, 0.99) < 0.0
    assert beta_from_population(h_hot, 0.99) == pytest.approx(
        -0.20121741527269, abs=1e-11)


def test_beta_population_inverse_pair(system, rng):
    h = hamiltonian_cold(system)
    for p in rng.uniform(0.02, 0.98, size=10):
        assert population_from_beta(h, beta_from_population(h, p)) \
            == pytest.approx(p, abs=1e-12)


def test_beta_rejects_endpoint_populations(system):
    h = hamiltonian_cold(system)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            beta_from_population(h, p)


def test_population_state_is_valid_density_matrix(system):
    rho = state_from_population(hamiltonian_hot(system), 0.99)
    assert isinstance(rho, matcore.DensityMatrix)
    assert rho.min_eig >= -matcore.DensityMatrix.POS_TOL
    assert rho.trace_dev < 1e-14
