"""Matrix-core checks: spectra, propagator factors, state validation."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from oracles import IDENTITY, density_from_bloch, expm_aherm, purity
from qotto import matcore
from qotto.matcore import (SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, dag,
                           expect, herm_eig2)


def random_hermitian(rng, scale=1.0):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * (m + dag(m)) / 2.0


def test_pauli_spectra():
    for m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        eig = herm_eig2(m)
        assert eig.e_minus == pytest.approx(-1.0, abs=1e-14)
        assert eig.e_plus == pytest.approx(1.0, abs=1e-14)
        assert not eig.degenerate


def test_sigma_z_eigenvectors():
    eig = herm_eig2(SIGMA_Z)
    # eigenvectors are defined up to phase, so compare overlaps
    assert abs(eig.v_plus[0]) == pytest.approx(1.0, abs=1e-14)
    assert abs(eig.v_minus[1]) == pytest.approx(1.0, abs=1e-14)


def test_hot_hamiltonian_eigenvalues():
    """-pi*nu_hot*sigma_y + (omega_tilde/2)*sigma_z has levels +-pi*hypot."""
    omega_tilde = 0.2 * math.pi / (2 * 0.1)
    h = -math.pi * 3.6 * SIGMA_Y + 0.5 * omega_tilde * SIGMA_Z
    eig = herm_eig2(h)
    expected = math.pi * math.hypot(3.6, 0.5)
    assert eig.e_plus == pytest.approx(expected, rel=1e-12)
    assert eig.e_minus == pytest.approx(-expected, rel=1e-12)
    assert eig.e_plus == pytest.approx(11.41829558815108, abs=1e-11)


def test_eig_reconstruction_and_orthonormality(rng):
    for _ in range(50):
        m = random_hermitian(rng, scale=10.0 ** rng.uniform(-2, 2))
        eig = herm_eig2(m)
        rebuilt = (eig.e_minus * np.outer(eig.v_minus, eig.v_minus.conj())
                   + eig.e_plus * np.outer(eig.v_plus, eig.v_plus.conj()))
        assert_allclose(rebuilt, m, atol=1e-10 * max(1.0, abs(eig.e_plus)))
        assert abs(np.vdot(eig.v_minus, eig.v_plus)) < 1e-12
        assert np.vdot(eig.v_plus, eig.v_plus).real == pytest.approx(1.0, abs=1e-12)


def test_eig_action(rng):
    m = random_hermitian(rng)
    eig = herm_eig2(m)
    assert_allclose(m @ eig.v_plus, eig.e_plus * eig.v_plus, atol=1e-12)
    assert_allclose(m @ eig.v_minus, eig.e_minus * eig.v_minus, atol=1e-12)


def test_degenerate_flag():
    eig = herm_eig2(3.0 * IDENTITY)
    assert eig.degenerate
    assert eig.gap == pytest.approx(0.0, abs=1e-14)


def test_expm_quarter_turn():
    # exp(-i*(pi/2)*sigma_x) = -i*sigma_x
    assert_allclose(expm_aherm(SIGMA_X, math.pi / 2), -1j * SIGMA_X, atol=1e-14)


def test_expm_zero_angle(rng):
    m = random_hermitian(rng)
    assert_allclose(expm_aherm(m, 0.0), IDENTITY, atol=1e-15)


@pytest.mark.parametrize("theta", [0.3, 1.0, -2.7])
def test_expm_diagonal(theta):
    expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    assert_allclose(expm_aherm(SIGMA_Z, theta), expected, atol=1e-14)


def test_expm_against_scipy(rng):
    for _ in range(20):
        m = random_hermitian(rng, scale=5.0)
        s = rng.uniform(-3.0, 3.0)
        assert_allclose(expm_aherm(m, s), scipy.linalg.expm(-1j * s * m),
                        atol=1e-12)


def test_expm_inverse_large_angles(rng):
    """exp(-isM) exp(+isM) = 1 must hold at angles up to 1e3."""
    for _ in range(50):
        m = random_hermitian(rng, scale=10.0 ** rng.uniform(-1, 1))
        s = rng.uniform(-1e3, 1e3)
        prod = expm_aherm(m, s) @ expm_aherm(m, -s)
        assert_allclose(prod, IDENTITY, atol=1e-11)


def test_trace_preserved_under_conjugation(rng):
    for _ in range(20):
        rho = density_from_bloch(*rng.uniform(-0.57, 0.57, size=3))
        u = expm_aherm(random_hermitian(rng, scale=4.0), rng.uniform(0, 100.0))
        out = u @ rho.mat @ dag(u)
        assert abs(np.trace(out) - 1.0) < 1e-11


def test_expect_real():
    rho = density_from_bloch(0.3, -0.1, 0.2)
    val = expect(SIGMA_Z, rho)
    assert isinstance(val, float)
    assert val == pytest.approx(0.2, abs=1e-14)


def test_density_matrix_accepts_valid():
    rho = DensityMatrix.from_matrix(np.array([[0.7, 0.1], [0.1, 0.3]],
                                             dtype=complex))
    assert rho.min_eig >= -DensityMatrix.POS_TOL
    assert rho.trace_dev < 1e-14
    assert purity(rho) <= 1.0 + 1e-12


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.diag([0.8, 0.3]).astype(complex))


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]],
                                           dtype=complex))


def test_density_matrix_warns_on_negativity():
    # slightly unphysical input is reported, not silently repaired
    m = np.array([[1.001, 0.0], [0.0, -0.001]], dtype=complex)
    with pytest.warns(RuntimeWarning):
        rho = DensityMatrix.from_matrix(m)
    assert rho.min_eig < -DensityMatrix.POS_TOL
    assert rho.min_eig == pytest.approx(-0.001, abs=1e-12)


def test_bloch_ball_boundary():
    pure = density_from_bloch(0.0, 0.0, 1.0)
    assert purity(pure) == pytest.approx(1.0, abs=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density_from_bloch(0.6, 0.0, 0.0)  # inside the ball, no warning
