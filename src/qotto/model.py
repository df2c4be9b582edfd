"""Working-substance model: stroke Hamiltonians and derived operators.

A single spin-1/2 is driven between a "cold" configuration (transverse field
along -x) and a "hot" configuration (transverse field along -y, larger
magnitude) while a constant longitudinal field softens the crossing.  Units:
hbar = kB = 1, time in ms, drive magnitudes nu in kHz, energies and angular
frequencies in rad/ms.

Stroke layout over one cycle:
  expansion   t in [0, tau]  : field rotates x -> y while nu ramps cold -> hot
  heating     fixed hot Hamiltonian, system coupled to the inverted bath
  compression t in [0, tau]  : sign-flipped, time-reversed expansion drive
  cooling     fixed cold Hamiltonian, positive-temperature bath (optional)
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import (SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, Eig2, dag,
                      herm_eig2)


class Stroke(Enum):
    EXPANSION = "expansion"
    COMPRESSION = "compression"


@dataclass(frozen=True)
class SystemParams:
    """Drive parameters shared by every stroke.

    nu_cold, nu_hot : transverse drive magnitudes in kHz (0 < cold < hot)
    tau             : stroke duration of the unitary ramps in ms
    g               : longitudinal offset as a fraction of the ramp rate omega
    """

    nu_cold: float
    nu_hot: float
    tau: float
    g: float

    def __post_init__(self):
        if not (0.0 < self.nu_cold < self.nu_hot):
            raise ValueError(
                f"need 0 < nu_cold < nu_hot, got {self.nu_cold}, {self.nu_hot}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.g < 0.0:
            raise ValueError(f"g must be non-negative, got {self.g}")

    @property
    def omega(self) -> float:
        """Rotation rate of the transverse field axis, rad/ms."""
        return np.pi / (2.0 * self.tau)

    @property
    def omega_tilde(self) -> float:
        """Longitudinal field strength, rad/ms."""
        return self.g * self.omega

    def nu_ramp(self, t: float) -> float:
        """Linear drive interpolation nu(t) over the expansion stroke, kHz."""
        x = t / self.tau
        return self.nu_cold * (1.0 - x) + self.nu_hot * x


def hamiltonian_cold(p: SystemParams) -> np.ndarray:
    return -np.pi * p.nu_cold * SIGMA_X + 0.5 * p.omega_tilde * SIGMA_Z


def hamiltonian_hot(p: SystemParams) -> np.ndarray:
    return -np.pi * p.nu_hot * SIGMA_Y + 0.5 * p.omega_tilde * SIGMA_Z


def hamiltonian_expansion(p: SystemParams, t: float) -> np.ndarray:
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"stroke time {t} outside [0, {p.tau}]")
    phase = p.omega * t
    transverse = SIGMA_X * np.cos(phase) + SIGMA_Y * np.sin(phase)
    return -np.pi * p.nu_ramp(t) * transverse + 0.5 * p.omega_tilde * SIGMA_Z


def hamiltonian_compression(p: SystemParams, t: float) -> np.ndarray:
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"stroke time {t} outside [0, {p.tau}]")
    return -hamiltonian_expansion(p, p.tau - t)


def transition_energy(h: np.ndarray) -> tuple[float, Eig2]:
    """Gap e_plus - e_minus (> 0) and the spectral data of h.

    The zero-gap case carries no dissipation channel in this model and is
    rejected rather than special-cased.
    """
    eig = herm_eig2(h)
    if eig.degenerate:
        raise ValueError("degenerate Hamiltonian has no transition channel")
    return eig.gap, eig


def jump_operator(h: np.ndarray) -> np.ndarray:
    """Lowering operator |minus><minus| sigma_x |plus><plus| of h.

    Only the single channel at the (positive) transition energy exists for a
    two-level system; the sigma_x sandwich fixes its weight.
    """
    _, eig = transition_energy(h)
    amp = np.vdot(eig.v_minus, SIGMA_X @ eig.v_plus)
    return amp * np.outer(eig.v_minus, eig.v_plus.conj())


def state_from_population(h: np.ndarray, p_plus: float,
                          pos_tol: float = 1e-8) -> DensityMatrix:
    """Diagonal state in the eigenbasis of h with excited population p_plus."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"population must lie in [0, 1], got {p_plus}")
    _, eig = transition_energy(h)
    m = (p_plus * np.outer(eig.v_plus, eig.v_plus.conj())
         + (1.0 - p_plus) * np.outer(eig.v_minus, eig.v_minus.conj()))
    return DensityMatrix.from_matrix(m, pos_tol=pos_tol)


def beta_from_population(h: np.ndarray, p_plus: float) -> float:
    """Inverse temperature whose Gibbs state of h has excited weight p_plus.

    beta = ln((1 - p)/p) / gap.  Populations above 1/2 give beta < 0
    (inverted, effective negative temperature); exactly 0 or 1 would need
    beta = +-inf and is rejected.
    """
    if not 0.0 < p_plus < 1.0:
        raise ValueError(f"population must lie strictly in (0, 1), got {p_plus}")
    gap, _ = transition_energy(h)
    return float(np.log((1.0 - p_plus) / p_plus) / gap)


def population_from_beta(h: np.ndarray, beta: float) -> float:
    """Excited-state weight of the Gibbs state exp(-beta*h)/Z."""
    gap, _ = transition_energy(h)
    return float(1.0 / (1.0 + np.exp(beta * gap)))
