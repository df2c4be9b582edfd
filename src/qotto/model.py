"""Working-substance model: stroke Hamiltonians and derived operators.

A single spin-1/2 is driven between a "cold" configuration (transverse field
along -x) and a "hot" configuration (transverse field along -y, larger
magnitude) while a constant longitudinal field softens the crossing.  Units:
hbar = kB = 1, time in ms, drive magnitudes nu in kHz, energies and angular
frequencies in rad/ms.

Strokes that enter the first-cycle efficiency:
  expansion   t in [0, tau]  : field rotates x -> y while nu ramps cold -> hot
  heating     fixed hot Hamiltonian, system coupled to the inverted bath
  compression t in [0, tau]  : sign-flipped, time-reversed expansion drive

Each stroke Hamiltonian has one transition, so its gap and eigenbasis
come from the one spectral routine `transition_energy`, and a reservoir
temperature comes from a gap, never from a matrix.  From the ramp on, a
cycle is a handful of scalars in the hot eigenbasis, one `HotFrame`
record; no stage after the setup sees a matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError, require_finite

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
        require_finite(self)
        if not (0.0 < self.nu_cold < self.nu_hot):
            raise ConfigError(
                f"need 0 < nu_cold < nu_hot, got {self.nu_cold}, {self.nu_hot}")
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not self.g >= 0.0:
            raise ConfigError(f"g must be non-negative, got {self.g}")
        if not np.isfinite(np.hypot(2.0 * np.pi * self.nu_hot,
                                    self.omega_tilde)):
            raise ConfigError("tau too short or nu_hot, g too large: the "
                              "hot transition energy overflows")

    @property
    def omega(self) -> float:
        """Rotation rate of the transverse field axis, rad/ms."""
        return np.pi / (2.0 * self.tau)

    @property
    def omega_tilde(self) -> float:
        """Longitudinal field strength, rad/ms."""
        return self.g * self.omega


def hamiltonian_cold(p: SystemParams) -> np.ndarray:
    return -np.pi * p.nu_cold * SIGMA_X + 0.5 * p.omega_tilde * SIGMA_Z


def hamiltonian_hot(p: SystemParams) -> np.ndarray:
    return -np.pi * p.nu_hot * SIGMA_Y + 0.5 * p.omega_tilde * SIGMA_Z


def transition_energy(
        h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Gap e_plus - e_minus (> 0) of the 2x2 Hermitian h and its
    eigenvectors (v_minus, v_plus), lower level first.

    The zero-gap case carries no dissipation channel in this model and is
    rejected rather than special-cased; a gap below 1e-12 of the upper
    level (or of 1) counts as zero.
    """
    (e_minus, e_plus), vecs = np.linalg.eigh(h)
    gap = float(e_plus - e_minus)
    if gap < 1e-12 * max(1.0, abs(e_plus)):
        raise ValueError("degenerate Hamiltonian has no transition channel")
    return gap, vecs[:, 0], vecs[:, 1]


def beta_from_population(gap: float, p_plus: float) -> float:
    """Inverse temperature whose Gibbs state of a two-level system with
    transition energy `gap` has excited weight p_plus.

    beta = ln((1 - p)/p) / gap.  Populations above 1/2 give beta < 0
    (inverted, effective negative temperature); exactly 0 or 1 would need
    beta = +-inf and is rejected.
    """
    if not 0.0 < p_plus < 1.0:
        raise ValueError(f"population must lie strictly in (0, 1), got {p_plus}")
    return float(np.log((1.0 - p_plus) / p_plus) / gap)


@dataclass(frozen=True)
class HotFrame:
    """One cycle in the eigenbasis {|->, |+>} of the hot Hamiltonian,
    as the scalars every stage after the ramp reads.

    The contact stroke starts from excited population `p0` = <+|rho|+>
    and coherence `c0` = <+|rho|-> under the hot gap `eps`, through the
    jump channel of weight `k` = |<-|sigma_x|+>|^2.  The cold
    Hamiltonian seen through the ramp, h_back = U h_cold U^dag, enters
    the energetics as `back_flip` = <+|h_back|+> - <-|h_back|-> and
    `back_coh` = <-|h_back|+>; `w1` is the expansion-stroke work and
    `xi` the probability that the ramp crosses between eigenstate
    branches.  `trace_dev` is |Tr rho0 - 1| of the ramp's output state
    and `ramp_error` the ramp propagator's error estimate.
    """

    eps: float
    k: float
    p0: float
    c0: complex
    back_flip: float
    back_coh: complex
    w1: float
    xi: float
    trace_dev: float
    ramp_error: float
