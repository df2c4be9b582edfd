"""Propagation: unitary work strokes and the dissipative contact strokes.

The ramp unitaries use a midpoint product of closed-form 2x2 exponentials
(second order in the step, exactly unitary at every step).  The compression
propagator is the exact adjoint of the expansion one; the sign-flipped,
time-reversed drive makes the two products coincide factor by factor.

A contact stroke obeys the time-local master equation
    drho/dt = -i[H, rho] + G(t) D[A] rho + gt(t) D[A^dag] rho ,
with D[X] rho = X rho X^dag - {X^dag X, rho}/2, a constant H and the single
jump channel A = a |-><+| of H.  In the eigenbasis of H it decouples into the
damped two-level atom with time-dependent rates (Breuer & Petruccione, The
Theory of Open Quantum Systems, OUP 2002): with k = |a|^2 and Lambda =
int (G + gt) = 2 int gamma (G = 2 gamma - gt), the coherence is
c0 exp(-i e t - k Lambda(t)/2) and the excited population obeys
dp/dt = -k Lambda'(t) p + k gt(t).  gamma and gt are read from cubic splines
of the rate table, Lambda is the exact antiderivative of the spline of
2 gamma, and the population is stepped interval by interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .bath import RateTrajectory
from .matcore import SIGMA_X, DensityMatrix, dag
from .model import (SystemParams, hamiltonian_cold, hamiltonian_hot,
                    transition_energy)

DEFAULT_N_STEPS = 20_000

# 6-point Gauss-Legendre rule mapped onto [0, 1]: nodes and weights for the
# source integral of one population step
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _expansion_step_unitaries(p: SystemParams, n_steps: int) -> np.ndarray:
    """Per-slice exponentials exp(-i*dt*H(t_mid)) for the expansion ramp."""
    dt = p.tau / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * dt
    nu = p.nu_cold * (1.0 - t_mid / p.tau) + p.nu_hot * (t_mid / p.tau)
    phase = p.omega * t_mid
    cx = -np.pi * nu * np.cos(phase)
    cy = -np.pi * nu * np.sin(phase)
    cz = np.full_like(t_mid, 0.5 * p.omega_tilde)
    r = np.sqrt(cx * cx + cy * cy + cz * cz)
    a = np.cos(dt * r)
    b = np.sin(dt * r) / r          # r > 0 always: nu_cold > 0
    u = np.empty((n_steps, 2, 2), dtype=complex)
    u[:, 0, 0] = a - 1j * b * cz
    u[:, 1, 1] = a + 1j * b * cz
    u[:, 0, 1] = -1j * b * (cx - 1j * cy)
    u[:, 1, 0] = -1j * b * (cx + 1j * cy)
    return u


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product factors[-1] @ ... @ factors[0] by pairwise reduction."""
    seq = factors
    while seq.shape[0] > 1:
        n = seq.shape[0]
        paired = np.matmul(seq[1:n - n % 2:2], seq[0:n - n % 2:2])
        if n % 2:
            seq = np.concatenate([paired, seq[-1:]], axis=0)
        else:
            seq = paired
    return seq[0]


def propagate_unitary(p: SystemParams,
                      n_steps: int = DEFAULT_N_STEPS) -> np.ndarray:
    """Time-ordered propagator of the expansion stroke; the compression
    propagator is its adjoint."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return _ordered_product(_expansion_step_unitaries(p, n_steps))


def _branch_crossing(p: SystemParams, u: np.ndarray) -> float:
    """Probability that the expansion propagator u crosses between
    eigenstate branches (zero for a perfectly adiabatic ramp); both
    matrix elements that define it agree by unitarity and are checked
    against each other."""
    _, cold_minus, cold_plus = transition_energy(hamiltonian_cold(p))
    _, hot_minus, hot_plus = transition_energy(hamiltonian_hot(p))
    xi_a = abs(np.vdot(hot_plus, u @ cold_minus)) ** 2
    xi_b = abs(np.vdot(hot_minus, u @ cold_plus)) ** 2
    if abs(xi_a - xi_b) > 1e-9:
        raise RuntimeError(
            f"branch-crossing probabilities disagree: {xi_a} vs {xi_b}")
    return float(xi_a)


@dataclass(frozen=True)
class Trajectory:
    """Sampled open-system evolution with per-sample health metrics."""

    times: np.ndarray
    states: np.ndarray       # (T, 2, 2) complex, Hermitian by construction
    trace_dev: np.ndarray    # |Tr rho - 1| per sample
    min_eig: np.ndarray      # smallest eigenvalue per sample

    def __post_init__(self):
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory grid must be strictly increasing")
        if self.states.shape != (self.times.size, 2, 2):
            raise ValueError("states shape does not match grid")

    def populations(self, v_plus: np.ndarray) -> np.ndarray:
        """Excited-state weight <v+|rho(t)|v+> along the trajectory."""
        return np.einsum("i,tij,j->t", v_plus.conj(), self.states,
                         v_plus).real

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def evolve_open(rho0: DensityMatrix, h_sys: np.ndarray, rates: RateTrajectory,
                grid: np.ndarray) -> Trajectory:
    """Exact contact-stroke evolution sampled on the given grid.

    grid must start at 0 (bath switch-on) and stay inside the domain of the
    rate table; the jump channel is a |-><+| of h_sys with weight
    k = |a|^2 = |<-|sigma_x|+>|^2.  Sampled states are returned at exactly
    the grid times.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and increase strictly")
    if grid[-1] > rates.times[-1] * (1.0 + 1e-12):
        raise ValueError(
            f"grid end {grid[-1]} exceeds rate table end {rates.times[-1]}")

    eps, vm, vp = transition_energy(h_sys)
    k = abs(np.vdot(vm, SIGMA_X @ vp)) ** 2

    big_lam = CubicSpline(rates.times, 2.0 * rates.gamma).antiderivative()
    gamma_tilde = CubicSpline(rates.times, rates.gamma_tilde)

    # step over sample times and spline knots alike, so every step lies
    # inside one spline piece and its quadrature sees a smooth integrand;
    # each step decays by its own factor: one global integrating factor
    # exp(+k Lambda) loses about 1e-5 at the sharpest cutoffs
    t = np.union1d(grid, rates.times[rates.times < grid[-1]])
    k_lam = k * big_lam(t)
    dt = np.diff(t)
    nodes = t[:-1, None] + dt[:, None] * _GL_NODES
    decay = np.exp(k_lam[:-1] - k_lam[1:])
    source = k * dt * np.sum(
        _GL_WEIGHTS * gamma_tilde(nodes)
        * np.exp(k * big_lam(nodes) - k_lam[1:, None]), axis=1)
    p0 = float(np.vdot(vp, rho0.mat @ vp).real)
    pop = [p0]
    for d, s in zip(decay.tolist(), source.tolist()):
        pop.append(d * pop[-1] + s)

    at = np.searchsorted(t, grid)
    p = np.asarray(pop)[at]
    c0 = np.vdot(vp, rho0.mat @ vm)
    c = c0 * np.exp(-1j * eps * grid - 0.5 * k_lam[at])
    # add the change to rho0 rather than rebuilding the state from the
    # eigenbasis, so the t = 0 sample is rho0 itself
    dp = (p - p0)[:, None, None]
    dc = (c - c0)[:, None, None]
    up = np.outer(vp, vm.conj())
    flip = np.outer(vp, vp.conj()) - np.outer(vm, vm.conj())
    states = rho0.mat + dp * flip + dc * up + dc.conj() * dag(up)

    trace_dev = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    if not np.max(trace_dev) <= 1e-8:
        raise RuntimeError(
            f"trace drift {np.max(trace_dev):.3e} exceeds tolerance 1e-8")
    min_eig = 0.5 - np.hypot(p - 0.5, np.abs(c))
    return Trajectory(grid, states, trace_dev, min_eig)
