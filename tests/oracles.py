"""Slow reference implementations that the library's fast paths are checked
against.

`evolve_open` integrates the heating-stroke master equation with a general
RK45 solver, riding the state as a real 4-vector (trace, Bloch components);
`apply_generator` is one application of its right-hand side.
`product_propagator` is a scalar-loop midpoint product for an arbitrary
H(t), built from the closed-form 2x2 exponential `expm_aherm`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from qotto.bath import RateTrajectory
from qotto.dynamics import Trajectory
from qotto.matcore import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix,
                           _require_hermitian, bloch_parts, dag)


def expm_aherm(m: np.ndarray, s: float, herm_tol: float = 1e-9) -> np.ndarray:
    """exp(-i*s*M) for Hermitian M, via the Bloch axis-angle formula."""
    if not np.isfinite(s):
        raise ValueError(f"scale must be finite, got {s}")
    m = _require_hermitian(m, herm_tol)
    c0, cx, cy, cz = bloch_parts(m)
    r = float(np.sqrt(cx * cx + cy * cy + cz * cz))
    phase = np.exp(-1j * s * c0)
    if r == 0.0:
        return phase * IDENTITY
    n_sigma = (cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z) / r
    return phase * (np.cos(s * r) * IDENTITY - 1j * np.sin(s * r) * n_sigma)


def product_propagator(h_of_t: Callable[[float], np.ndarray], tau: float,
                       n_steps: int) -> np.ndarray:
    """Generic midpoint-product propagator for an arbitrary H(t)."""
    dt = tau / n_steps
    u = IDENTITY.copy()
    for k in range(n_steps):
        u = expm_aherm(h_of_t((k + 0.5) * dt), dt) @ u
    return u


def apply_generator(rho: np.ndarray, h_sys: np.ndarray, jump: np.ndarray,
                    big_gamma: float, gamma_tilde: float) -> np.ndarray:
    """One application of the master-equation right-hand side."""
    a = jump
    ad = dag(a)
    ada = ad @ a
    aad = a @ ad
    comm = -1j * (h_sys @ rho - rho @ h_sys)
    diss = (big_gamma * (a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada))
            + gamma_tilde * (ad @ rho @ a - 0.5 * (aad @ rho + rho @ aad)))
    return comm + diss


def evolve_open(rho0: DensityMatrix, h_sys: np.ndarray, rates: RateTrajectory,
                jump: np.ndarray, grid: np.ndarray, rtol: float = 1e-9,
                atol: float = 1e-12) -> Trajectory:
    """Integrate the heating-stroke master equation over the given grid.

    grid must start at 0 (bath switch-on) and stay inside the domain of the
    rate table.  Sampled states are returned at exactly the grid times.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and increase strictly")
    if grid[-1] > rates.times[-1] * (1.0 + 1e-12):
        raise ValueError(
            f"grid end {grid[-1]} exceeds rate table end {rates.times[-1]}")

    rate_spline = CubicSpline(rates.times,
                              np.column_stack([rates.big_gamma,
                                               rates.gamma_tilde]))
    a = np.asarray(jump, dtype=complex)
    ad = dag(a)
    ada = ad @ a
    aad = a @ ad
    h = np.asarray(h_sys, dtype=complex)
    paulis = np.stack([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho = 0.5 * (y[0] * paulis[0] + y[1] * paulis[1]
                     + y[2] * paulis[2] + y[3] * paulis[3])
        bg, gt = rate_spline(t)
        drho = (-1j * (h @ rho - rho @ h)
                + bg * (a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada))
                + gt * (ad @ rho @ a - 0.5 * (aad @ rho + rho @ aad)))
        return np.array([np.trace(drho).real,
                         np.trace(drho @ SIGMA_X).real,
                         np.trace(drho @ SIGMA_Y).real,
                         np.trace(drho @ SIGMA_Z).real])

    m0 = rho0.mat
    y0 = np.array([np.trace(m0).real,
                   np.trace(m0 @ SIGMA_X).real,
                   np.trace(m0 @ SIGMA_Y).real,
                   np.trace(m0 @ SIGMA_Z).real])
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="RK45",
                    t_eval=grid, rtol=rtol, atol=atol,
                    max_step=min(0.05, max(grid[-1] / 10.0, 1e-6)))
    if not sol.success:
        raise RuntimeError(
            f"open-system integration failed near t={sol.t[-1]:.6g} ms: "
            f"{sol.message}")

    y = sol.y                        # (4, T)
    states = 0.5 * np.einsum("kt,kij->tij", y, paulis)
    trace_dev = np.abs(y[0] - 1.0)
    if np.max(trace_dev) > 1e-8:
        raise RuntimeError(
            f"trace drift {np.max(trace_dev):.3e} exceeds tolerance 1e-8")
    bloch_norm = np.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2)
    min_eig = 0.5 * (y[0] - bloch_norm)
    return Trajectory(grid, states, trace_dev, min_eig)
