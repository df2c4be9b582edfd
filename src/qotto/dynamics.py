"""Propagation: unitary work strokes and the dissipative contact strokes.

The ramp unitary is a product of closed-form 2x2 exponentials, one per
two-node Gauss-Legendre Magnus step (fourth order in the step, exactly
unitary at every step); the product at half the steps gives its Richardson
error estimate |U_n - U_n/2|/15.  The compression propagator is the exact
adjoint of the expansion one; the sign-flipped, time-reversed drive makes
the two products coincide factor by factor.

A contact stroke obeys the time-local master equation
    drho/dt = -i[H, rho] + G(t) D[A] rho + gt(t) D[A^dag] rho ,
with D[X] rho = X rho X^dag - {X^dag X, rho}/2, a constant H and the single
jump channel A = a |-><+| of H.  In the eigenbasis of H it decouples into the
damped two-level atom with time-dependent rates (Breuer & Petruccione, The
Theory of Open Quantum Systems, OUP 2002): with k = |a|^2 and Lambda =
int (G + gt) = 2 int gamma (G = 2 gamma - gt), the coherence is
c0 exp(-i e t - k Lambda(t)/2) and the excited population obeys
dp/dt = -k Lambda'(t) p + k gt(t), a cumulative sum under the integrating
factor exp(k Lambda).  Tables that share gamma evolve together: Lambda is the
exact antiderivative of one cubic spline of 2 gamma, gt comes from one spline
of every table's column, and all populations come from one array sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .bath import RateTrajectory
from .matcore import SIGMA_X, DensityMatrix
from .model import (SystemParams, hamiltonian_cold, hamiltonian_hot,
                    transition_energy)

DEFAULT_N_STEPS = 600

# offset, in steps, of a Magnus step's two Gauss nodes from its middle
_MAGNUS_NODE = np.sqrt(3.0) / 6.0

# 6-point Gauss-Legendre rule mapped onto [0, 1]: nodes and weights for the
# source integral of one population step
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _magnus_steps(p: SystemParams, t0: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """Factors exp(-i v.sigma) of the ramp H(t) = a(t).sigma on [t0, t0 + h]:
    v = h (a1 + a2)/2 - (sqrt(3)/6) h^2 (a1 x a2), a1 at the earlier node."""
    t = t0 + np.multiply.outer([0.5 - _MAGNUS_NODE, 0.5 + _MAGNUS_NODE], h)
    nu = p.nu_cold * (1.0 - t / p.tau) + p.nu_hot * (t / p.tau)
    a1, a2 = np.stack([-np.pi * nu * np.cos(p.omega * t),
                       -np.pi * nu * np.sin(p.omega * t),
                       np.full_like(t, 0.5 * p.omega_tilde)], axis=-1)
    vx, vy, vz = (0.5 * h * (a1 + a2).T
                  - _MAGNUS_NODE * h * h * np.cross(a1, a2).T)
    r = np.sqrt(vx * vx + vy * vy + vz * vz)
    c = np.cos(r)
    s = np.sin(r) / r          # r > 0 always: nu_cold > 0
    return np.stack([c - 1j * s * vz, -1j * s * (vx - 1j * vy),
                     -1j * s * (vx + 1j * vy), c + 1j * s * vz],
                    axis=-1).reshape(-1, 2, 2)


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


def propagate_unitary(p: SystemParams, n_steps: int = DEFAULT_N_STEPS
                      ) -> tuple[np.ndarray, float]:
    """Expansion propagator (the compression one is its adjoint) and the
    Richardson estimate of its error from the product at half the steps."""
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    half = n_steps // 2
    # both products' steps in one batch: n_steps fine ones, then half coarse
    h = np.repeat([p.tau / n_steps, p.tau / half], [n_steps, half])
    u = _magnus_steps(
        p, np.concatenate([np.arange(n_steps), np.arange(half)]) * h, h)
    fine, coarse = _ordered_product(u[:n_steps]), _ordered_product(u[n_steps:])
    return fine, float(np.max(np.abs(fine - coarse))) / 15.0


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
class Contact:
    """Contact strokes under tables that share gamma, sampled on `times`
    from t = 0 in the eigenbasis of the stroke Hamiltonian: one row per
    table of the population p = <+|rho|+> and health metrics, and the
    coherence c = <+|rho|-> that every table shares."""

    times: np.ndarray
    p: np.ndarray            # (tables, samples)
    c: np.ndarray            # (samples,)
    trace_dev: np.ndarray    # |Tr rho - 1|, (tables, samples)
    min_eig: np.ndarray      # smallest eigenvalue, (tables, samples)


# the population sum runs in blocks over which k Lambda moves by at most
# this much, so none of its exponentials can overflow
_REBASE = 50.0


def _populations(p0: float, k_lam: np.ndarray,
                 sources: np.ndarray) -> np.ndarray:
    """Excited population at every step end, one row per source row:
    p_n = e^(-k Lambda_n) (p0 + sum_(m<n) s_m e^(k Lambda_m+1)), with the
    exponents of each block taken relative to its last point."""
    out = np.empty((sources.shape[0], k_lam.size))
    out[:, 0] = p0
    # total variation bounds how far k Lambda moves inside a block
    var = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(k_lam)))))
    a = 0
    while a < k_lam.size - 1:
        b = int(np.searchsorted(var, var[a + 1] + _REBASE, "right")) - 1
        lam = k_lam[a + 1:b + 1]
        out[:, a + 1:b + 1] = (
            np.exp(k_lam[a] - lam) * out[:, a:a + 1]
            + np.exp(lam[-1] - lam) * np.cumsum(
                sources[:, a:b] * np.exp(lam - lam[-1]), axis=1))
        a = b
    return out


def evolve_open(rho0: DensityMatrix, h_sys: np.ndarray,
                rates: list[RateTrajectory], grid: np.ndarray) -> Contact:
    """Exact contact-stroke evolution under each rate table, the tables
    sharing times and gamma, sampled on the given grid as one Contact: a
    population row per table, in table order, and their shared coherence.

    grid must start at 0 (bath switch-on) and stay inside the domain of the
    rate tables; the jump channel is a |-><+| of h_sys with weight
    k = |a|^2 = |<-|sigma_x|+>|^2.
    """
    table = rates[0]
    if not all(np.array_equal(r.times, table.times) and np.array_equal(
            r.gamma, table.gamma) for r in rates):
        raise ValueError("rate tables must share their times and gamma")
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and increase strictly")
    if grid[-1] > table.times[-1] * (1.0 + 1e-12):
        raise ValueError(
            f"grid end {grid[-1]} exceeds rate table end {table.times[-1]}")

    eps, vm, vp = transition_energy(h_sys)
    k = abs(np.vdot(vm, SIGMA_X @ vp)) ** 2

    big_lam = CubicSpline(table.times, 2.0 * table.gamma).antiderivative()
    gamma_tilde = CubicSpline(
        table.times, np.stack([r.gamma_tilde for r in rates]), axis=1)

    # step over sample times and spline knots alike, so every step lies
    # inside one spline piece and its quadrature sees a smooth integrand;
    # step n adds k int gamma_tilde exp(k Lambda - k Lambda_n+1)
    t = np.union1d(grid, table.times[table.times < grid[-1]])
    k_lam = k * big_lam(t)
    dt = np.diff(t)
    nodes = t[:-1, None] + dt[:, None] * _GL_NODES
    sources = k * dt * np.sum(
        _GL_WEIGHTS * gamma_tilde(nodes)
        * np.exp(k * big_lam(nodes) - k_lam[1:, None]), axis=-1)
    p0 = float(np.vdot(vp, rho0.mat @ vp).real)
    c0 = np.vdot(vp, rho0.mat @ vm)
    at = np.searchsorted(t, grid)
    p = _populations(p0, k_lam, sources)[:, at]
    c = c0 * np.exp(-1j * eps * grid - 0.5 * k_lam[at])
    # Tr rho = Tr rho0 + dp Tr flip + 2 Re(dc Tr |+><-|); NaN fails it too
    trace_dev = np.abs(np.trace(rho0.mat).real
                       + (p - p0) * (np.vdot(vp, vp) - np.vdot(vm, vm)).real
                       + 2.0 * ((c - c0) * np.vdot(vm, vp)).real - 1.0)
    if not np.max(trace_dev) <= 1e-8:
        raise RuntimeError(
            f"trace drift {np.max(trace_dev):.3e} exceeds tolerance 1e-8")
    return Contact(grid, p, c, trace_dev,
                   0.5 - np.hypot(p - 0.5, np.abs(c)))
