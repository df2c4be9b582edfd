"""Propagation: unitary work strokes and the dissipative contact strokes.

The ramp unitary is a product of closed-form 2x2 exponentials, one per
two-node Gauss-Legendre Magnus step (fourth order in the step, exactly
unitary at every step); the product at half the steps gives its Richardson
error estimate |U_n - U_n/2|/15.  `propagate_unitary` sizes the ramp
itself: it doubles the step count until the estimate meets RAMP_TOL or
the count would pass `bath.MAX_POINTS`, building each count's product
once.  The compression propagator is the exact adjoint of the expansion
one; the sign-flipped, time-reversed drive makes the two products
coincide factor by factor.

A contact stroke obeys the time-local master equation
    drho/dt = -i[H, rho] + G(t) D[A] rho + gt(t) D[A^dag] rho ,
with D[X] rho = X rho X^dag - {X^dag X, rho}/2, a constant H and the single
jump channel A = a |-><+| of H.  In the eigenbasis of H it decouples into the
damped two-level atom with time-dependent rates (Breuer & Petruccione, The
Theory of Open Quantum Systems, OUP 2002): with k = |a|^2 and Lambda =
int (G + gt) = 2 int gamma (G = 2 gamma - gt), the coherence is
c0 exp(-i e t - k Lambda(t)/2) and the excited population obeys
dp/dt = -k Lambda'(t) p + k gt(t), a cumulative sum under the integrating
factor exp(k Lambda).  Tables that share gamma evolve together: Lambda and
every table's gt come from `bath.contact_rates`, cubic splines on the table
knots, and all populations come from one array sum.  Each step's source
integral is a 4-point Gauss-Lobatto rule whose end nodes are the step ends,
shared by neighbouring steps, so a step adds two points; a step over which
k Lambda moves by more than _STEP_LAM is split equally.  The
populations agree with the 6-point Gauss-Legendre rule it replaced to
1.7e-15 at the studied cutoffs, and to 5.2e-12 on the population sweep's
[0, t] strokes, whose first steps span the onset of gamma.
The stroke reads its start (p0, c0), its gap e and k from a
`model.HotFrame`, never a matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import MAX_POINTS, RateTrajectory, contact_rates
from .model import HotFrame, SystemParams

# the ramp's first step count, and the largest error estimate it accepts
# before it doubles the count
DEFAULT_N_STEPS = 600
RAMP_TOL = 1e-10

# offset, in steps, of a Magnus step's two Gauss nodes from its middle
_MAGNUS_NODE = np.sqrt(3.0) / 6.0

# 4-point Gauss-Lobatto rule on [0, 1] (Abramowitz & Stegun 25.4.32), exact
# to degree 5: its interior nodes, and the weights of the ends and interior
_LOBATTO_INNER = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(5.0)
_LOBATTO_END, _LOBATTO_MID = 1.0 / 12.0, 5.0 / 12.0

# largest move of k Lambda over one step; a longer step is split equally
_STEP_LAM = 0.05


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


def _product(p: SystemParams, n: int) -> np.ndarray:
    """The ramp propagator as a product of n equal Magnus steps."""
    h = np.full(n, p.tau / n)
    return _ordered_product(_magnus_steps(p, np.arange(n) * h, h))


def propagate_unitary(p: SystemParams) -> tuple[np.ndarray, float]:
    """Expansion propagator (the compression one is its adjoint) and the
    Richardson estimate of its error from the product at half the steps.

    The step count starts at DEFAULT_N_STEPS and doubles while the
    estimate exceeds RAMP_TOL and the doubled count stays within
    MAX_POINTS; each doubling builds only the new product, the one held
    becoming the coarse one.  An estimate left above RAMP_TOL at the cap
    raises a RuntimeWarning."""
    # an infinite start estimate makes the first pass build the
    # DEFAULT_N_STEPS product
    n = DEFAULT_N_STEPS // 2
    fine, ramp_error = _product(p, n), np.inf
    while ramp_error > RAMP_TOL and 2 * n <= MAX_POINTS:
        n *= 2
        coarse, fine = fine, _product(p, n)
        ramp_error = float(np.max(np.abs(fine - coarse))) / 15.0
    if ramp_error > RAMP_TOL:
        warnings.warn(f"ramp error estimate {ramp_error:.2e} exceeds "
                      f"tolerance {RAMP_TOL:.1e} at {n} steps",
                      RuntimeWarning, stacklevel=2)
    return fine, ramp_error


@dataclass(frozen=True)
class Contact:
    """Contact strokes under tables that share gamma, sampled on `times`
    from t = 0 in the eigenbasis of the stroke Hamiltonian: one row per
    table of the population p = <+|rho|+> and the smallest eigenvalue of
    rho, and the coherence c = <+|rho|-> that every table shares.  A
    state given as (p, c) has unit trace by construction."""

    times: np.ndarray
    p: np.ndarray            # (tables, samples)
    c: np.ndarray            # (samples,)
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


def evolve_open(frame: HotFrame, rates: list[RateTrajectory],
                grid: np.ndarray) -> Contact:
    """Exact contact-stroke evolution under each rate table, the tables
    sharing times and gamma, sampled on the given grid as one Contact: a
    population row per table, in table order, and their shared coherence.

    The stroke starts at population `frame.p0` and coherence `frame.c0`
    under the gap `frame.eps`, through the jump channel of weight
    `frame.k`; no other field of the frame is read.  grid must start at 0
    (bath switch-on) and stay inside the domain of the rate tables.  A
    population or coherence that is not finite raises RuntimeError.
    """
    big_lam, gamma_tilde = contact_rates(rates)
    table = rates[0]
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and increase strictly")
    if grid[-1] > table.times[-1] * (1.0 + 1e-12):
        raise ValueError(
            f"grid end {grid[-1]} exceeds rate table end {table.times[-1]}")

    k = frame.k

    # step over sample times and spline knots alike, so every step lies
    # inside one spline piece and its quadrature sees a smooth integrand,
    # split so that k Lambda moves by at most _STEP_LAM per step; step n
    # adds k int gamma_tilde exp(k Lambda - k Lambda_n+1) by the Lobatto
    # rule, whose end terms reuse k Lambda and gamma_tilde at the step ends
    # (the right end's exponential is 1)
    t = np.union1d(grid, table.times[table.times < grid[-1]])
    k_lam = k * big_lam(t)
    m = np.maximum(np.ceil(np.abs(np.diff(k_lam)) / _STEP_LAM), 1).astype(int)
    if np.any(m > 1):
        # sub-step j of a step cut into m starts j/m of the way along it
        j = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        t = np.append(np.repeat(t[:-1], m) + np.repeat(np.diff(t) / m, m) * j,
                      t[-1])
        k_lam = k * big_lam(t)
    dt = np.diff(t)
    ends = gamma_tilde(t)
    inner = t[:-1] + np.multiply.outer(_LOBATTO_INNER, dt)
    mid = gamma_tilde(inner) * np.exp(k * big_lam(inner) - k_lam[1:])
    sources = k * dt * (
        _LOBATTO_END * (ends[:, :-1] * np.exp(k_lam[:-1] - k_lam[1:])
                        + ends[:, 1:])
        + _LOBATTO_MID * (mid[:, 0] + mid[:, 1]))
    at = np.searchsorted(t, grid)
    p = _populations(frame.p0, k_lam, sources)[:, at]
    c = frame.c0 * np.exp(-1j * frame.eps * grid - 0.5 * k_lam[at])
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(c))):
        raise RuntimeError("contact stroke population or coherence "
                           "is not finite")
    return Contact(grid, p, c, 0.5 - np.hypot(p - 0.5, np.abs(c)))
