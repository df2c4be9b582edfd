"""Slow reference implementations that the library's fast paths are checked
against, and helpers only the tests need.

The library keeps a cycle as scalars in the hot eigenbasis, one
`model.HotFrame`; the tests keep 2x2 matrices.  `DensityMatrix` is a
validated state (unit trace, Hermiticity, a warning on negativity),
`expect` the expectation value, `dag` the conjugate transpose and
`state_from_population` the thermal state of a population.  `setup_frame`
is `cycle._setup` by the matrix path, the ramp's output state
U rho_in U^dag as a `DensityMatrix` and h_back = U h_cold U^dag, with the
branch crossing from `branch_crossing`; `state_frame` reads the frame's
(eps, k, p0, c0) off any state matrix, so a test can start a contact
stroke from a state of its own.

`evolve_open` integrates the contact-stroke master equation with a general
RK45 solver, riding the state as a real 4-vector (trace, Bloch components)
under the real 4x4 matrix `bloch_generator` builds from `apply_generator`,
one application of the master-equation right-hand side; it returns the
states themselves, as a `StateTrajectory`.  `contact_states` rebuilds the
states of one of the library's contact strokes from its population row
and coherence, which is all the library keeps.  `population_loop` steps the
library's contact-stroke populations one interval at a time in Python
floats, as the library did before its cumulative sum, `gauss_contact` is
`dynamics.evolve_open` with the Gauss-Legendre source sum (6 nodes by
default) that the library's 4-point Lobatto rule replaced, and
`cycle_energetics` scores a cycle from its four corner states by trace
differences, the contact endpoint driven back by hand, which the
library's closed form on (population, coherence) replaced.
`filon_rates` is the two-envelope rate quadrature with its 1/w tail
expansion that the library's closed-form gamma and confined remainder
replaced, and `complex_remainder` sums that remainder's panels in complex
arithmetic, one spherical_jn call per order and panel.
`closed_form_gamma` is the library's closed-form gamma with its scaled
exponential integrals from `scaled_exp_integrals`, which switches to
their asymptotic series where e^(wc t) overflows, so it is the gamma
series' reference at any time.
`product_propagator` is a scalar-loop midpoint product for an
arbitrary H(t), and `magnus_propagator` the scalar-loop two-node Magnus
product with the commutator written out, both built from the closed-form
2x2 exponential `expm_aherm`; the literal ramp Hamiltonians
`hamiltonian_expansion` and `hamiltonian_compression` feed them.
`midpoint_unitary` is the vectorised midpoint product of the expansion
ramp that the library's Magnus ramp replaced; at `REFERENCE_STEPS` it is
the converged reference ramp.  `adiabaticity` rebuilds the ramp to
score its branch crossing, `population_from_beta` inverts the library's
population-to-temperature map, `markov_limits` is the golden-rule rate
pair the time-local rates settle to, with the ohmic `spectral_density`
and the Fermi `occupation` behind it, `envelope` is the library's
remainder envelope of one bath, and `run_cooling` is the restoring
contact stroke with the cold reservoir, which no first-cycle figure uses.  `herm_eig2` is the
closed-form 2x2 eigensolver that the library's `transition_energy`
(numpy's `eigh`) is checked against; `expm_aherm` shares its Bloch
parts.  `jump_operator` builds the explicit jump channel a |-><+| that
the RK45 oracle applies.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import exp1, expi, expit, sici, spherical_jn

from qotto import bath as qbath
from qotto import dynamics
from qotto.bath import (TWO_PI, BathSpec, RateTrajectory,
                        build_rate_trajectories)
from qotto.cycle import _TABLE_MARGIN, CycleConfig
from qotto.dynamics import propagate_unitary
from qotto.measures import Q_HOT_FLOOR_SCALE, Energetics
from qotto.model import (SIGMA_X, SIGMA_Y, SIGMA_Z, HotFrame, SystemParams,
                         hamiltonian_cold, hamiltonian_hot,
                         transition_energy)

IDENTITY = np.eye(2, dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

# relative scale below which the two eigenvalues count as degenerate
DEGENERACY_RTOL = 1e-12

# relative Hermiticity deviation herm_eig2 accepts before symmetrizing
EIG_HERM_TOL = 1e-9

# midpoint steps of the reference ramp: its discretization error (about
# 4e-13) sits below the rounding its product accumulates (about 4e-12)
REFERENCE_STEPS = 640_000


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def herm_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|."""
    return float(np.max(np.abs(m - dag(m))))


def _require_2x2(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def expect(op: np.ndarray, rho) -> float | np.ndarray:
    """Real expectation value Tr[rho * op] for Hermitian op and rho.

    rho may be a plain matrix, a (T, 2, 2) stack (one value per state) or
    anything carrying one in a `mat` attribute.
    """
    mat = np.asarray(getattr(rho, "mat", rho))
    out = np.einsum("...ij,ji->...", mat, np.asarray(op)).real
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 2x2 density matrix.

    Unit trace and Hermiticity are enforced at construction; negativity
    beyond POS_TOL is reported through a warning and kept (transient
    non-positivity is physical information here, not an error to clip).
    """

    mat: np.ndarray
    min_eig: float
    trace_dev: float

    TRACE_TOL = 1e-10
    HERM_TOL = 1e-12
    POS_TOL = 1e-8

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "DensityMatrix":
        m = _require_2x2(m)
        tr_dev = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
        if tr_dev > cls.TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        h_dev = herm_deviation(m)
        if h_dev > cls.HERM_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"not Hermitian: deviation {h_dev:.3e}")
        h = 0.5 * (m + dag(m))
        lo = float(np.linalg.eigvalsh(h)[0])
        if lo < -cls.POS_TOL:
            warnings.warn(
                f"density matrix has negative eigenvalue {lo:.3e} "
                f"(pos_tol={cls.POS_TOL:.1e})", RuntimeWarning, stacklevel=2)
        h.setflags(write=False)
        return cls(h, float(lo), float(tr_dev))


def state_from_population(h: np.ndarray, p_plus: float) -> DensityMatrix:
    """Diagonal state in the eigenbasis of h with excited population p_plus."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"population must lie in [0, 1], got {p_plus}")
    _, v_minus, v_plus = transition_energy(h)
    m = (p_plus * np.outer(v_plus, v_plus.conj())
         + (1.0 - p_plus) * np.outer(v_minus, v_minus.conj()))
    return DensityMatrix.from_matrix(m)


def state_frame(rho0, h: np.ndarray, h_back: np.ndarray | None = None
                ) -> HotFrame:
    """The `HotFrame` of the state rho0 under the contact Hamiltonian h,
    read off the matrices: the gap, the jump weight and (p0, c0) in the
    eigenbasis of h, and with h_back the energetics terms <+|h_back|+> -
    <-|h_back|->, <-|h_back|+> and w1 = Tr((h - h_back) rho0).  Fields it
    cannot know (and the h_back ones without h_back) are NaN."""
    rho0 = np.asarray(getattr(rho0, "mat", rho0))
    eps, vm, vp = transition_energy(h)
    nan = float("nan")
    back_flip = back_coh = w1 = nan
    if h_back is not None:
        back_flip = (np.vdot(vp, h_back @ vp).real
                     - np.vdot(vm, h_back @ vm).real)
        back_coh = complex(np.vdot(vm, h_back @ vp))
        w1 = expect(h - h_back, rho0)
    return HotFrame(eps=eps, k=abs(np.vdot(vm, SIGMA_X @ vp)) ** 2,
                    p0=float(np.vdot(vp, rho0 @ vp).real),
                    c0=complex(np.vdot(vp, rho0 @ vm)), back_flip=back_flip,
                    back_coh=back_coh, w1=w1, xi=nan, trace_dev=nan,
                    ramp_error=nan)


def setup_frame(cfg: CycleConfig) -> HotFrame:
    """`cycle._setup` by the matrix path: rho_exp = U rho_in U^dag as a
    validated `DensityMatrix`, h_back = U h_cold U^dag, the energetics
    terms by `expect` and the branch crossing by `branch_crossing`."""
    sp = cfg.system
    h_cold = hamiltonian_cold(sp)
    u, ramp_error = propagate_unitary(sp)
    rho_in = state_from_population(h_cold, cfg.p_plus_cold)
    rho_exp = DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))
    return replace(state_frame(rho_exp, hamiltonian_hot(sp),
                               u @ h_cold @ dag(u)),
                   xi=branch_crossing(sp, u), trace_dev=rho_exp.trace_dev,
                   ramp_error=ramp_error)


def _require_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = _require_2x2(m)
    dev = herm_deviation(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    if dev > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian within tolerance: deviation {dev:.3e}, "
            f"allowed {tol * scale:.3e}")
    # symmetrize so downstream Bloch components are exactly real
    return 0.5 * (m + dag(m))


def bloch_parts(m: np.ndarray) -> tuple[float, float, float, float]:
    """Coefficients (c0, cx, cy, cz) of M = c0*I + cx*sx + cy*sy + cz*sz.

    Assumes M Hermitian (imaginary parts of the coefficients are dropped).
    """
    m = _require_2x2(m)
    c0 = 0.5 * (m[0, 0] + m[1, 1]).real
    cx = 0.5 * (m[0, 1] + m[1, 0]).real
    cy = 0.5 * (m[1, 0] - m[0, 1]).imag
    cz = 0.5 * (m[0, 0] - m[1, 1]).real
    return c0, cx, cy, cz


@dataclass(frozen=True)
class Eig2:
    """Spectral data of a 2x2 Hermitian matrix, lower eigenvalue first."""

    e_minus: float
    e_plus: float
    v_minus: np.ndarray
    v_plus: np.ndarray
    degenerate: bool

    @property
    def gap(self) -> float:
        return self.e_plus - self.e_minus


def herm_eig2(m: np.ndarray) -> Eig2:
    """Eigendecomposition of a 2x2 Hermitian matrix in closed form.

    M = c0*I + c.sigma has eigenvalues c0 -+ |c| and half-angle
    eigenvectors.  Returns eigenvalues ordered e_minus <= e_plus with
    orthonormal eigenvectors.  When the spectrum is degenerate (relative
    to DEGENERACY_RTOL) the flag is set and the computational basis is
    returned.
    """
    m = _require_hermitian(m, EIG_HERM_TOL)
    c0, cx, cy, cz = bloch_parts(m)
    r_xy = np.hypot(cx, cy)
    r = np.hypot(r_xy, cz)

    e_minus = c0 - r
    e_plus = c0 + r
    degenerate = (e_plus - e_minus) < DEGENERACY_RTOL * max(1.0, abs(e_plus))
    if degenerate:
        return Eig2(e_minus, e_plus,
                    np.array([1.0, 0.0], dtype=complex),
                    np.array([0.0, 1.0], dtype=complex),
                    True)

    # half-angle construction: theta from atan2 is stable for every direction
    theta = np.arctan2(r_xy, cz)
    phase = np.exp(1j * np.arctan2(cy, cx)) if r_xy > 0.0 else 1.0 + 0.0j
    ch, sh = np.cos(0.5 * theta), np.sin(0.5 * theta)
    v_plus = np.array([ch, sh * phase], dtype=complex)
    v_minus = np.array([sh, -ch * phase], dtype=complex)
    return Eig2(float(e_minus), float(e_plus), v_minus, v_plus, False)


def jump_operator(h: np.ndarray) -> np.ndarray:
    """Lowering operator |minus><minus| sigma_x |plus><plus| of h.

    Only the single channel at the (positive) transition energy exists for a
    two-level system; the sigma_x sandwich fixes its weight.
    """
    _, v_minus, v_plus = transition_energy(h)
    amp = np.vdot(v_minus, SIGMA_X @ v_plus)
    return amp * np.outer(v_minus, v_plus.conj())


def spectral_density(bath: BathSpec, w):
    """Ohmic spectral density with algebraic cutoff, J(w) = a*w*wc^2/(wc^2+w^2)."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density defined for w >= 0 only")
    wc2 = bath.omega_c ** 2
    out = bath.alpha * w * wc2 / (wc2 + w * w)
    return out if out.ndim else float(out)


def envelope(bath: BathSpec, w):
    """The library's remainder envelope h(w) = 2 g(w) expit(-|beta|(w - mu))
    of one bath, from `bath._envelope`."""
    return qbath._envelope(bath.alpha, bath.omega_c ** 2, abs(bath.beta),
                           bath.mu, w)


def occupation(bath: BathSpec, w):
    """Fermi-Dirac occupation of the bath mode at frequency w."""
    w = np.asarray(w, dtype=float)
    out = expit(-bath.beta * (w - bath.mu))
    return out if out.ndim else float(out)


def density_from_bloch(nx: float, ny: float, nz: float) -> DensityMatrix:
    """Validated state (I + n.sigma)/2 for the Bloch vector n."""
    return DensityMatrix.from_matrix(
        0.5 * (IDENTITY + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z))


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def nu_ramp(p: SystemParams, t: float) -> float:
    """Linear drive interpolation nu(t) over the expansion stroke, kHz."""
    x = t / p.tau
    return p.nu_cold * (1.0 - x) + p.nu_hot * x


def hamiltonian_expansion(p: SystemParams, t: float) -> np.ndarray:
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"stroke time {t} outside [0, {p.tau}]")
    phase = p.omega * t
    transverse = SIGMA_X * np.cos(phase) + SIGMA_Y * np.sin(phase)
    return -np.pi * nu_ramp(p, t) * transverse + 0.5 * p.omega_tilde * SIGMA_Z


def hamiltonian_compression(p: SystemParams, t: float) -> np.ndarray:
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"stroke time {t} outside [0, {p.tau}]")
    return -hamiltonian_expansion(p, p.tau - t)


def branch_crossing(p: SystemParams, u: np.ndarray) -> float:
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


def adiabaticity(p: SystemParams) -> float:
    """Probability of crossing between eigenstate branches during the ramp.

    Zero for a perfectly adiabatic ramp.
    """
    return branch_crossing(p, propagate_unitary(p)[0])


def _midpoint_factors(p: SystemParams, dt: float,
                      steps: np.ndarray) -> np.ndarray:
    """Slice exponentials exp(-i*dt*H(t_mid)) of the expansion ramp."""
    t_mid = (steps + 0.5) * dt
    nu = p.nu_cold * (1.0 - t_mid / p.tau) + p.nu_hot * (t_mid / p.tau)
    phase = p.omega * t_mid
    cx = -np.pi * nu * np.cos(phase)
    cy = -np.pi * nu * np.sin(phase)
    cz = np.full_like(t_mid, 0.5 * p.omega_tilde)
    r = np.sqrt(cx * cx + cy * cy + cz * cz)
    a = np.cos(dt * r)
    b = np.sin(dt * r) / r
    u = np.empty((steps.size, 2, 2), dtype=complex)
    u[:, 0, 0] = a - 1j * b * cz
    u[:, 1, 1] = a + 1j * b * cz
    u[:, 0, 1] = -1j * b * (cx - 1j * cy)
    u[:, 1, 0] = -1j * b * (cx + 1j * cy)
    return u


@cache
def midpoint_unitary(p: SystemParams, n_steps: int) -> np.ndarray:
    """Vectorised midpoint product of the expansion ramp, second order in
    the step, built 65,536 steps at a time so its memory stays bounded."""
    dt = p.tau / n_steps
    u = IDENTITY
    for start in range(0, n_steps, 1 << 16):
        steps = np.arange(start, min(start + (1 << 16), n_steps))
        u = dynamics._ordered_product(_midpoint_factors(p, dt, steps)) @ u
    u.setflags(write=False)
    return u


def population_from_beta(h: np.ndarray, beta: float) -> float:
    """Excited-state weight of the Gibbs state exp(-beta*h)/Z."""
    gap = transition_energy(h)[0]
    return float(1.0 / (1.0 + np.exp(beta * gap)))


def markov_limits(bath: BathSpec, eps: float) -> tuple[float, float]:
    """Long-time (Markov) rate pair (gamma_inf, gamma_tilde_inf)."""
    if eps <= 0.0:
        raise ValueError(f"transition energy must be positive, got {eps}")
    j = spectral_density(bath, eps)
    if j == 0.0:
        return 0.0, 0.0
    return 0.5 * j, j * occupation(bath, eps)


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


def magnus_propagator(h_of_t: Callable[[float], np.ndarray], tau: float,
                      n_steps: int) -> np.ndarray:
    """Generic two-node Gauss-Legendre Magnus product for an arbitrary H(t):
    each step is exp(-i dt M), M = (H1 + H2)/2 + i (sqrt(3)/12) dt [H1, H2]."""
    dt = tau / n_steps
    node = np.sqrt(3.0) / 6.0
    u = IDENTITY.copy()
    for k in range(n_steps):
        h1 = h_of_t((k + 0.5 - node) * dt)
        h2 = h_of_t((k + 0.5 + node) * dt)
        m = 0.5 * (h1 + h2) + 0.5j * node * dt * (h1 @ h2 - h2 @ h1)
        u = expm_aherm(m, dt) @ u
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


def bloch_generator(h_sys: np.ndarray, jump: np.ndarray, big_gamma: float,
                    gamma_tilde: float) -> np.ndarray:
    """Real 4x4 matrix of `apply_generator` acting on the coordinates
    y_k = Tr(rho sigma_k) of rho = sum_k y_k sigma_k / 2, sigma_0 = I."""
    h = np.asarray(h_sys, dtype=complex)
    a = np.asarray(jump, dtype=complex)
    return np.array([[0.5 * np.trace(
        s_j @ apply_generator(s_k, h, a, big_gamma, gamma_tilde)).real
        for s_k in PAULIS] for s_j in PAULIS])


@dataclass(frozen=True)
class StateTrajectory:
    """Sampled states of a stroke with their health metrics."""

    times: np.ndarray
    states: np.ndarray       # (T, 2, 2) complex
    trace_dev: np.ndarray    # |Tr rho - 1| per sample
    min_eig: np.ndarray      # smallest eigenvalue per sample


def evolve_open(rho0: DensityMatrix, h_sys: np.ndarray, rates: RateTrajectory,
                jump: np.ndarray, grid: np.ndarray, rtol: float = 1e-9,
                atol: float = 1e-12) -> StateTrajectory:
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
    # the generator is affine in the two rates
    m0 = bloch_generator(h_sys, jump, 0.0, 0.0)
    m_big = bloch_generator(h_sys, jump, 1.0, 0.0) - m0
    m_tilde = bloch_generator(h_sys, jump, 0.0, 1.0) - m0

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        bg, gt = rate_spline(t)
        return (m0 + bg * m_big + gt * m_tilde) @ y

    y0 = np.array([np.trace(rho0.mat @ s).real for s in PAULIS])
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="RK45",
                    t_eval=grid, rtol=rtol, atol=atol,
                    max_step=min(0.05, max(grid[-1] / 10.0, 1e-6)))
    if not sol.success:
        raise RuntimeError(
            f"open-system integration failed near t={sol.t[-1]:.6g} ms: "
            f"{sol.message}")

    y = sol.y                        # (4, T)
    states = 0.5 * np.einsum("kt,kij->tij", y, np.stack(PAULIS))
    trace_dev = np.abs(y[0] - 1.0)
    if np.max(trace_dev) > 1e-8:
        raise RuntimeError(
            f"trace drift {np.max(trace_dev):.3e} exceeds tolerance 1e-8")
    bloch_norm = np.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2)
    min_eig = 0.5 * (y[0] - bloch_norm)
    return StateTrajectory(grid, states, trace_dev, min_eig)


def contact_states(rho0, h: np.ndarray, p: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """(T, 2, 2) states of one contact stroke from its excited population p
    and coherence c = <+|rho|-> in the eigenbasis of h: rho0 plus
    dp flip + dc |+><-| + h.c., Hermitian by construction; sample 0 is
    rho0 itself."""
    rho0 = np.asarray(getattr(rho0, "mat", rho0))
    _, vm, vp = transition_energy(h)
    flip = np.outer(vp, vp.conj()) - np.outer(vm, vm.conj())
    dc = np.multiply.outer(c - c[0], np.outer(vp, vm.conj()))
    return (rho0 + np.multiply.outer(p - p[0], flip)
            + dc + np.conj(np.swapaxes(dc, 1, 2)))


def population_loop(p0: float, k_lam: np.ndarray,
                    sources: np.ndarray) -> np.ndarray:
    """`dynamics._populations` one step at a time: each step decays by its
    own factor exp(k Lambda_n - k Lambda_n+1) and adds its source."""
    decay = np.exp(k_lam[:-1] - k_lam[1:]).tolist()
    rows = []
    for source in sources:
        pop = [p0]
        for d, s in zip(decay, source.tolist()):
            pop.append(d * pop[-1] + s)
        rows.append(pop)
    return np.asarray(rows)


def gauss_contact(frame: HotFrame, rates: list[RateTrajectory], grid,
                  nodes: int = 6) -> dynamics.Contact:
    """`dynamics.evolve_open` with the `nodes`-point Gauss-Legendre source
    sum that its Lobatto rule replaced (6 points), on the library's steps:
    sample times and knots, each step cut, one linspace per step, into
    equal parts over which k Lambda moves by at most `_STEP_LAM`."""
    table = rates[0]
    grid = np.asarray(grid, dtype=float)
    k = frame.k
    big_lam, gamma_tilde = qbath.contact_rates(rates)
    t = np.union1d(grid, table.times[table.times < grid[-1]])
    parts = np.ceil(np.abs(np.diff(k * big_lam(t)))
                    / dynamics._STEP_LAM).astype(int)
    t = np.concatenate([np.linspace(a, b, max(m, 1) + 1)[:-1]
                        for a, b, m in zip(t[:-1], t[1:], parts)] + [t[-1:]])
    k_lam = k * big_lam(t)
    x, w = np.polynomial.legendre.leggauss(nodes)
    dt = np.diff(t)
    at = t[:-1, None] + dt[:, None] * (0.5 * (x + 1.0))
    sources = k * dt * np.sum(0.5 * w * gamma_tilde(at) * np.exp(
        k * big_lam(at) - k_lam[1:, None]), axis=-1)
    at = np.searchsorted(t, grid)
    p = dynamics._populations(frame.p0, k_lam, sources)[:, at]
    c = frame.c0 * np.exp(-1j * frame.eps * grid - 0.5 * k_lam[at])
    return dynamics.Contact(grid, p, c, 0.5 - np.hypot(p - 0.5, np.abs(c)))


def cycle_energetics(rho_in, rho_exp, rho_heat, rho_comp,
                     h_cold: np.ndarray, h_hot: np.ndarray) -> Energetics:
    """Score one cycle from its four corner states.

    `rho_in` enters the first driven stroke under `h_cold`, `rho_exp`
    leaves it under `h_hot`, `rho_heat` is the (possibly truncated)
    contact endpoint, and `rho_comp` is that state driven back under
    `h_cold`; `rho_heat` and `rho_comp` are one 2x2 state each or
    matching (T, 2, 2) stacks.  The driven strokes contribute work only;
    heat is the contact-stroke energy change.  Where |q_hot| does not
    clear Q_HOT_FLOOR_SCALE * (hot transition energy), eta is NaN and the
    cycle is no engine.
    """
    ri, re, rh, rc = (np.asarray(getattr(x, "mat", x), dtype=complex)
                      for x in (rho_in, rho_exp, rho_heat, rho_comp))
    e_exp = expect(h_hot, re)
    e_heat = expect(h_hot, rh)
    w1 = e_exp - expect(h_cold, ri)
    w2 = expect(h_cold, rc) - e_heat
    q_hot = e_heat - e_exp
    w = w1 + w2
    floor = Q_HOT_FLOOR_SCALE * transition_energy(h_hot)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(np.abs(q_hot) > floor, np.divide(-w, q_hot), np.nan)
    valid = (w < 0.0) & (q_hot > floor)
    if rh.ndim == 2:  # one endpoint: plain Python scalars
        eta, valid = float(eta), bool(valid)
    return Energetics(w1=w1, w2=w2, q_hot=q_hot, eta=eta, valid_engine=valid)


class _Envelopes:
    """Smooth envelopes g(w) = J/(2pi) and gt(w) = J*nbar/pi."""

    def __init__(self, bath: BathSpec):
        self.bath = bath

    def gamma_env(self, w: np.ndarray) -> np.ndarray:
        return spectral_density(self.bath, w) / TWO_PI

    def tilde_env(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * self.gamma_env(w) * occupation(self.bath, w)

    def tilde_tail_weight(self) -> float:
        """Limit of 2*nbar at large frequency: 0, 1 or 2."""
        b = self.bath
        if b.beta > 0.0:
            return 0.0
        if b.beta == 0.0:
            return 1.0
        return 2.0


class _RateQuadrature:
    """Filon-Legendre evaluation of the sinc-kernel rate integrals."""

    def __init__(self, bath: BathSpec, eps: float, order: int,
                 panel_div: float, omega_scale: float):
        if eps <= 0.0:
            raise ValueError(f"transition energy must be positive, got {eps}")
        self.bath = bath
        self.eps = eps
        self.order = order
        self.panel_div = panel_div
        env = _Envelopes(bath)
        self.env = env
        # the tail expansion treats the occupation as saturated, which needs
        # exp(beta*(w - mu)) to be dead at the truncation point
        thermal_reach = (bath.mu + 35.0 / abs(bath.beta)) if bath.beta else 0.0
        self.omega_max = omega_scale * max(50.0 * bath.omega_c, 20.0 * eps,
                                           thermal_reach)

        self.g_eps = float(env.gamma_env(np.asarray(eps)))
        self.gt_eps = float(env.tilde_env(np.asarray(eps)))

        edges = self._build_edges()
        nodes_x, weights = np.polynomial.legendre.leggauss(order)
        legvals = np.stack([np.polynomial.legendre.Legendre.basis(k)(nodes_x)
                            for k in range(order)])        # (K, n)
        proj = legvals * weights * (2.0 * np.arange(order)[:, None] + 1.0) / 2.0

        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        pts = mids[:, None] + halfs[:, None] * nodes_x[None, :]   # (P, n)

        # eps is a panel edge and Gauss nodes are interior, so no node
        # meets the removable singularity
        psi_g = (env.gamma_env(pts) - self.g_eps) / (pts - eps)
        psi_t = (env.tilde_env(pts) - self.gt_eps) / (pts - eps)
        self.coef_g = psi_g @ proj.T            # (P, K)
        self.coef_t = psi_t @ proj.T
        self.mids = mids
        self.halfs = halfs
        self.i_pow = 1j ** np.arange(order)

        # tail expansion g(w)/(w-e) = C * sum_n a_n / w^n beyond omega_max
        wc2 = bath.omega_c ** 2
        c_gamma = bath.alpha * wc2 / TWO_PI
        powers = np.array([1.0, eps, eps * eps - wc2, eps ** 3 - eps * wc2,
                           eps ** 4 - eps * eps * wc2 + wc2 * wc2])
        self.tail_coeffs_g = c_gamma * powers
        self.tail_coeffs_t = (c_gamma * env.tilde_tail_weight()) * powers

    def _build_edges(self) -> np.ndarray:
        b = self.bath
        beta_scale = 1.0 / max(abs(b.beta), 1e-12)
        marks = sorted({0.0, self.eps, self.omega_max}
                       | ({b.mu} if 0.0 < b.mu < self.omega_max else set()))

        def width(x: float) -> float:
            s = min(b.omega_c + 0.6 * x, abs(x - b.mu) + beta_scale)
            return max(s / self.panel_div, 1e-6 * self.omega_max)

        edges = [0.0]
        for a, c in zip(marks[:-1], marks[1:]):
            x = a
            while x < c:
                x = min(x + width(x), c)
                edges.append(x)
        return np.asarray(edges)

    def _panel_sums(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Oscillatory panel contributions for both envelopes, shape (T,)."""
        acc_g = np.zeros(t.shape, dtype=float)
        acc_t = np.zeros(t.shape, dtype=float)
        for p in range(self.mids.size):
            z = self.halfs[p] * t
            jn = spherical_jn(np.arange(self.order)[:, None], z[None, :])
            s_g = (self.coef_g[p] * self.i_pow) @ jn
            s_t = (self.coef_t[p] * self.i_pow) @ jn
            osc = np.exp(1j * (self.mids[p] - self.eps) * t)
            acc_g += 2.0 * self.halfs[p] * (osc * s_g).imag
            acc_t += 2.0 * self.halfs[p] * (osc * s_t).imag
        return acc_g, acc_t

    def _tails(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Moments T_n = int_Om^inf sin((w-e)t)/w^n dw for n = 2..5.

        Small Om*t: upward recurrence seeded by Si/Ci.  Large Om*t: that
        recurrence multiplies rounding error by t at every order, so switch
        to the integration-by-parts asymptotic series, whose terms fall off
        as 1/(Om*t) and stay stable exactly where the recurrence fails.
        """
        om = self.omega_max
        x = om * t
        moments = np.empty((5, t.size))

        low = x < 300.0
        if np.any(low):
            tl = t[low]
            si, ci = sici(x[low])
            phase = np.exp(1j * om * tl)
            i_n = -ci + 1j * (0.5 * np.pi - si)
            for n in range(1, 6):
                i_n = (phase / om ** n + 1j * tl * i_n) / n
                moments[n - 1, low] = (np.exp(-1j * self.eps * tl) * i_n).imag

        high = ~low
        if np.any(high):
            th = t[high]
            theta = (om - self.eps) * th
            c, s = np.cos(theta), np.sin(theta)
            for n in range(2, 7):
                moments[n - 2, high] = (
                    c / (th * om ** n)
                    + n * s / (th ** 2 * om ** (n + 1))
                    - n * (n + 1) * c / (th ** 3 * om ** (n + 2))
                    - n * (n + 1) * (n + 2) * s / (th ** 4 * om ** (n + 3)))

        return (self.tail_coeffs_g @ moments,
                self.tail_coeffs_t @ moments)

    def rates(self, t) -> tuple[np.ndarray, np.ndarray]:
        """gamma(t), gamma_tilde(t) for t >= 0 (scalar or array)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0):
            raise ValueError("rates defined for t >= 0 only")
        positive = t > 0.0
        tp = t[positive]
        out_g = np.zeros(t.shape)
        out_t = np.zeros(t.shape)
        if tp.size:
            pg, pt = self._panel_sums(tp)
            sing = sici((self.omega_max - self.eps) * tp)[0] + sici(self.eps * tp)[0]
            tg, tt = self._tails(tp)
            out_g[positive] = pg + self.g_eps * sing + tg
            out_t[positive] = pt + self.gt_eps * sing + tt
        return out_g, out_t


def filon_rates(bath: BathSpec, eps: float, t) -> tuple:
    """(gamma, gamma_tilde, big_gamma) from quadrature of both envelopes."""
    engine = _RateQuadrature(bath, eps, 14, 3.0, 1.0)
    g, gt = engine.rates(t)
    return g, gt, 2.0 * g - gt


# past this wc*t the scaled exponential integrals come from their
# asymptotic series (DLMF 6.12.1-2), whose terms are below 1e-25 there
ASYMPTOTIC_X = 500.0
_ASYMPTOTIC_TERMS = 12


def scaled_exp_integrals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x E1(x), e^-x Ei(x)) for x > 0, finite where e^x overflows."""
    e1 = np.empty_like(x)
    ei = np.empty_like(x)
    near = x <= ASYMPTOTIC_X
    xn = x[near]
    e1[near] = np.exp(xn) * exp1(xn)
    ei[near] = np.exp(-xn) * expi(xn)
    # (1/x) sum_n n! (-+1/x)^n, summed from the innermost term out
    u = 1.0 / x[~near]
    s1 = s2 = np.ones_like(u)
    for n in range(_ASYMPTOTIC_TERMS, 0, -1):
        s1 = 1.0 - n * u * s1
        s2 = 1.0 + n * u * s2
    e1[~near] = u * s1
    ei[~near] = u * s2
    return e1, ei


def closed_form_gamma(bath: BathSpec, eps: float,
                      t: np.ndarray) -> np.ndarray:
    """The closed-form gamma of `bath._gamma` at any t > 0, its scaled
    exponential integrals from `scaled_exp_integrals`: the reference of
    the gamma series, also where wc*t reaches past the library's
    switch time."""
    wc = bath.omega_c
    x = wc * t
    e1, ei = scaled_exp_integrals(x)
    phase = np.exp(1j * eps * t)
    k = (np.conj(phase) * (1j * np.pi * np.exp(-x) - ei)
         - phase * e1) / 2j
    a = eps / (eps * eps + wc * wc)
    b = 1.0 / (2.0 * (1j * wc - eps))
    return (bath.alpha * wc * wc / TWO_PI) * (
        a * (0.5 * np.pi + sici(eps * t)[0]) + 2.0 * (b * k).real)


def complex_remainder(bath: BathSpec, eps: float, t: np.ndarray, order: int,
                      panel_div: float, range_scale: float) -> np.ndarray:
    """The library's confined remainder summed the direct way: the same
    panels and Legendre coefficients c_k, each panel adding
    2 half Im(e^{i phi} sum_k i^k c_k j_k(half t)), phi = (mid - e) t,
    with every order from scipy's spherical_jn."""
    omega_max = range_scale * (bath.mu + qbath._REACH / abs(bath.beta))
    h_eps = float(envelope(bath, eps))
    edges = qbath._panel_edges(bath, eps, panel_div, omega_max)
    nodes_x, weights = np.polynomial.legendre.leggauss(order)
    legvals = np.stack([np.polynomial.legendre.Legendre.basis(k)(nodes_x)
                        for k in range(order)])            # (K, n)
    proj = legvals * weights * (np.arange(order)[:, None] + 0.5)
    out = h_eps * (sici((omega_max - eps) * t)[0] + sici(eps * t)[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        pts = mid + half * nodes_x
        coef = proj @ ((envelope(bath, pts) - h_eps) / (pts - eps))
        s = sum(coef[k] * 1j ** k * spherical_jn(k, half * t)
                for k in range(order))
        out = out + 2.0 * half * (np.exp(1j * (mid - eps) * t) * s).imag
    return out


def run_cooling(cfg: CycleConfig, rho_comp, t_max: float = 40.0,
                dt: float = 0.01) -> StateTrajectory:
    """Restoring stroke: contact with the cold reservoir under the cold
    Hamiltonian, by the library's closed-form contact evolution with its
    states, and their trace deviation, rebuilt by `contact_states`.  Long
    runs approach the configured cold thermal state; this stroke never
    enters the first-cycle efficiency."""
    h_cold = hamiltonian_cold(cfg.system)
    eps_cold = transition_energy(h_cold)[0]
    rho0 = rho_comp if isinstance(rho_comp, DensityMatrix) \
        else DensityMatrix.from_matrix(np.asarray(rho_comp, dtype=complex))
    rates = build_rate_trajectories([cfg.cold_bath], eps_cold,
                                    t_max + _TABLE_MARGIN)
    grid = np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)
    contact = dynamics.evolve_open(state_frame(rho0, h_cold), rates, grid)
    states = contact_states(rho0, h_cold, contact.p[0], contact.c)
    return StateTrajectory(
        grid, states, np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0),
        contact.min_eig[0])
