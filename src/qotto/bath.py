"""Structured two-level environment: spectrum and time-local rates.

The dissipation (gamma) and fluctuation (gamma_tilde) coefficients of a
contact stroke are frequency integrals with a sinc kernel,

    gamma(t)  =      int_0^inf dw g(w)         sin((w-e)t)/(w-e)
    gt(t)     =  2 * int_0^inf dw g(w) nbar(w) sin((w-e)t)/(w-e)

with g = J/(2pi), nbar(w) = 1/(exp(beta(w - mu)) + 1) the Fermi occupation
of the bath mode and e the transition energy of the system Hamiltonian.

  * gamma has a closed form.  g(w)/(w-e) splits into simple poles at
    w = e and w = +-i*wc; the first integrates to a sine integral, the
    other two to the exponential integrals E1 and Ei of the real argument
    wc*t (DLMF 6.2, 6.7).
  * nbar and 1 - nbar are Fermi functions; whichever of them vanishes at
    large w does so like exp(-|beta| w).  The sinc integral of
    2 g(w) expit(-|beta|(w - mu)), the confined remainder C(t), therefore
    needs no tail beyond w_max = mu + 40/|beta|.  C is gt for a
    positive-temperature reservoir (beta > 0) and the decay rate
    2*gamma - gt for an inverted one (beta < 0); at beta = 0, gt = gamma.
  * C is a Filon-Legendre quadrature: the removable singularity is split
    off exactly, (h(w)-h(e))/(w-e) is expanded in Legendre polynomials on
    panels sized by the envelope h alone, and int P_k(x) e^{izx} dx =
    2 i^k j_k(z) turns each panel into spherical Bessel moments, uniformly
    valid in t.

A doubled-resolution, doubled-range remainder checks the remainder values
every rate table stores; gamma has no quadrature to check.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import expi, exp1, expit, sici, spherical_jn

from . import ConfigError, require_finite

TWO_PI = 2.0 * np.pi

# (Legendre order, panel divisor, range scale) of the remainder quadrature
# and of the doubled-resolution, doubled-range one that checks it
_BASE_RESOLUTION = (14, 3.0, 1.0)
_FINE_RESOLUTION = (16, 5.0, 2.0)

# the remainder's envelope has fallen by exp(-_REACH) at its range end
_REACH = 40.0

# largest accepted base-versus-fine remainder discrepancy, rad/ms
QUAD_TOL = 1e-8

# most samples a rate table or a heating grid may hold
MAX_POINTS = 10**6

# past this wc*t the scaled exponential integrals come from their
# asymptotic series (DLMF 6.12.1-2), whose terms are below 1e-25 there
_ASYMPTOTIC_X = 500.0
_ASYMPTOTIC_TERMS = 12


@dataclass(frozen=True)
class BathSpec:
    """Fermionic two-level environment.

    alpha   : dimensionless coupling strength (>= 0; 0 decouples the bath)
    omega_c : spectral cutoff, rad/ms
    beta    : inverse temperature, ms/rad, finite and of either sign
              (beta < 0 is the population-inverted reservoir)
    mu      : chemical potential, rad/ms (>= 0)
    """

    alpha: float
    omega_c: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if not self.alpha >= 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not self.omega_c > 0.0:
            raise ConfigError(f"omega_c must be positive, got {self.omega_c}")
        if not self.mu >= 0.0:
            raise ConfigError(f"fermionic bath needs mu >= 0, got {self.mu}")


def spectral_density(bath: BathSpec, w):
    """Ohmic spectral density with algebraic cutoff, J(w) = a*w*wc^2/(wc^2+w^2)."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density defined for w >= 0 only")
    wc2 = bath.omega_c ** 2
    out = bath.alpha * w * wc2 / (wc2 + w * w)
    return out if out.ndim else float(out)


def _scaled_exp_integrals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x E1(x), e^-x Ei(x)) for x > 0, finite where e^x overflows."""
    e1 = np.empty_like(x)
    ei = np.empty_like(x)
    near = x <= _ASYMPTOTIC_X
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


def _gamma(bath: BathSpec, eps: float, t: np.ndarray) -> np.ndarray:
    """Closed-form dissipation rate gamma(t) for t > 0.

    With A = e/(e^2+wc^2) and B = 1/(2(i wc - e)) the residues of
    w/((w^2+wc^2)(w-e)), gamma = (a wc^2/2pi) [A (pi/2 + Si(e t))
    + 2 Re(B K)], where K = int_0^inf sin((w-e)t)/(w - i wc) dw follows
    from rotating e^{+-iwt}/(w - i wc) onto the imaginary axis.
    """
    wc = bath.omega_c
    x = wc * t
    e1, ei = _scaled_exp_integrals(x)
    phase = np.exp(1j * eps * t)
    k = (np.conj(phase) * (1j * np.pi * np.exp(-x) - ei)
         - phase * e1) / 2j
    a = eps / (eps * eps + wc * wc)
    b = 1.0 / (2.0 * (1j * wc - eps))
    return (bath.alpha * wc * wc / TWO_PI) * (
        a * (0.5 * np.pi + sici(eps * t)[0]) + 2.0 * (b * k).real)


def _panel_edges(bath: BathSpec, eps: float, panel_div: float,
                 omega_max: float) -> np.ndarray:
    """Panel edges on [0, omega_max], with eps and mu as edges inside it.

    Panels grow with the frequency and shrink near mu, where the
    occupation turns over on the scale 1/|beta|.
    """
    beta_scale = 1.0 / abs(bath.beta)
    marks = sorted({0.0, omega_max}
                   | {m for m in (eps, bath.mu) if 0.0 < m < omega_max})

    def width(x: float) -> float:
        s = min(bath.omega_c + 0.6 * x, abs(x - bath.mu) + beta_scale)
        return max(s / panel_div, 1e-6 * omega_max)

    edges = [0.0]
    for a, c in zip(marks[:-1], marks[1:]):
        x = a
        while x < c:
            w = width(x)
            # a step leaving under half a width would end on a sliver panel
            x = c if c - x < 1.5 * w else x + w
            edges.append(x)
    return np.asarray(edges)


class _Remainder:
    """Filon-Legendre evaluation of the confined remainder
    C(t) = int_0^omega_max h(w) sin((w-e)t)/(w-e) dw,
    h(w) = 2 g(w) expit(-|beta|(w - mu)); needs beta != 0."""

    def __init__(self, bath: BathSpec, eps: float, order: int,
                 panel_div: float, range_scale: float):
        self.bath = bath
        self.eps = eps
        self.order = order
        self.omega_max = range_scale * (bath.mu + _REACH / abs(bath.beta))
        self.h_eps = float(self.envelope(np.asarray(eps)))

        edges = _panel_edges(bath, eps, panel_div, self.omega_max)
        nodes_x, weights = np.polynomial.legendre.leggauss(order)
        # Gauss projection onto P_0 .. P_{K-1}, shape (K, n)
        proj = (legvander(nodes_x, order - 1) * weights[:, None]).T \
            * (np.arange(order)[:, None] + 0.5)

        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        pts = mids[:, None] + halfs[:, None] * nodes_x[None, :]   # (P, n)

        # eps is a panel edge or outside the range, and Gauss nodes are
        # interior, so no node meets the removable singularity
        psi = (self.envelope(pts) - self.h_eps) / (pts - eps)
        self.coef = (psi @ proj.T) * 1j ** np.arange(order)    # (P, K)
        self.mids = mids
        self.halfs = halfs

    def envelope(self, w: np.ndarray) -> np.ndarray:
        b = self.bath
        return (2.0 * spectral_density(b, w) / TWO_PI
                * expit(-abs(b.beta) * (w - b.mu)))

    def _panel_sums(self, t: np.ndarray) -> np.ndarray:
        """Oscillatory panel contributions, shape (T,)."""
        acc = np.zeros(t.shape, dtype=float)
        k = np.arange(self.order)[:, None]
        for p in range(self.mids.size):
            jn = spherical_jn(k, self.halfs[p] * t[None, :])
            s = np.einsum("k,kt->t", self.coef[p], jn)
            osc = np.exp(1j * (self.mids[p] - self.eps) * t)
            acc += 2.0 * self.halfs[p] * (osc * s).imag
        return acc

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """C(t) for t >= 0; C(0) = 0."""
        sing = sici((self.omega_max - self.eps) * t)[0] + sici(self.eps * t)[0]
        return self._panel_sums(t) + self.h_eps * sing


def quadrature_error_estimate(bath: BathSpec, eps: float, ts, held) -> float:
    """Max discrepancy of the confined remainder values `held` at times
    `ts` against a doubled-resolution, doubled-range quadrature; 0 at
    beta = 0, where both rates are the closed-form gamma."""
    if bath.beta == 0.0:
        return 0.0
    fine = _Remainder(bath, eps, *_FINE_RESOLUTION)(np.asarray(ts, float))
    return float(np.max(np.abs(np.asarray(held) - fine)))


def rate_coefficients(bath: BathSpec, eps: float, t):
    """(gamma, gamma_tilde, big_gamma) at time(s) t since bath switch-on.

    big_gamma is the canonical decay-channel coefficient 2*gamma - gamma_tilde.
    """
    if eps <= 0.0:
        raise ValueError(f"transition energy must be positive, got {eps}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("rates defined for t >= 0 only")
    positive = ts > 0.0
    g = np.zeros(ts.shape)
    g[positive] = _gamma(bath, eps, ts[positive])
    if bath.beta == 0.0:
        # nbar = 1/2 everywhere: both channels run at gamma
        gt, bg = g.copy(), g.copy()
    else:
        c = _Remainder(bath, eps, *_BASE_RESOLUTION)(ts)
        rest = 2.0 * g - c
        gt, bg = (rest, c) if bath.beta < 0.0 else (c, rest)
    if np.ndim(t) == 0:
        return float(g[0]), float(gt[0]), float(bg[0])
    return g, gt, bg


@dataclass(frozen=True)
class RateTrajectory:
    """Precomputed rate table on a uniform grid, with health diagnostics.

    `quad_error` is the convergence estimate of the confined remainder,
    the only rate piece computed by quadrature, on the stored values.
    """

    times: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    big_gamma: np.ndarray
    quad_error: float
    weak_coupling_ok: bool

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("rate grid must start at 0 and increase strictly")


def build_rate_trajectory(bath: BathSpec, eps: float,
                          t_max: float) -> RateTrajectory:
    """Tabulate rates on [0, t_max] at the resolution the dynamics needs.

    Grid spacing stays below min(0.2/eps, 0.05/omega_c) ms so that cubic
    interpolation resolves both the transition-frequency oscillation and the
    cutoff-scale transient of the rates.
    """
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    spacing = min(0.2 / eps, 0.05 / bath.omega_c)
    count = np.ceil(t_max / spacing) + 1.0
    if not count <= MAX_POINTS:
        raise ConfigError(
            f"a rate table over {t_max:.9g} ms at omega_c = "
            f"{bath.omega_c:.9g} needs {count:.9g} points, more than "
            f"{MAX_POINTS}")
    n = int(count)
    times = np.linspace(0.0, t_max, n)
    g, gt, bg = rate_coefficients(bath, eps, times)

    # the stored remainder at nine table times spread geometrically
    k = np.rint(np.geomspace(1, n - 1, 9)).astype(int)
    held = bg if bath.beta < 0.0 else gt
    quad_err = quadrature_error_estimate(bath, eps, times[k], held[k])
    if quad_err > QUAD_TOL:
        warnings.warn(
            f"rate quadrature convergence estimate {quad_err:.2e} exceeds "
            f"tolerance {QUAD_TOL:.1e}", RuntimeWarning, stacklevel=2)

    if np.min(gt) < -1e-12:
        warnings.warn(
            f"fluctuation rate dips to {np.min(gt):.3e}; canonical-rate "
            "interpretation may be affected", RuntimeWarning, stacklevel=2)

    weak_ok = bool(np.max(np.abs(bg)) < eps / 5.0)
    if not weak_ok:
        warnings.warn(
            "dissipation strength is not small against the transition energy; "
            "weak-coupling treatment is marginal here", RuntimeWarning,
            stacklevel=2)
    return RateTrajectory(times, g, gt, bg, float(quad_err), weak_ok)
