"""Structured two-level environment: spectrum, occupation, time-local rates.

The dissipation (gamma) and fluctuation (gamma_tilde) coefficients of the
heating stroke are frequency integrals with a sinc kernel,

    gamma(t)  =      int_0^inf dw/(2pi) J(w)        sin((w-e)t)/(w-e)
    gt(t)     =  2 * int_0^inf dw/(2pi) J(w) nbar(w) sin((w-e)t)/(w-e)

where e is the transition energy of the system Hamiltonian.  Direct panel
quadrature of the oscillation costs O(w_max * t) nodes per evaluation and
still truncates with an O(1/(t*w_max^2)) tail, so the kernel is handled
semi-analytically instead:

  * the removable singularity is split off exactly,
        g(w) sinc = (g(w)-g(e)) sinc_smooth + g(e) sinc,
    and the second piece integrates to sine-integral functions;
  * the smooth remainder is expanded in Legendre polynomials on panels sized
    by the envelope alone, and int P_k(x) e^{izx} dx = 2 i^k j_k(z) turns
    each panel into spherical Bessel moments, uniformly valid in t;
  * the truncated tail beyond w_max follows from a four-term 1/w expansion
    integrated in closed form (Si/Ci recurrences).

A doubled-resolution engine provides the convergence estimate that is
reported with every rate table.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit, sici, spherical_jn

TWO_PI = 2.0 * np.pi

# (Legendre order, panel divisor, range scale) of the rate engine and of
# the doubled-resolution, doubled-range engine that checks it
_BASE_RESOLUTION = (14, 3.0, 1.0)
_FINE_RESOLUTION = (16, 5.0, 2.0)

# largest accepted base-versus-fine rate discrepancy, rad/ms
QUAD_TOL = 1e-8


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
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.omega_c <= 0.0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.mu < 0.0:
            raise ValueError(f"fermionic bath needs mu >= 0, got {self.mu}")


def spectral_density(bath: BathSpec, w):
    """Ohmic spectral density with algebraic cutoff, J(w) = a*w*wc^2/(wc^2+w^2)."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density defined for w >= 0 only")
    wc2 = bath.omega_c ** 2
    out = bath.alpha * w * wc2 / (wc2 + w * w)
    return out if out.ndim else float(out)


def occupation(bath: BathSpec, w):
    """Fermi-Dirac occupation of the bath mode at frequency w."""
    w = np.asarray(w, dtype=float)
    out = expit(-bath.beta * (w - bath.mu))
    return out if out.ndim else float(out)


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


@lru_cache(maxsize=64)
def _engine(bath: BathSpec, eps: float, order: int, panel_div: float,
            omega_scale: float) -> _RateQuadrature:
    return _RateQuadrature(bath, eps, order, panel_div, omega_scale)


def quadrature_error_estimate(bath: BathSpec, eps: float, ts) -> float:
    """Max rate discrepancy against a doubled-resolution, doubled-range engine."""
    base = _engine(bath, eps, *_BASE_RESOLUTION)
    fine = _engine(bath, eps, *_FINE_RESOLUTION)
    g0, t0 = base.rates(ts)
    g1, t1 = fine.rates(ts)
    return float(max(np.max(np.abs(g0 - g1)), np.max(np.abs(t0 - t1))))


def rate_coefficients(bath: BathSpec, eps: float, t):
    """(gamma, gamma_tilde, big_gamma) at time(s) t since bath switch-on.

    big_gamma is the canonical decay-channel coefficient 2*gamma - gamma_tilde.
    """
    engine = _engine(bath, eps, *_BASE_RESOLUTION)
    g, gt = engine.rates(t)
    bg = 2.0 * g - gt
    if np.ndim(t) == 0:
        return float(g[0]), float(gt[0]), float(bg[0])
    return g, gt, bg


@dataclass(frozen=True)
class RateTrajectory:
    """Precomputed rate table on a uniform grid, with health diagnostics."""

    times: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    big_gamma: np.ndarray
    bath: BathSpec
    eps: float
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
    n = int(np.ceil(t_max / spacing)) + 1
    times = np.linspace(0.0, t_max, n)
    g, gt, bg = rate_coefficients(bath, eps, times)

    probes = np.geomspace(times[1], t_max, 9)
    quad_err = quadrature_error_estimate(bath, eps, probes)
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
    return RateTrajectory(times, g, gt, bg, bath, eps, float(quad_err), weak_ok)
