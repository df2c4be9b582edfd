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
  * C is a Filon-Legendre quadrature.  The removable singularity is split
    off exactly; (h(w)-h(e))/(w-e) is projected onto Legendre polynomials
    on panels sized by h alone, with one cached Gauss rule per order; and
    int P_k(x) e^{izx} dx = 2 i^k j_k(z) turns each panel into spherical
    Bessel moments, uniformly valid in t.  The projections are real, so
    even orders weigh the sine of the panel phase and odd orders its
    cosine, all in real arithmetic.  Every order comes from one recurrence
    over all panels (DLMF 10.51), upward for z >= K orders, downward below.

Tables of baths that share alpha and omega_c are built together: one gamma,
one remainder pass over all their stacked panels, and one finer pass (more
orders on half-width panels, over twice the range) that checks the stored
remainders.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import expi, exp1, expit, sici

from . import ConfigError, require_finite

TWO_PI = 2.0 * np.pi

# (Legendre order, panel divisor, range scale) of the remainder quadrature
# and of the finer, doubled-range one that checks it; most of the cost is
# per panel and time, so few wide panels of high order are cheapest at
# ~1e-14 (tests/resolution_scan.py re-derives both)
_BASE_RESOLUTION = (22, 1.0, 1.0)
_FINE_RESOLUTION = (26, 2.0, 2.0)

# the remainder's envelope has fallen by exp(-_REACH) at its range end
_REACH = 40.0

# largest accepted base-versus-fine remainder discrepancy, rad/ms
QUAD_TOL = 1e-8

# most samples a rate table or a heating grid may hold
MAX_POINTS = 10**6

# times per remainder block, which bounds its (panels x times) arrays
_BLOCK = 2048

# orders above the top one at which the downward Bessel recurrence starts
_MILLER_LEAD = 24

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


def _envelope(bath: BathSpec, w: np.ndarray) -> np.ndarray:
    """Remainder envelope h(w) = 2 g(w) expit(-|beta|(w - mu))."""
    return (2.0 * spectral_density(bath, w) / TWO_PI
            * expit(-abs(bath.beta) * (w - bath.mu)))


def _bessel_sum(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Even-k and odd-k sums of coef[:, k] j_k(z), spherical Bessel j_k,
    shape (2, P, T), for real coef of shape (P, K) and z >= 0 of (P, T).

    Every order comes from j_{k+1} = (2k+1)/z j_k - j_{k-1} (DLMF
    10.51.1), which is stable upward where z >= K, the number of orders,
    and downward below it (Miller's algorithm).  Each order joins its
    parity's sum as it is produced: no (orders x panels x times) array.
    """
    out = np.empty((2, *z.shape))
    up = z >= coef.shape[1]
    for sel, branch in ((up, _bessel_up), (~up, _bessel_down)):
        # the selected points, panel by panel, and how many each panel has;
        # one 1-D scatter per parity, as a 2-D one costs several times more
        out[0][sel], out[1][sel] = branch(
            z[sel], np.count_nonzero(sel, axis=1), coef.T)
    return out


def _bessel_up(x: np.ndarray, counts: np.ndarray,
               coef: np.ndarray) -> np.ndarray:
    """Upward recurrence from j_{-1} = cos(x)/x and j_0 = sin(x)/x."""
    acc = np.zeros((2, x.size))
    inv = 1.0 / x
    j_prev, j, tmp = np.cos(x) * inv, np.sin(x) * inv, np.empty_like(x)
    for k, c in enumerate(coef):
        acc[k % 2] += np.repeat(c, counts) * j
        np.multiply(inv, 2 * k + 1, out=tmp)
        tmp *= j
        tmp -= j_prev
        j_prev, j, tmp = j, tmp, j_prev
    return acc


def _bessel_down(x: np.ndarray, counts: np.ndarray,
                 coef: np.ndarray) -> np.ndarray:
    """Miller's algorithm (DLMF 3.6(iii); Gautschi, SIAM Rev. 9, 24
    (1967)) on y_k = (2k+1)!! x^-k j_k, from _MILLER_LEAD orders above the
    top: y stays O(1) however small x is, and j_k(0) = delta_k0.  Each
    parity sums as a Horner polynomial in x^2, the odd one times x, and is
    normalized by j_0, or by j_1 where |j_0| < |j_1|."""
    order = len(coef)
    # coefficients of x^k y_k: c_k / (2k+1)!!
    coef = coef / np.cumprod(np.arange(1.0, 2 * order, 2.0))[:, None]
    acc = np.zeros((2, x.size))
    x2 = x * x
    y_next, y, tmp = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for k in range(order - 1 + _MILLER_LEAD, -1, -1):
        if k < order:
            acc[k % 2] *= x2
            acc[k % 2] += np.repeat(coef[k], counts) * y
        if k:   # y_{k-1} = y_k - x^2/((2k+1)(2k+3)) y_{k+1}
            np.multiply(x2, -1.0 / ((2 * k + 1) * (2 * k + 3)), out=tmp)
            tmp *= y_next
            tmp += y
            y_next, y, tmp = y, tmp, y_next
    del x2, tmp   # before the normalization allocates
    acc[1] *= x
    j0 = np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0.0)
    j1 = np.divide(j0 - np.cos(x), x, out=np.zeros_like(x), where=x > 0.0)
    by_j1 = np.abs(j0) < np.abs(j1)
    acc *= np.where(by_j1, 3.0 * j1, j0) / np.where(by_j1, x * y_next, y)
    return acc


@cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1] and the (K, n) Legendre projection."""
    nodes, weights = leggauss(order)
    proj = (legvander(nodes, order - 1) * weights[:, None]).T \
        * (np.arange(order)[:, None] + 0.5)
    nodes.flags.writeable = proj.flags.writeable = False
    return nodes, proj


def _remainder(baths, eps: float, t: np.ndarray, order: int,
               panel_div: float, range_scale: float) -> np.ndarray:
    """Filon-Legendre confined remainder of each bath (beta != 0), shape
    (B, T), C(t) = int_0^omega_max h(w) sin((w-e)t)/(w-e) dw for t >= 0;
    each bath sums its own panels in order, as it would alone."""
    out = np.empty((len(baths), t.size))
    if not baths:
        return out
    nodes_x, proj = _gauss_rule(order)
    # a panel adds 2 half Im(e^{i phi} sum_k i^k c_k j_k), phi = (mid - e)t,
    # and c is real: i^k is (-1)^(k//2) times i for odd k
    parity = (-1.0) ** (np.arange(order) // 2)
    si_eps = sici(eps * t)[0]
    panels = []
    for b, row in zip(baths, out):
        omega_max = range_scale * (b.mu + _REACH / abs(b.beta))
        h_eps = float(_envelope(b, np.asarray(eps)))
        edges = _panel_edges(b, eps, panel_div, omega_max)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        pts = mid[:, None] + half[:, None] * nodes_x[None, :]   # (P, n)
        # eps is a panel edge or outside the range, and Gauss nodes are
        # interior, so no node meets the removable singularity
        psi = (_envelope(b, pts) - h_eps) / (pts - eps)
        coef = psi @ proj.T * (2.0 * half[:, None]) * parity    # (P, K)
        panels.append((coef, mid, half))
        row[:] = h_eps * (sici((omega_max - eps) * t)[0] + si_eps)
    coef, mids, halfs = (np.concatenate(x) for x in zip(*panels))
    bounds = np.cumsum([0] + [m.size for _, m, _ in panels])
    # whole baths per group, as many as keep (panels x times) <= 8 _BLOCK
    cap = 8 * _BLOCK / min(max(t.size, 1), _BLOCK)
    first = 0
    while first < len(baths):
        last = max(first + 1, np.searchsorted(bounds, bounds[first] + cap,
                                              "right") - 1)
        rows = slice(bounds[first], bounds[last])
        for lo in range(0, t.size, _BLOCK):
            tb = t[lo:lo + _BLOCK]
            terms = _bessel_sum(coef[rows], halfs[rows, None] * tb)
            phase = (mids[rows] - eps)[:, None] * tb
            terms = np.sin(phase) * terms[0] + np.cos(phase) * terms[1]
            for row, part in zip(out[first:last], np.split(
                    terms, bounds[first + 1:last] - rows.start)):
                row[lo:lo + _BLOCK] += part.sum(0)
            del terms, phase   # before the next block allocates its own
        first = last
    return out


def rate_coefficients(baths, eps: float, t) -> list[tuple]:
    """(gamma, gamma_tilde, big_gamma) of each bath as arrays over the
    times t since switch-on (a scalar counts as one time);
    big_gamma = 2*gamma - gamma_tilde is the decay channel.  The baths
    share alpha and omega_c, hence gamma."""
    if len({(b.alpha, b.omega_c) for b in baths}) != 1:
        raise ValueError("the baths must share alpha and omega_c")
    if eps <= 0.0:
        raise ValueError(f"transition energy must be positive, got {eps}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("rates defined for t >= 0 only")
    g = np.zeros(ts.shape)
    g[ts > 0.0] = _gamma(baths[0], eps, ts[ts > 0.0])
    held = iter(_remainder([b for b in baths if b.beta != 0.0], eps, ts,
                           *_BASE_RESOLUTION))
    # the remainder; at beta = 0, nbar = 1/2: both channels run at gamma
    cs = [next(held) if b.beta != 0.0 else g.copy() for b in baths]
    return [(g, 2.0 * g - c, c) if b.beta < 0.0 else (g, c, 2.0 * g - c)
            for b, c in zip(baths, cs)]


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


def rate_table_size(bath: BathSpec, eps: float, t_max: float) -> int:
    """Points of the rate table on [0, t_max], spaced below
    min(0.2/eps, 0.05/omega_c) ms so that cubic interpolation resolves the
    transition-frequency oscillation and the cutoff-scale transient of the
    rates; more than MAX_POINTS is a ConfigError, raised before allocation."""
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    spacing = min(0.2 / eps, 0.05 / bath.omega_c)
    count = np.ceil(t_max / spacing) + 1.0
    if not count <= MAX_POINTS:
        raise ConfigError(
            f"a rate table over {t_max:.9g} ms at omega_c = "
            f"{bath.omega_c:.9g} needs {count:.9g} points, more than "
            f"{MAX_POINTS}")
    return int(count)


def quadrature_error_estimate(baths, eps: float, ts, held) -> list[float]:
    """Per bath, the max discrepancy of its remainder values `held[b]` at
    times `ts` against the finer, doubled-range quadrature; 0 at beta = 0,
    where both rates are the closed-form gamma."""
    fine = iter(_remainder([b for b in baths if b.beta != 0.0], eps,
                           np.asarray(ts, float), *_FINE_RESOLUTION))
    return [float(np.max(np.abs(h - next(fine)))) if b.beta != 0.0 else 0.0
            for b, h in zip(baths, held)]


def build_rate_trajectories(baths, eps: float,
                            t_max: float) -> list[RateTrajectory]:
    """Rate tables on [0, t_max] at the resolution the dynamics needs, all
    on one grid: the baths must share alpha and omega_c."""
    times = np.linspace(0.0, t_max, rate_table_size(baths[0], eps, t_max))
    rates = rate_coefficients(baths, eps, times)
    # the stored remainders at nine table times spread geometrically
    k = np.rint(np.geomspace(1, times.size - 1, 9)).astype(int)
    errors = quadrature_error_estimate(baths, eps, times[k], [
        (bg if b.beta < 0.0 else gt)[k]
        for b, (_, gt, bg) in zip(baths, rates)])
    tables = []
    for b, (g, gt, bg), quad_err in zip(baths, rates, errors):
        weak_ok = bool(np.max(np.abs(bg)) < eps / 5.0)
        for warn, text in (
                (quad_err > QUAD_TOL,
                 f"rate quadrature convergence estimate {quad_err:.2e} "
                 f"exceeds tolerance {QUAD_TOL:.1e}"),
                (np.min(gt) < -1e-12,
                 f"fluctuation rate dips to {np.min(gt):.3e}; canonical-rate "
                 "interpretation may be affected"),
                (not weak_ok,
                 "dissipation strength is not small against the transition "
                 "energy; weak-coupling treatment is marginal here")):
            if warn:
                warnings.warn(text, RuntimeWarning, stacklevel=2)
        tables.append(RateTrajectory(times, g, gt, bg, quad_err, weak_ok))
    return tables


def build_rate_trajectory(bath: BathSpec, eps: float,
                          t_max: float) -> RateTrajectory:
    """The rate table of one bath; see build_rate_trajectories."""
    return build_rate_trajectories([bath], eps, t_max)[0]
