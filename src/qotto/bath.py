"""Structured two-level environment: spectrum and time-local rates.

The dissipation (gamma) and fluctuation (gamma_tilde) coefficients of a
contact stroke are frequency integrals with a sinc kernel,

    gamma(t)  =      int_0^inf dw g(w)         sin((w-e)t)/(w-e)
    gt(t)     =  2 * int_0^inf dw g(w) nbar(w) sin((w-e)t)/(w-e)

with g = J/(2pi), nbar(w) = 1/(exp(beta(w - mu)) + 1) the Fermi occupation
of the bath mode and e the transition energy of the system Hamiltonian.

  * gamma has a closed form, used before 37/wc.  g(w)/(w-e) splits into
    simple poles at w = e and w = +-i*wc; the first integrates to a sine
    integral, the other two to the exponential integrals E1 and Ei of the
    real argument wc*t (DLMF 6.2, 6.7).
  * nbar and 1 - nbar are Fermi functions; whichever of them vanishes at
    large w does so like exp(-|beta| w).  The sinc integral of
    2 g(w) expit(-|beta|(w - mu)), the confined remainder C(t), therefore
    needs no tail beyond w_max = mu + 40/|beta|.  C is gt for a
    positive-temperature reservoir (beta > 0) and the decay rate
    2*gamma - gt for an inverted one (beta < 0); at beta = 0, gt = gamma.
  * Up to a switch time t* the remainder C is a Filon-Legendre
    quadrature.  The removable singularity is split off exactly;
    (h(w)-h(e))/(w-e) is projected onto Legendre polynomials on panels
    sized by h alone, with one cached Gauss rule per order; and
    int P_k(x) e^{izx} dx = 2 i^k j_k(z) turns each panel into spherical
    Bessel moments, uniformly valid in t.  The projections are real, so
    even orders weigh the sine of the panel phase and odd orders its
    cosine, all in real arithmetic.  Every order comes from one recurrence
    over all panels (DLMF 10.51), upward for z >= K orders, downward below.
  * Past t* = 37/min(wc, pi/|beta|), C and gamma come from one endpoint
    series routine.  With psi = (h(w)-h(e))/(w-e), W = mu + 40/|beta| and
    A_a = sum_n (-1)^n psi^(n)(a) (1/(it))^(n+1) (integration by parts,
    DLMF 2.3(i)),
        C = h(e)[Si((W-e)t) + Si(e t)] + Im e^{-iet}(e^{iWt} A_W - A_0),
    and gamma is the same sum for g at W = inf, Si(inf) = pi/2 with no
    endpoint there.  One list of poles, i wc and mu + i pi/|beta|, sets t*,
    where what the series miss has decayed to rounding, and each circle on
    which one FFT per endpoint takes the Taylor data, inside the nearest
    pole (Fornberg, ACM TOMS 7, 512 (1981)).

Tables are built together: the baths that share alpha and omega_c share
one grid, one gamma and one remainder pass over their stacked panels up to
their switch time, and one finer pass over the panels of every bath (more
orders on half-width panels, over twice the range) checks each table's
stored remainders at nine of its own times, series values included.

`contact_rates` evaluates a contact stroke's rates between the knots of
tables that share their times and gamma: Lambda = int 2 gamma, the exact
antiderivative of one cubic spline of 2 gamma, and every table's
gamma_tilde from one spline over their stacked columns.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.interpolate import CubicSpline
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

# most samples a rate table or a heating grid may hold, and most steps
# the ramp propagator may take
MAX_POINTS = 10**6

# times per remainder block, which bounds its (panels x times) arrays
_BLOCK = 2048

# orders above K, the bound on its arguments, at which the downward
# Bessel recurrence starts: a start 19 orders above the argument reaches
# 2e-15 against spherical_jn for K <= 28
_MILLER_LEAD = 20

# past t* = _TAIL_REACH/(least Im of the bath's poles) the rates come from
# _TAIL_TERMS terms of their endpoint series, whose Taylor data come from
# one _TAIL_FFT-point FFT per endpoint on a circle at _TAIL_RADIUS of the
# distance to the nearest pole (tests/resolution_scan.py --tail re-derives
# these constants)
_TAIL_TERMS = 30
_TAIL_FFT = 256
_TAIL_RADIUS = 0.7
_TAIL_REACH = 37.0


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


def _gamma(bath: BathSpec, eps: float, t: np.ndarray,
           si_eps: np.ndarray) -> np.ndarray:
    """Closed-form dissipation rate gamma(t) for 0 < t < _TAIL_REACH/wc,
    given Si(e t).

    With A = e/(e^2+wc^2) and B = 1/(2(i wc - e)) the residues of
    w/((w^2+wc^2)(w-e)), gamma = (a wc^2/2pi) [A (pi/2 + Si(e t))
    + 2 Re(B K)], where K = int_0^inf sin((w-e)t)/(w - i wc) dw follows
    from rotating e^{+-iwt}/(w - i wc) onto the imaginary axis.
    """
    wc = bath.omega_c
    x = wc * t
    # e^x E1(x) and e^-x Ei(x), finite because x < _TAIL_REACH
    e1, ei = np.exp(x) * exp1(x), np.exp(-x) * expi(x)
    phase = np.exp(1j * eps * t)
    k = (np.conj(phase) * (1j * np.pi * np.exp(-x) - ei)
         - phase * e1) / 2j
    a = eps / (eps * eps + wc * wc)
    b = 1.0 / (2.0 * (1j * wc - eps))
    return (bath.alpha * wc * wc / TWO_PI) * (
        a * (0.5 * np.pi + si_eps) + 2.0 * (b * k).real)


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


def _spectrum(alpha, wc2, w):
    """g(w) = J(w)/2pi at coupling alpha and omega_c^2 = wc2, for real or
    complex w, its parameters broadcasting against w."""
    return alpha * w * wc2 / (wc2 + w * w) / TWO_PI


def _envelope(alpha, wc2, beta_abs, mu, w):
    """Remainder envelope h(w) = 2 g(w) expit(-|beta|(w - mu)) for real w,
    its parameters broadcasting against w."""
    return 2.0 * _spectrum(alpha, wc2, w) * expit(-beta_abs * (w - mu))


def _fermi_envelope(alpha, wc2, beta_abs, mu, w):
    """h(w) of `_envelope` for complex w, which expit does not take."""
    return (2.0 * _spectrum(alpha, wc2, w)
            / (1.0 + np.exp(beta_abs * (w - mu))))


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
        if sel.any():
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
        acc[k % 2] += c.repeat(counts) * j
        np.multiply(inv, 2 * k + 1, out=tmp)
        tmp *= j
        tmp -= j_prev
        j_prev, j, tmp = j, tmp, j_prev
    return acc


def _bessel_down(x: np.ndarray, counts: np.ndarray,
                 coef: np.ndarray) -> np.ndarray:
    """Miller's algorithm (DLMF 3.6(iii); Gautschi, SIAM Rev. 9, 24
    (1967)) on y_k = (2k+1)!! x^-k j_k, from _MILLER_LEAD orders above K,
    the bound on x: y stays O(1) however small x is, and j_k(0) =
    delta_k0.  Each parity sums as a Horner polynomial in x^2, the odd one
    times x, and is normalized by j_0, or by j_1 where |j_0| < |j_1|."""
    order = len(coef)
    # coefficients of x^k y_k: c_k / (2k+1)!!
    coef = coef / np.cumprod(np.arange(1.0, 2 * order, 2.0))[:, None]
    acc = np.zeros((2, x.size))
    x2 = x * x
    y_next, y, tmp = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for k in range(order + _MILLER_LEAD, -1, -1):
        if k < order:
            acc[k % 2] *= x2
            acc[k % 2] += coef[k].repeat(counts) * y
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
               panel_div: float, range_scale: float,
               si_eps: np.ndarray | None = None) -> np.ndarray:
    """Filon-Legendre confined remainder of each bath (beta != 0), shape
    (B, T), C(t) = int_0^omega_max h(w) sin((w-e)t)/(w-e) dw for t >= 0,
    at times shared by all baths, shape (T,), or one row per bath, (B, T);
    given Si(e t) or computing it.  Each bath sums its own panels in
    order, as it would alone."""
    if t.ndim == 2 and len(t) != len(baths):
        raise ValueError(f"{len(t)} time rows for {len(baths)} baths")
    out = np.empty((len(baths), t.shape[-1]))
    if not baths:
        return out
    nodes_x, proj = _gauss_rule(order)
    # a panel adds 2 half Im(e^{i phi} sum_k i^k c_k j_k), phi = (mid - e)t,
    # and c is real: i^k is (-1)^(k//2) times i for odd k
    parity = (-1.0) ** (np.arange(order) // 2)
    if si_eps is None:
        si_eps = sici(eps * t)[0]
    params = np.array([(b.alpha, b.omega_c ** 2, abs(b.beta), b.mu)
                       for b in baths])
    omega_max = range_scale * (params[:, 3] + _REACH / params[:, 2])
    h_eps = _envelope(*params.T, eps)
    edges = [_panel_edges(b, eps, panel_div, w)
             for b, w in zip(baths, omega_max.tolist())]
    bounds = np.cumsum([0] + [e.size - 1 for e in edges])
    owner = np.repeat(np.arange(len(baths)), np.diff(bounds))  # panel's bath
    mids = np.concatenate([0.5 * (e[1:] + e[:-1]) for e in edges])
    halfs = np.concatenate([0.5 * np.diff(e) for e in edges])
    pts = mids[:, None] + halfs[:, None] * nodes_x[None, :]   # (P, n)
    # eps is a panel edge or outside the range, and Gauss nodes are
    # interior, so no node meets the removable singularity
    psi = ((_envelope(*params[owner].T[:, :, None], pts)
            - h_eps[owner, None]) / (pts - eps))
    # one small product per bath: a stacked one starts BLAS threads
    coef = np.concatenate([psi[a:b] @ proj.T for a, b in zip(
        bounds[:-1], bounds[1:])]) * (2.0 * halfs[:, None]) * parity
    out[:] = h_eps[:, None] * (sici((omega_max[:, None] - eps) * t)[0]
                               + si_eps)
    # whole baths per group, as many as keep (panels x times) <= 8 _BLOCK
    cap = 8 * _BLOCK / min(max(t.shape[-1], 1), _BLOCK)
    first = 0
    while first < len(baths):
        last = max(first + 1, np.searchsorted(bounds, bounds[first] + cap,
                                              "right") - 1)
        rows = slice(bounds[first], bounds[last])
        for lo in range(0, t.shape[-1], _BLOCK):
            # the shared times, or each panel's bath's own row
            tb = (t[lo:lo + _BLOCK] if t.ndim == 1
                  else t[owner[rows], lo:lo + _BLOCK])
            terms = _bessel_sum(coef[rows], halfs[rows, None] * tb)
            phase = (mids[rows] - eps)[:, None] * tb
            terms = np.sin(phase) * terms[0] + np.cos(phase) * terms[1]
            for row, part in zip(out[first:last], np.split(
                    terms, bounds[first + 1:last] - rows.start)):
                row[lo:lo + _BLOCK] += part.sum(0)
            del terms, phase   # before the next block allocates its own
        first = last
    return out


def _poles(bath: BathSpec) -> list[complex]:
    """The poles nearest the real axis of the bath's integrands: i omega_c
    of g and, at beta != 0, mu + i pi/|beta| of the Fermi factor in h."""
    poles = [complex(0.0, bath.omega_c)]
    if bath.beta != 0.0:
        poles.append(complex(bath.mu, np.pi / abs(bath.beta)))
    return poles


def _switch_time(bath: BathSpec) -> float:
    """t*, past which the endpoint series of the bath's rates have reached
    rounding: what they miss decays like exp(-Im(p) t) for each pole p."""
    return _TAIL_REACH / min(p.imag for p in _poles(bath))


def _endpoint(f, a: float, poles) -> tuple:
    """(radius, b): the Taylor data of f at a for `_endpoint_sum`, the
    columns of b holding b_n = (-1)^(n//2) f^(n)(a) radius^n at even and
    at odd n, on a circle at _TAIL_RADIUS of the distance to the nearest
    pole.  The FFT nodes sit half a step off the real axis, where e may
    lie."""
    radius = _TAIL_RADIUS * min(abs(p - a) for p in poles)
    n = np.arange(_TAIL_TERMS)
    theta = TWO_PI * (np.arange(_TAIL_FFT) + 0.5) / _TAIL_FFT
    b = np.fft.fft(f(a + radius * np.exp(1j * theta)))[:n.size]
    # undo the half-step rotation of the nodes
    b = (b * np.exp(-1j * np.pi * n / _TAIL_FFT)).real / _TAIL_FFT
    b *= np.cumprod(np.maximum(n, 1.0)) * (-1.0) ** (n // 2)
    return radius, b.reshape(-1, 2)


def _endpoint_sum(data: tuple, t: np.ndarray) -> tuple:
    """(Re, Im) of A_a = sum_n (-1)^n f^(n)(a) (1/(it))^(n+1): with
    u = 1/(radius t), r u^2 P_odd(u^2) and -r u P_even(u^2)."""
    radius, b = data
    u = 1.0 / (radius * t)
    x = u * u
    acc = np.multiply.outer(b[-1], np.ones_like(x))
    for row in b[-2::-1]:   # Horner, both parities at once
        acc *= x
        acc += row[:, None]
    return radius * x * acc[1], -radius * u * acc[0]


def _series(f, f_eps: float, eps: float, top: float, poles, t: np.ndarray,
            si_eps, cos_eps, sin_eps) -> np.ndarray:
    """int_0^top f(w) sin((w-e)t)/(w-e) dw past the switch time of poles,
    from the endpoint series of psi = (f(w) - f(e))/(w - e), f taking
    complex w: f(e)[Si((top-e)t) + Si(e t)] + Im e^{-iet}(e^{i top t}
    A_top - A_0), where top = inf has Si = pi/2 and no top endpoint."""
    def psi(w):
        return (f(w) - f_eps) / (w - eps)

    re0, im0 = _endpoint_sum(_endpoint(psi, 0.0, poles), t)
    if np.isinf(top):
        out = f_eps * (0.5 * np.pi + si_eps)
    else:
        re_top, im_top = _endpoint_sum(_endpoint(psi, top, poles), t)
        phase = (top - eps) * t
        out = (f_eps * (sici(phase)[0] + si_eps)
               + np.cos(phase) * im_top + np.sin(phase) * re_top)
    return out - (cos_eps * im0 - sin_eps * re0)


def rate_coefficients(baths, eps: float, t) -> list[tuple]:
    """(gamma, gamma_tilde, big_gamma) of each bath as arrays over the
    times t since switch-on (a scalar counts as one time);
    big_gamma = 2*gamma - gamma_tilde is the decay channel.  The baths
    share alpha and omega_c, hence gamma.

    Each bath's remainder runs the quadrature before its own switch time
    and the series from it on, whichever baths it is built with; baths
    whose early times coincide share one quadrature pass.  gamma, the
    remainder of a bath at beta = 0, switches no later than any other."""
    if len({(b.alpha, b.omega_c) for b in baths}) != 1:
        raise ValueError("the baths must share alpha and omega_c")
    if eps <= 0.0:
        raise ValueError(f"transition energy must be positive, got {eps}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("rates defined for t >= 0 only")
    si = sici(eps * ts)[0]
    flat = replace(baths[0], beta=0.0)
    late = ts >= _switch_time(flat)
    early = (ts > 0.0) & ~late
    # the carrier every series shares, at gamma's late times
    carrier = (ts[late], si[late], np.cos(eps * ts[late]),
               np.sin(eps * ts[late]))
    alpha, wc2 = flat.alpha, flat.omega_c ** 2
    g = np.zeros(ts.shape)
    g[early] = _gamma(flat, eps, ts[early], si[early])
    if late.any():
        g[late] = _series(partial(_spectrum, alpha, wc2),
                          _spectrum(alpha, wc2, eps), eps, np.inf,
                          _poles(flat), *carrier)

    held = [b for b in baths if b.beta != 0.0]
    cs = np.empty((len(held), ts.size))
    # the early times of two baths coincide when as many times precede
    # their switch times: the sets are nested
    passes: dict[int, list] = {}
    for i, b in enumerate(held):
        passes.setdefault(int(np.count_nonzero(ts < _switch_time(b))),
                          []).append(i)
    for n_early, rows in passes.items():
        if n_early:
            sel = ts < _switch_time(held[rows[0]])
            cs[np.ix_(rows, sel)] = _remainder(
                [held[i] for i in rows], eps, ts[sel], *_BASE_RESOLUTION,
                si_eps=si[sel])
    at = np.flatnonzero(late)
    for b, row in zip(held, cs):
        tail = carrier[0] >= _switch_time(b)
        if tail.any():
            beta = abs(b.beta)
            row[at[tail]] = _series(
                partial(_fermi_envelope, alpha, wc2, beta, b.mu),
                float(_envelope(alpha, wc2, beta, b.mu, eps)), eps,
                b.mu + _REACH / beta, _poles(b), *(x[tail] for x in carrier))
    held_iter = iter(cs)
    # the remainder; at beta = 0, nbar = 1/2: both channels run at gamma
    cs = [next(held_iter) if b.beta != 0.0 else g.copy() for b in baths]
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


def contact_rates(tables: list[RateTrajectory]) -> tuple:
    """(Lambda, gamma_tilde): evaluators of Lambda(t) = int_0^t 2 gamma and
    of every table's gamma_tilde, shape (tables, *t.shape), for tables that
    share their times and gamma."""
    table = tables[0]
    if not all(np.array_equal(r.times, table.times) and np.array_equal(
            r.gamma, table.gamma) for r in tables):
        raise ValueError("rate tables must share their times and gamma")
    return (CubicSpline(table.times, 2.0 * table.gamma).antiderivative(),
            CubicSpline(table.times,
                        np.stack([r.gamma_tilde for r in tables]), axis=1))


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
    its probe times `ts[b]`, one row per bath, against the finer,
    doubled-range quadrature, in one pass over every bath's probes; 0 at
    beta = 0, where both rates are the closed-form gamma."""
    ts = np.asarray(ts, float)
    if ts.ndim != 2 or len(ts) != len(baths):
        raise ValueError(f"probe times of shape {ts.shape} for "
                         f"{len(baths)} baths: need one row per bath")
    keep = [i for i, b in enumerate(baths) if b.beta != 0.0]
    fine = iter(_remainder([baths[i] for i in keep], eps, ts[keep],
                           *_FINE_RESOLUTION))
    return [float(np.max(np.abs(h - next(fine)))) if b.beta != 0.0 else 0.0
            for b, h in zip(baths, held)]


def build_rate_trajectories(baths, eps: float,
                            t_max: float) -> list[RateTrajectory]:
    """Rate tables on [0, t_max] at the resolution the dynamics needs, in
    input order.  Baths that share alpha and omega_c share one grid and
    one `rate_coefficients` call; every table size is checked before any
    table is built, and one check pass tests every table."""
    groups: dict[tuple, list[int]] = {}
    for i, b in enumerate(baths):
        groups.setdefault((b.alpha, b.omega_c), []).append(i)
    sizes = [rate_table_size(baths[idx[0]], eps, t_max)
             for idx in groups.values()]
    built = [None] * len(baths)   # (times, probe indices, rates) per bath
    for idx, n in zip(groups.values(), sizes):
        times = np.linspace(0.0, t_max, n)
        # the stored remainders at nine table times spread geometrically
        k = np.rint(np.geomspace(1, n - 1, 9)).astype(int)
        for i, r in zip(idx, rate_coefficients([baths[i] for i in idx],
                                               eps, times)):
            built[i] = (times, k, r)
    errors = quadrature_error_estimate(
        baths, eps, [times[k] for times, k, _ in built],
        [(bg if b.beta < 0.0 else gt)[k]
         for b, (_, k, (_, gt, bg)) in zip(baths, built)])
    tables = []
    for b, (times, _, (g, gt, bg)), quad_err in zip(baths, built, errors):
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
