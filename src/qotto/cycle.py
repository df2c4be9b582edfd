"""Four-stroke engine orchestration.

One run drives the cold thermal input state through the frequency ramp,
evolves it in contact with the inverted-population reservoir while
sampling every truncation time on a grid, and closes the cycle at each
sample with the exact inverse ramp.  Efficiency versus truncation time
comes out of a single dissipative trajectory because the closing stroke
is unitary: it enters only through the cold Hamiltonian seen through the
ramp, so one `measures.energetics` call scores the stroke's populations
and coherences.

The stroke-independent pieces are set up once per run, sweep or
reference scan, as one `model.HotFrame` of scalars: the ramp unitary U
and the two eigenbases enter only through M = V_hot^dag U V_cold, the
ramp in the eigenbases of the two stroke Hamiltonians, and the input
state only through its cold populations.  The setup builds no density
matrix; each config diagonalises its two Hamiltonians once, in
`CycleConfig.spectra`, and nothing else does.  A population sweep
runs its points as one batch, point by point only if the batch fails;
rows come in input order, and a point that fails becomes a row carrying
the error instead of ending the sweep.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import ConfigError, require_finite
from .bath import (MAX_POINTS, BathSpec, build_rate_trajectories,
                   build_rate_trajectory, rate_table_size)
from .dynamics import DEFAULT_N_STEPS, evolve_open, propagate_unitary
from .measures import (NonMarkovReport, energetics, nonmarkov_report,
                       overall_performance)
from .model import (SIGMA_X, HotFrame, SystemParams, beta_from_population,
                    hamiltonian_cold, hamiltonian_hot, transition_energy)

__all__ = [
    "CycleConfig",
    "CycleResult",
    "PopulationRow",
    "SweepRow",
    "build_config",
    "ift_reference",
    "population_onset",
    "run_cycle",
    "sweep_cutoff",
    "sweep_population",
]

# half-depth defining the reported window around the efficiency maximum
PEAK_BAND = 5e-4

# trailing average window for the saturation value, ms
SAT_WINDOW = 1.0

# |eta - eta_sat| threshold for the equilibration-time estimate
EQ_TOL = 1e-3

# extra rate-table coverage past the last evolution time, ms
_TABLE_MARGIN = 0.05

# largest |Tr rho0 - 1| accepted of the ramp's output state
_TRACE_TOL = 1e-10

# largest ramp_error the setup accepts before it doubles the step count
RAMP_TOL = 1e-10


@dataclass(frozen=True)
class CycleConfig:
    """Everything one engine run needs; every field carries its default,
    so `CycleConfig()` is the studied system and `dataclasses.replace`
    works for every key.

    The drive (`nu_cold`, `nu_hot`, `tau`, `g`) is stored flat; `system`
    bundles it on access.  Both reservoirs share one spectrum (`alpha`,
    `omega_c`, `mu`); each one's inverse temperature is derived, never
    stored: `hot_bath` and `cold_bath` are built on demand at the beta
    whose Gibbs state at the hot or cold stroke's gap has excited weight
    `p_plus_hot` or `p_plus_cold`, the gaps read from `spectra`, which is
    cached per config.  `cold_bath` never enters the first-cycle
    efficiency; the CLI headers report its beta.

    The contact-stroke grid is dense (spacing `heat_dt`) up to
    `heat_t_dense` and sparse (spacing `tail_dt`) out to `heat_t_max`;
    the dense part resolves the efficiency oscillations, the tail pins
    the saturation value.  Each spacing must divide its span to 1e-9
    relative, so the grid is exactly the configured one.  The setup picks
    the ramp's step count from the ramp's error estimate.
    """

    nu_cold: float = 2.0
    nu_hot: float = 3.6
    tau: float = 0.1
    g: float = 0.2
    p_plus_cold: float = 0.261
    p_plus_hot: float = 0.99
    alpha: float = 0.6
    omega_c: float = 30.0
    mu: float = 0.0
    heat_dt: float = 0.25e-3
    heat_t_dense: float = 1.0
    tail_dt: float = 0.01
    heat_t_max: float = 10.0
    t_f: float = 1.0

    def __post_init__(self):
        _check_config(self)

    @property
    def system(self) -> SystemParams:
        return SystemParams(nu_cold=self.nu_cold, nu_hot=self.nu_hot,
                            tau=self.tau, g=self.g)

    def _reservoir(self, gap: float, p_plus: float) -> BathSpec:
        return BathSpec(alpha=self.alpha, omega_c=self.omega_c,
                        beta=beta_from_population(gap, p_plus), mu=self.mu)

    @cached_property
    def spectra(self) -> tuple[tuple, tuple]:
        """`transition_energy` of the cold and of the hot Hamiltonian."""
        return tuple(transition_energy(h(self.system))
                     for h in (hamiltonian_cold, hamiltonian_hot))

    @property
    def hot_bath(self) -> BathSpec:
        return self._reservoir(self.spectra[1][0], self.p_plus_hot)

    @property
    def cold_bath(self) -> BathSpec:
        return self._reservoir(self.spectra[0][0], self.p_plus_cold)

    def heating_grid(self) -> np.ndarray:
        n_dense = int(round(self.heat_t_dense / self.heat_dt))
        dense = np.linspace(0.0, self.heat_t_dense, n_dense + 1)
        n_tail = int(round((self.heat_t_max - self.heat_t_dense) / self.tail_dt))
        tail = np.linspace(self.heat_t_dense, self.heat_t_max, n_tail + 1)[1:]
        return np.concatenate([dense, tail])


def _check_config(cfg: CycleConfig) -> None:
    """Every rule a config must meet, checked once per construction."""
    require_finite(cfg)
    if not 0.0 < cfg.p_plus_cold < 0.5:
        raise ConfigError("p_plus_cold must lie in (0, 0.5): the cold "
                          "stage is a positive-temperature reservoir")
    _check_p_plus_hot(cfg.p_plus_hot)
    # building both reservoirs checks drive, spectrum and temperatures
    cfg.hot_bath, cfg.cold_bath
    if not (cfg.heat_dt > 0.0 and cfg.tail_dt > 0.0):
        raise ConfigError("heat_dt and tail_dt must be positive")
    if not 0.0 < cfg.heat_t_dense <= cfg.heat_t_max:
        raise ConfigError("need 0 < heat_t_dense <= heat_t_max")
    # a spacing that does not divide its span would be silently
    # stretched or squeezed by heating_grid
    samples = 1.0
    for name, step, span in (
            ("heat_dt", cfg.heat_dt, cfg.heat_t_dense),
            ("tail_dt", cfg.tail_dt, cfg.heat_t_max - cfg.heat_t_dense)):
        steps = np.round(span / step)
        if not abs(steps * step - span) <= 1e-9 * span:
            raise ConfigError(f"{name} = {step:.9g} does not divide "
                              f"its span {span:.9g} ms")
        samples += steps
    if samples > MAX_POINTS:
        raise ConfigError(f"heat_dt and tail_dt give {samples:.9g} "
                          f"heating samples, more than {MAX_POINTS}")
    if not 0.0 < cfg.t_f <= cfg.heat_t_max:
        raise ConfigError("t_f must lie in (0, heat_t_max]")


def _check_p_plus_hot(p: float) -> None:
    """The hot target population rule, for a config and a sweep point."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"p_plus_hot must lie in (0, 1), got {p}")


# another name for the constructor: it takes the same keywords
build_config = CycleConfig


@dataclass(frozen=True)
class CycleResult:
    """Sampled energetics plus the derived summary numbers.

    `eta` is NaN wherever the heat floor applies; `valid` marks the
    operating samples.  `peaks` holds the refined local efficiency
    maxima (time, value) in time order over operating samples; `window`
    brackets the global maximum at depth PEAK_BAND.  On `no_engine` runs
    every summary scalar is NaN and `peaks` is empty.
    """

    config: CycleConfig
    w1: float
    times: np.ndarray
    w2: np.ndarray
    q_hot: np.ndarray
    eta: np.ndarray
    valid: np.ndarray
    eta_max: float
    t_tilde_max: float
    window: tuple
    peaks: tuple
    eta_sat: float
    t_eq: float
    o_p: float
    nonmarkov: NonMarkovReport
    eta_ift: float
    no_engine: bool
    diagnostics: dict = field(repr=False)


def _refine_peak(times: np.ndarray, eta: np.ndarray, k: int) -> tuple[float, float]:
    """Quadratic vertex through the three samples bracketing index k."""
    t0, t1, t2 = times[k - 1:k + 2]
    y0, y1, y2 = eta[k - 1:k + 2]
    if not (np.isfinite(y0) and np.isfinite(y2)):
        return float(times[k]), float(eta[k])
    den = (y0 * (t1 - t2) + y1 * (t2 - t0) + y2 * (t0 - t1))
    if den <= 0.0:
        # flat or concave-up triple: keep the grid sample
        return float(times[k]), float(eta[k])
    ts = (y0 * (t1 * t1 - t2 * t2) + y1 * (t2 * t2 - t0 * t0)
          + y2 * (t0 * t0 - t1 * t1)) / (2.0 * den)
    ts = min(max(ts, t0), t2)
    # Lagrange evaluation at the vertex
    ys = (y0 * (ts - t1) * (ts - t2) / ((t0 - t1) * (t0 - t2))
          + y1 * (ts - t0) * (ts - t2) / ((t1 - t0) * (t1 - t2))
          + y2 * (ts - t0) * (ts - t1) / ((t2 - t0) * (t2 - t1)))
    return float(ts), float(ys)


def _band_edges(times: np.ndarray, eta: np.ndarray, k: int,
                threshold: float) -> tuple[float, float]:
    """Connected interval around sample k where eta stays >= threshold,
    edges placed by linear interpolation to the crossing."""
    n = times.size
    lo = k
    while lo > 0 and np.isfinite(eta[lo - 1]) and eta[lo - 1] >= threshold:
        lo -= 1
    hi = k
    while hi < n - 1 and np.isfinite(eta[hi + 1]) and eta[hi + 1] >= threshold:
        hi += 1
    if lo > 0 and np.isfinite(eta[lo - 1]):
        frac = (threshold - eta[lo - 1]) / (eta[lo] - eta[lo - 1])
        t_lo = times[lo - 1] + frac * (times[lo] - times[lo - 1])
    else:
        t_lo = times[lo]
    if hi < n - 1 and np.isfinite(eta[hi + 1]):
        frac = (eta[hi] - threshold) / (eta[hi] - eta[hi + 1])
        t_hi = times[hi] + frac * (times[hi + 1] - times[hi])
    else:
        t_hi = times[hi]
    return float(t_lo), float(t_hi)


def _ramp(sp: SystemParams) -> tuple[np.ndarray, float]:
    """The ramp unitary and its error estimate at DEFAULT_N_STEPS steps,
    the step count doubled while the estimate exceeds RAMP_TOL and the
    doubled count stays within MAX_POINTS, with a warning if it must stop
    above RAMP_TOL."""
    n = DEFAULT_N_STEPS
    u, ramp_error = propagate_unitary(sp, n)
    while ramp_error > RAMP_TOL and 2 * n <= MAX_POINTS:
        n *= 2
        u, ramp_error = propagate_unitary(sp, n)
    if ramp_error > RAMP_TOL:
        warnings.warn(f"ramp error estimate {ramp_error:.2e} exceeds "
                      f"tolerance {RAMP_TOL:.1e} at {n} steps",
                      RuntimeWarning, stacklevel=2)
    return u, ramp_error


def _setup(cfg: CycleConfig) -> HotFrame:
    """Every stroke-independent scalar of one cycle, from the ramp in the
    two eigenbases, M = V_hot^dag U V_cold (columns and rows lower level
    first), and the cold input populations d = (1 - p_c, p_c), with the
    eigenbases from `cfg.spectra` and U from `_ramp`.

    The ramp's output state has p0 = sum_j d_j |M_+j|^2 and
    c0 = sum_j d_j M_+j conj(M_-j); h_back in the hot eigenbasis is
    M diag(-eps_c/2, eps_c/2) M^dag.  Its trace deviation
    |sum_j d_j |M_.j|^2 - 1| above _TRACE_TOL raises ValueError; a NaN
    fails the same check.  The state M diag(d) M^dag is positive
    semidefinite for every valid p_c, so its smallest eigenvalue is only
    reported, as the t = 0 sample of the contact stroke's `min_eig`.
    """
    (eps_cold, *cold), (eps, hot_minus, hot_plus) = cfg.spectra
    u, ramp_error = _ramp(cfg.system)
    m = np.conj([hot_minus, hot_plus]) @ u @ np.column_stack(cold)
    d = np.array([1.0 - cfg.p_plus_cold, cfg.p_plus_cold])
    trace_dev = abs(float(np.sum(np.abs(m) ** 2 @ d)) - 1.0)
    if not trace_dev <= _TRACE_TOL:
        raise ValueError(
            f"ramp output trace deviates from 1 by {trace_dev:.3e}")
    p0 = float(np.abs(m[1]) ** 2 @ d)
    c0 = complex(m[1] * m[0].conj() @ d)
    h_back = (m * [-0.5 * eps_cold, 0.5 * eps_cold]) @ m.conj().T
    return HotFrame(
        eps=eps, k=abs(np.vdot(hot_minus, SIGMA_X @ hot_plus)) ** 2,
        p0=p0, c0=c0, back_flip=float((h_back[1, 1] - h_back[0, 0]).real),
        back_coh=complex(h_back[0, 1]),
        w1=eps * (p0 - 0.5) - eps_cold * (cfg.p_plus_cold - 0.5),
        xi=_crossing_probability(m), trace_dev=trace_dev,
        ramp_error=ramp_error)


def _crossing_probability(m: np.ndarray) -> float:
    """Probability |M_+-|^2 that the ramp M, written in the two
    eigenbases, crosses between eigenstate branches (zero for a perfectly
    adiabatic ramp); |M_-+|^2 equals it by unitarity and is checked
    against it."""
    xi_a, xi_b = abs(m[1, 0]) ** 2, abs(m[0, 1]) ** 2
    if abs(xi_a - xi_b) > 1e-9:
        raise RuntimeError(
            f"branch-crossing probabilities disagree: {xi_a} vs {xi_b}")
    return float(xi_a)


def run_cycle(cfg: CycleConfig) -> CycleResult:
    """Run one engine cycle over every truncation time on the grid."""
    return _cycle(cfg, _setup(cfg), cfg.hot_bath)


def _cycle(cfg: CycleConfig, su: HotFrame, hot: BathSpec) -> CycleResult:
    """One cycle of cfg with the heating stroke in contact with hot; the
    result's `config` stays cfg, also where hot's cutoff differs."""
    grid = cfg.heating_grid()
    rates = build_rate_trajectory(hot, su.eps, grid[-1] + _TABLE_MARGIN)
    contact = evolve_open(su, [rates], grid)
    p = contact.p[0]

    en = energetics(su, p, contact.c)
    eta, valid = en.eta, en.valid_engine
    no_engine = not bool(valid.any())

    tail = eta[grid >= grid[-1] - SAT_WINDOW + 1e-12]
    tail = tail[np.isfinite(tail)]
    eta_sat = float(tail.mean()) if tail.size else float("nan")

    peaks: list[tuple[float, float]] = []
    eta_max = t_tilde_max = float("nan")
    window = (float("nan"), float("nan"))
    if not no_engine:
        score = np.where(valid & (eta < 1.0), eta, -np.inf)
        fin = np.isfinite(score)
        is_pk = np.zeros(grid.size, dtype=bool)
        # both neighbors must be operating samples too, else a curve
        # entering the operating region reports its first sample as a peak
        is_pk[1:-1] = (fin[1:-1] & fin[:-2] & fin[2:]
                       & (score[1:-1] > score[:-2])
                       & (score[1:-1] >= score[2:]))
        for k in np.nonzero(is_pk)[0]:
            peaks.append(_refine_peak(grid, eta, int(k)))
        k_max = int(np.argmax(score))
        if np.isfinite(score[k_max]):
            # refinement can only raise the grid maximum, never lose it
            t_tilde_max, eta_max = float(grid[k_max]), float(eta[k_max])
            for t_p, v_p in peaks:
                if v_p > eta_max:
                    t_tilde_max, eta_max = t_p, v_p
            window = _band_edges(grid, eta, k_max, eta_max - PEAK_BAND)

    dev_ok = np.isfinite(eta) & (np.abs(eta - eta_sat) < EQ_TOL)
    bad = np.nonzero(~dev_ok)[0]
    if bad.size == 0:
        t_eq = float(grid[0])
    elif bad[-1] + 1 < grid.size:
        t_eq = float(grid[bad[-1] + 1])
    else:
        t_eq = float("nan")

    o_p = overall_performance(grid, eta, cfg.t_f)
    nm = nonmarkov_report(rates, 0.0, cfg.heat_t_max)

    # perfect thermalization ends at the target population, no coherence
    ideal = energetics(su, cfg.p_plus_hot, 0.0)

    diagnostics = {
        "quad_error": float(rates.quad_error),
        "weak_coupling_ok": bool(rates.weak_coupling_ok),
        "max_trace_dev": su.trace_dev,
        "min_eig": float(np.min(contact.min_eig)),
        "xi": su.xi,
        "ramp_error": su.ramp_error,
        "eps_hot": su.eps,
        "final_population_gap": float(abs(p[-1] - cfg.p_plus_hot)),
    }
    return CycleResult(config=cfg, w1=en.w1, times=grid,
                       w2=en.w2, q_hot=en.q_hot, eta=eta, valid=valid,
                       eta_max=eta_max, t_tilde_max=t_tilde_max,
                       window=window, peaks=tuple(peaks),
                       eta_sat=eta_sat, t_eq=t_eq, o_p=float(o_p),
                       nonmarkov=nm, eta_ift=float(ideal.eta),
                       no_engine=no_engine, diagnostics=diagnostics)


@dataclass(frozen=True)
class SweepRow:
    omega_c: float
    eta_max: float
    t_tilde_max: float
    o_p: float
    q_nonmarkov: float
    eta_sat: float
    no_engine: bool
    error: str = ""


def _cutoff_point(cfg: CycleConfig, su: HotFrame,
                  omega_c: float) -> SweepRow:
    try:
        # only the reservoir moves: no config, so no diagonalisation
        res = _cycle(cfg, su, replace(cfg.hot_bath, omega_c=omega_c))
        return SweepRow(omega_c=omega_c, eta_max=res.eta_max,
                        t_tilde_max=res.t_tilde_max, o_p=res.o_p,
                        q_nonmarkov=res.nonmarkov.q_total,
                        eta_sat=res.eta_sat, no_engine=res.no_engine)
    except Exception as exc:  # a failed point must not kill the sweep
        nan = float("nan")
        return SweepRow(omega_c=omega_c, eta_max=nan, t_tilde_max=nan,
                        o_p=nan, q_nonmarkov=nan, eta_sat=nan,
                        no_engine=True,
                        error=f"{type(exc).__name__}: {exc}")


def sweep_cutoff(cfg: CycleConfig, omega_c_list) -> list[SweepRow]:
    """One full run per reservoir cutoff, rows in input order; the ramp
    does not depend on the cutoff, so all runs share one setup."""
    points = [float(w) for w in omega_c_list]
    if not points:
        raise ConfigError("cutoff list must not be empty")
    su = _setup(cfg)
    return [_cutoff_point(cfg, su, w) for w in points]


@dataclass(frozen=True)
class PopulationRow:
    p_plus_hot: float
    eta: float
    valid_engine: bool
    w: float
    q_hot: float
    error: str = ""


def _checked_populations(cfg: CycleConfig, p_hot_grid) -> list[float]:
    points = [float(p) for p in p_hot_grid]
    if not points:
        raise ConfigError("population grid must not be empty")
    for p in points:  # each target must pass the config's own rule
        _check_p_plus_hot(p)
    return points


def sweep_population(cfg: CycleConfig, p_hot_grid,
                     t_tilde: float) -> list[PopulationRow]:
    """Truncated-contact efficiency at fixed stroke duration t_tilde,
    one row per target population, rows in input order."""
    points = _checked_populations(cfg, p_hot_grid)
    if not 0.0 < t_tilde <= cfg.heat_t_max:
        raise ConfigError("t_tilde must lie in (0, heat_t_max] ms")
    su = _setup(cfg)
    # one size for every point: the table spacing ignores the population
    rate_table_size(cfg.hot_bath, su.eps, t_tilde + _TABLE_MARGIN)

    def rows(ps: list[float]) -> list[PopulationRow]:
        try:
            # each target population sets its own reservoir temperature
            tables = build_rate_trajectories(
                [cfg._reservoir(su.eps, p) for p in ps], su.eps,
                t_tilde + _TABLE_MARGIN)
            # the exact stroke needs only its end, and all tables share
            # gamma, so they share the coherence too
            ends = evolve_open(su, tables, np.array([0.0, t_tilde]))
            return _scored(su, ps, ends.p[:, -1], ends.c[-1])
        except Exception as exc:  # a failed point must not kill the sweep
            if len(ps) > 1:   # point by point, so only failed points fail
                return [row for p in ps for row in rows([p])]
            nan = float("nan")
            return [PopulationRow(ps[0], nan, False, nan, nan,
                                  f"{type(exc).__name__}: {exc}")]

    return rows(points)


def ift_reference(cfg: CycleConfig, p_hot_grid) -> list[PopulationRow]:
    """Perfect-thermalization reference: the contact stroke is replaced
    by its infinite-time endpoint, no reservoir dynamics involved."""
    points = _checked_populations(cfg, p_hot_grid)
    # each stroke ends at its target population, with no coherence
    return _scored(_setup(cfg), points, points, 0.0)


def _scored(su: HotFrame, points, p, c) -> list[PopulationRow]:
    """One row per population, from the (p, c) its contact stroke ends at."""
    en = energetics(su, p, c)
    return [PopulationRow(*x) for x in zip(
        points, en.eta.tolist(), en.valid_engine.tolist(), en.w.tolist(),
        en.q_hot.tolist())]


def population_onset(rows) -> float:
    """Smallest scanned population with engine operation, NaN if none."""
    for row in sorted(rows, key=lambda r: r.p_plus_hot):
        if row.valid_engine:
            return row.p_plus_hot
    return float("nan")
