"""Thermodynamic bookkeeping and reservoir-memory measures.

Work and heat are endpoint energy differences over one cycle: the two
driven strokes exchange only work, the truncated contact stroke only
heat.  The sign convention makes useful output negative, so the
efficiency carries a leading minus sign.  One closed form scores contact
endpoints given as excited population and coherence, with the one
operating rule: work out while heat above a floor of Q_HOT_FLOOR_SCALE
hot transition energies flows in.  Reservoir memory is scored by
integrating the negative excursions of the decay rates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import RateTrajectory
from .model import HotFrame

__all__ = [
    "Q_HOT_FLOOR_SCALE",
    "Energetics",
    "NonMarkovReport",
    "energetics",
    "nonmarkov_report",
    "overall_performance",
    "quantifier_Q",
    "witness_f",
]


# heat at or below this multiple of the hot transition energy counts as
# "no heat exchanged": eta is NaN there and the cycle is no engine
Q_HOT_FLOOR_SCALE = 1e-9


@dataclass(frozen=True)
class Energetics:
    """Energy ledger for one cycle, entries in rad/ms (hbar = 1).

    For an array of contact endpoints every entry but `w1` is an array
    over them.  `w` is the sum of the two driven-stroke
    contributions by construction, never stored separately.  `eta` is
    NaN when no heat above the floor was exchanged with the hot
    reservoir.  `valid_engine` is the operating test: net work
    extracted while heat above the floor flowed in.
    """

    w1: float
    w2: float | np.ndarray
    q_hot: float | np.ndarray
    eta: float | np.ndarray
    valid_engine: bool | np.ndarray

    @property
    def w(self):
        return self.w1 + self.w2


def energetics(frame: HotFrame, p, c) -> Energetics:
    """Score the cycles whose contact strokes end at excited population p
    and coherence c = <+|rho|-> in the hot eigenbasis, scalars or
    matching arrays, from the cycle's `frame`: the stroke starts at
    (frame.p0, frame.c0), and h_back = U h_cold U^dag, the cold
    Hamiltonian seen through the ramp's propagator U, enters through
    frame.back_flip and frame.back_coh.

    The contact stroke adds drho = dp flip + dc |+><-| + h.c. to the
    ramp's output state (dp = p - p0, dc = c - c0), so q_hot = eps dp and
    the cycle work is w = Tr(h_back drho) - q_hot, both exactly 0 at
    drho = 0.  Where |q_hot| does not clear Q_HOT_FLOOR_SCALE * eps, eta
    is NaN and the cycle is no engine.
    """
    eps = frame.eps
    dp = np.asarray(p) - frame.p0
    dc = np.asarray(c) - frame.c0
    q_hot = eps * dp
    w = dp * frame.back_flip + 2.0 * (dc * frame.back_coh).real - q_hot
    floor = Q_HOT_FLOOR_SCALE * eps
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(np.abs(q_hot) > floor, np.divide(-w, q_hot), np.nan)
    valid = (w < 0.0) & (q_hot > floor)
    if q_hot.ndim == 0:  # one endpoint: plain Python scalars
        q_hot, w, eta, valid = float(q_hot), float(w), float(eta), bool(valid)
    return Energetics(frame.w1, w - frame.w1, q_hot, eta, valid)


def witness_f(rates: RateTrajectory) -> np.ndarray:
    """Memory witness per sample: summed negative parts of the decay
    rates.

    The evolution has exactly two decay channels; the zero-frequency
    (dephasing) channel never develops a rate in this model and so
    cannot contribute.  The witness is nonnegative by construction and
    identically zero for a divisible evolution.
    """
    return (np.maximum(0.0, -rates.big_gamma)
            + np.maximum(0.0, -rates.gamma_tilde))


def _window_trapezoid(times, values, t0: float, t1: float) -> float:
    """Trapezoid integral of the samples over [t0, t1], which must lie
    inside the sampled grid (to 1e-12); it is not extrapolated.

    Interpolated edge nodes keep the integral exactly additive when a
    window is split at an interior point, and t0 = t1 gives exactly 0.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and samples must be matching 1-d arrays")
    if not t0 <= t1:
        raise ValueError("window must satisfy t0 <= t1")
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValueError("window extends beyond the sampled grid")
    i0 = int(np.searchsorted(times, t0, side="right"))
    i1 = int(np.searchsorted(times, t1, side="left"))
    v0 = float(np.interp(t0, times, values))
    v1 = float(np.interp(t1, times, values))
    ts = np.concatenate(([t0], times[i0:i1], [t1]))
    vs = np.concatenate(([v0], values[i0:i1], [v1]))
    return float(0.5 * np.sum((vs[1:] + vs[:-1]) * np.diff(ts)))


def quantifier_Q(times, f, t0: float, t1: float) -> float:
    """Integrated witness over [t0, t1], trapezoid rule on the sampled
    grid.  The window must lie inside the grid (to 1e-12); it is not
    extrapolated, and t0 = t1 gives exactly 0.
    """
    return _window_trapezoid(times, f, t0, t1)


@dataclass(frozen=True)
class NonMarkovReport:
    """Witness samples and their integral over a window.

    `q_total` is the raw trapezoid value of `f` (a rate integrated
    over time, dimensionless under the unit choice here); it vanishes
    exactly when the witness never fires on the grid.
    """

    times: np.ndarray
    f: np.ndarray
    q_total: float
    window: tuple

    def __post_init__(self):
        if np.any(self.f < 0.0):
            raise ValueError("witness samples must be nonnegative")
        if not self.q_total >= 0.0:
            raise ValueError("quantifier must be nonnegative")


def nonmarkov_report(rates: RateTrajectory, t0: float = 0.0,
                     t1: float | None = None) -> NonMarkovReport:
    """Witness and quantifier over [t0, t1] (full rate grid by default)."""
    if t1 is None:
        t1 = float(rates.times[-1])
    f = witness_f(rates)
    q = quantifier_Q(rates.times, f, t0, t1)
    return NonMarkovReport(times=rates.times, f=f, q_total=q,
                           window=(float(t0), float(t1)))


def overall_performance(times, eta_samples, t_f: float) -> float:
    """Time-averaged efficiency over [0, t_f].

    Samples where the efficiency is not finite contribute zero;
    finite negative samples are averaged as they are, no clipping.
    The window must lie inside the sampled times (to 1e-12); it is
    rejected rather than extrapolated, and t_f = 0 scores zero by
    convention.
    """
    if t_f < 0.0:
        raise ValueError("t_f must be nonnegative")
    eta = np.asarray(eta_samples, dtype=float)
    vals = np.where(np.isfinite(eta), eta, 0.0)
    area = _window_trapezoid(times, vals, 0.0, float(t_f))
    return area / float(t_f) if t_f > 0.0 else 0.0
