"""Acceptance gate: nine paper-resolution criteria, one test each.

Each test is one pass/fail line of the gate.  Everything runs at the
default (quarter-microsecond) scan resolution; the four full cutoff runs
and the four fixed-duration population sweeps are shared module fixtures
because they dominate the run time.  One more test checks the paper's
claim that memory widens the operating domain.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import conftest
import oracles
from qotto import bath, cycle, dynamics, matcore, measures, model
from qotto.matcore import dag

CUTOFFS = (5.0, 15.0, 25.0, 30.0)
P_GRID = [round(0.5 + 0.01 * k, 2) for k in range(50)]


@pytest.fixture(scope="module")
def full_results():
    """Default-resolution truncation scans for the four studied cutoffs."""
    out = {}
    for wc in CUTOFFS:
        out[wc] = cycle.run_cycle(cycle.build_config(omega_c=wc))
    return out


@pytest.fixture(scope="module")
def ift_rows():
    return cycle.ift_reference(cycle.build_config(), P_GRID)


@pytest.fixture(scope="module")
def ft_rows(full_results):
    """Fixed-duration population sweeps at each cutoff's own best duration."""
    out = {}
    for wc in CUTOFFS:
        cfg = cycle.build_config(omega_c=wc)
        out[wc] = cycle.sweep_population(
            cfg, P_GRID, full_results[wc].t_tilde_max)
    return out


def _q_total(omega_c: float) -> float:
    spec = bath.BathSpec(alpha=0.6, omega_c=omega_c,
                         beta=conftest.BETA_HOT, mu=0.0)
    rt = bath.build_rate_trajectory(spec, conftest.EPS_HOT, 10.0)
    return measures.nonmarkov_report(rt).q_total


def test_criterion_1_perfect_thermalization_efficiency(ift_rows):
    """Ideal-contact endpoint: eta(p = 0.99) = 0.649 within 0.005."""
    top = [r for r in ift_rows if r.p_plus_hot == 0.99]
    assert len(top) == 1
    assert top[0].valid_engine
    assert top[0].eta == pytest.approx(0.649, abs=0.005)


def test_criterion_2_ift_onset(ift_rows):
    """Engine operation on the ideal curve starts at p = 0.61 +- 0.02."""
    onset = cycle.population_onset(ift_rows)
    assert onset == pytest.approx(0.61, abs=0.02)


def test_criterion_3_saturation_efficiency(full_results):
    """Truncation scans saturate at 0.649 within 0.01 for every cutoff."""
    for wc in CUTOFFS:
        assert full_results[wc].eta_sat == pytest.approx(0.649, abs=0.01), wc


def test_criterion_4_peak_timing_calibration(full_results):
    """First peak in [265, 282] us; revival spacing = 2*pi/eps within 5%."""
    period = 2.0 * math.pi / conftest.EPS_HOT
    for wc in CUTOFFS:
        res = full_results[wc]
        assert len(res.peaks) >= 2, wc
        first_us = res.peaks[0][0] * 1e3
        assert 265.0 <= first_us <= 282.0, (wc, first_us)
        spacing = res.peaks[1][0] - res.peaks[0][0]
        assert spacing == pytest.approx(period, rel=0.05), wc


def test_criterion_5_peak_efficiencies_at_sharp_cutoff(full_results):
    """At the 30 kHz cutoff: eta_max = 0.712 +- 0.02, second peak 0.673."""
    res = full_results[30.0]
    assert res.eta_max == pytest.approx(0.712, abs=0.02)
    assert res.peaks[1][1] == pytest.approx(0.673, abs=0.02)


def test_criterion_6_cutoff_trends(full_results):
    """eta_max strictly falls and O_p strictly rises with the cutoff."""
    eta_max = [full_results[wc].eta_max for wc in CUTOFFS]
    o_p = [full_results[wc].o_p for wc in CUTOFFS]
    assert all(a > b for a, b in zip(eta_max, eta_max[1:])), eta_max
    assert all(a < b for a, b in zip(o_p, o_p[1:])), o_p


def test_criterion_7_memory_quantifier_structure():
    """Q = 0 at 25 kHz, Q > 0 at 15 kHz, zero-memory onset inside [15, 21]
    located by 1 kHz bisection, and Q peaks between 2 and 8 kHz."""
    assert _q_total(25.0) == 0.0
    assert _q_total(15.0) > 0.0
    lo, hi = 15, 21
    assert _q_total(float(lo)) > 0.0
    assert _q_total(float(hi)) == 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _q_total(float(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 15 <= hi <= 21
    q2, q4, q8 = _q_total(2.0), _q_total(4.0), _q_total(8.0)
    assert q4 > q2
    assert q4 > q8


def test_criterion_8_finite_time_beats_ideal_contact(ift_rows, ft_rows):
    """Truncated contact turns the engine on earlier than ideal contact and
    never yields less efficiency where both operate."""
    ift_onset = cycle.population_onset(ift_rows)
    ift_by_p = {r.p_plus_hot: r for r in ift_rows}
    for wc in (5.0, 15.0, 25.0):
        rows = ft_rows[wc]
        assert all(r.error == "" for r in rows)
        ft_onset = cycle.population_onset(rows)
        assert ft_onset < ift_onset, (wc, ft_onset, ift_onset)
        compared = 0
        for r in rows:
            ref = ift_by_p[r.p_plus_hot]
            if r.valid_engine and ref.valid_engine:
                assert r.eta >= ref.eta, (wc, r.p_plus_hot)
                compared += 1
        assert compared >= 30, wc


def test_operating_domain_grows_with_memory(ift_rows, ft_rows):
    """The necessarily transient engine operates over a larger population
    range than ideal contact, and the range grows with non-Markovianity:
    at each cutoff's own t_tilde_max the onset rises strictly from the
    most non-Markovian cutoff (5) to the sharpest (30), and every onset
    stays below the ideal-contact one."""
    assert all(r.error == "" for wc in CUTOFFS for r in ft_rows[wc])
    onsets = [cycle.population_onset(ft_rows[wc]) for wc in CUTOFFS]
    assert all(a < b for a, b in zip(onsets, onsets[1:])), onsets
    assert onsets[-1] < cycle.population_onset(ift_rows), onsets


def test_criterion_9_oracle_suite(full_results, system, hot_bath, rng):
    """Cross-implementation checks with pinned tolerances: propagator
    unitarity 1e-9, trace retention 1e-8, long-time rates within 1% of the
    golden-rule pair, dynamic detailed balance 1e-6, thermal-state
    equivalence 1e-10, quantifier additivity 1e-12."""
    u, _ = dynamics.propagate_unitary(system)
    assert np.max(np.abs(u @ dag(u) - oracles.IDENTITY)) < 1e-9

    assert full_results[30.0].diagnostics["max_trace_dev"] < 1e-8

    for wc in (15.0, 25.0, 30.0):
        spec = bath.BathSpec(alpha=0.6, omega_c=wc, beta=conftest.BETA_HOT)
        g, gt, _ = bath.rate_coefficients([spec], conftest.EPS_HOT, 1e3)[0]
        g_inf, gt_inf = oracles.markov_limits(spec, conftest.EPS_HOT)
        assert g == pytest.approx(g_inf, rel=1e-2)
        assert gt == pytest.approx(gt_inf, rel=1e-2)

    h_hot = model.hamiltonian_hot(system)
    g_inf, gt_inf = oracles.markov_limits(hot_bath, conftest.EPS_HOT)
    times = np.linspace(0.0, 3.0, 301)
    ones = np.ones(times.size)
    flat = bath.RateTrajectory(times, g_inf * ones, gt_inf * ones,
                               (2 * g_inf - gt_inf) * ones, 0.0, True)
    traj = dynamics.evolve_open(model.state_from_population(h_hot, 0.3),
                                h_hot, [flat], times)
    nbar = oracles.occupation(hot_bath, conftest.EPS_HOT)
    assert traj.p[0, -1] == pytest.approx(nbar, abs=1e-6)

    for h in (model.hamiltonian_cold(system), h_hot):
        for p in (0.261, 0.99):
            beta = model.beta_from_population(h, p)
            ref = scipy.linalg.expm(-beta * h)
            ref /= np.trace(ref).real
            assert np.max(np.abs(model.state_from_population(h, p).mat
                                 - ref)) < 1e-10

    spec5 = bath.BathSpec(alpha=0.6, omega_c=5.0, beta=conftest.BETA_HOT)
    rt5 = bath.build_rate_trajectory(spec5, conftest.EPS_HOT, 10.0)
    f5 = measures.witness_f(rt5)
    for _ in range(4):
        a_t, b_t = np.sort(rng.uniform(0.0, 10.0, size=2))
        c_t = rng.uniform(a_t, b_t)
        whole = measures.quantifier_Q(rt5.times, f5, a_t, b_t)
        parts = (measures.quantifier_Q(rt5.times, f5, a_t, c_t)
                 + measures.quantifier_Q(rt5.times, f5, c_t, b_t))
        assert parts == pytest.approx(whole, abs=1e-12)
