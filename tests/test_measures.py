"""Energy bookkeeping, memory witness, and the time-integrated quantifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import conftest
import oracles
from qotto import bath, cycle, dynamics, matcore, measures, model
from qotto.bath import RateTrajectory
from qotto.matcore import dag
from qotto.measures import (Energetics, NonMarkovReport, energetics,
                            nonmarkov_report, overall_performance,
                            quantifier_Q, witness_f)


def make_table(gamma, gamma_tilde):
    """Constant-rate table consistent with the fermionic channel rule."""
    times = np.linspace(0.0, 2.0, 21)
    g = np.full(times.size, gamma)
    gt = np.full(times.size, gamma_tilde)
    return RateTrajectory(times, g, gt, 2 * g - gt, 0.0, True)


def test_witness_positive_rates_are_markovian():
    rt = make_table(0.35, 0.2)     # big_gamma = 0.5
    assert_allclose(witness_f(rt), 0.0, atol=0)


def test_witness_counts_negative_channel():
    rt = make_table(0.1, 0.5)      # big_gamma = -0.3
    assert_allclose(witness_f(rt), 0.3, atol=1e-15)


def test_witness_zero_at_sharp_cutoff(rate_table):
    assert np.max(witness_f(rate_table(25.0))) == 0.0


def test_witness_shift_invariance():
    # raising both rates while they stay positive cannot create memory
    for lift in (0.1, 1.0):
        rt = make_table(0.35 + lift, 0.2 + lift)
        assert np.max(witness_f(rt)) == 0.0


def test_quantifier_trivial_windows():
    rt = make_table(0.35, 0.2)
    f = witness_f(rt)
    assert quantifier_Q(rt.times, f, 0.0, 2.0) == 0.0
    const = np.full(rt.times.size, 0.7)
    assert quantifier_Q(rt.times, const, 0.0, 2.0) == pytest.approx(1.4,
                                                                    rel=1e-14)
    assert quantifier_Q(rt.times, const, 0.0, 0.0) == 0.0


def test_quantifier_additivity(rate_table, rng):
    rt = rate_table(5.0)
    f = witness_f(rt)
    for _ in range(6):
        a, b = np.sort(rng.uniform(0.0, 10.0, size=2))
        c = rng.uniform(a, b)
        total = quantifier_Q(rt.times, f, a, b)
        split = (quantifier_Q(rt.times, f, a, c)
                 + quantifier_Q(rt.times, f, c, b))
        assert split == pytest.approx(total, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
       values=st.lists(st.floats(0.0, 10.0), min_size=31, max_size=31),
       cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
       on_node=st.booleans())
def test_quantifier_additive_over_random_splits(steps, values, cuts,
                                                on_node):
    """Q over a window equals the sum of Q over any partition of it, with
    cut points between grid nodes or on them."""
    times = np.concatenate(([0.0], np.cumsum(steps)))
    f = np.asarray(values[:times.size])
    points = np.sort(np.asarray(cuts)) * times[-1]
    if on_node:
        points = times[np.searchsorted(times, points).clip(0, times.size - 1)]
    total = quantifier_Q(times, f, points[0], points[-1])
    pieces = sum(quantifier_Q(times, f, a, b)
                 for a, b in zip(points[:-1], points[1:]))
    assert pieces == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_quantifier_window_validation():
    rt = make_table(0.35, 0.2)
    f = witness_f(rt)
    with pytest.raises(ValueError):
        quantifier_Q(rt.times, f, -0.1, 1.0)
    with pytest.raises(ValueError):
        quantifier_Q(rt.times, f, 0.0, 2.5)
    with pytest.raises(ValueError):
        quantifier_Q(rt.times, f, 1.0, 0.5)


def test_quantifier_separates_cutoffs(rate_table):
    """Sharp cutoff: no memory.  Soft cutoff: strictly positive measure."""
    rt25, rt15 = rate_table(25.0), rate_table(15.0)
    assert quantifier_Q(rt25.times, witness_f(rt25), 0.0, 10.0) == 0.0
    assert quantifier_Q(rt15.times, witness_f(rt15), 0.0, 10.0) > 0.0


def test_nonmarkov_report_consistency(rate_table):
    rt = rate_table(15.0)
    rep = nonmarkov_report(rt)
    assert_allclose(rep.f, witness_f(rt), atol=0)
    assert rep.q_total == pytest.approx(
        quantifier_Q(rt.times, rep.f, 0.0, rt.times[-1]), abs=0)
    assert rep.window == (0.0, rt.times[-1])


def test_nonmarkov_report_rejects_negative_data(rate_table):
    rt = rate_table(25.0)
    rep = nonmarkov_report(rt)
    bad = rep.f.copy()
    bad[3] = -1e-3
    with pytest.raises(ValueError):
        NonMarkovReport(rep.times, bad, rep.q_total, rep.window)


def contact_args(system, n_steps=dynamics.DEFAULT_N_STEPS, p_cold=0.261):
    """The stroke-independent arguments (rho_exp, h_hot, h_back) of
    `energetics`, the expansion output's (p0, c0) in the h_hot eigenbasis,
    and the hot gap."""
    h_cold = model.hamiltonian_cold(system)
    h_hot = model.hamiltonian_hot(system)
    u, _ = dynamics.propagate_unitary(system, n_steps)
    rho_in = model.state_from_population(h_cold, p_cold).mat
    rho_exp = u @ rho_in @ dag(u)
    eps, v_minus, v_plus = model.transition_energy(h_hot)
    p0 = np.vdot(v_plus, rho_exp @ v_plus).real
    c0 = np.vdot(v_plus, rho_exp @ v_minus)
    return (rho_exp, h_hot, u @ h_cold @ dag(u)), p0, c0, eps


def contact_state(h_hot, p, c):
    """The state with excited population p and coherence c = <+|rho|->."""
    _, v_minus, v_plus = model.transition_energy(h_hot)
    up = np.outer(v_plus, v_minus.conj())
    return (p * np.outer(v_plus, v_plus.conj())
            + (1 - p) * np.outer(v_minus, v_minus.conj())
            + c * up + np.conj(c) * dag(up))


def test_energetics_identity_heating_is_not_an_engine(system):
    # no heating stroke at all: the expansion state is fed straight to
    # the compression
    args, p0, c0, _ = contact_args(system)
    out = energetics(*args, p0, c0)
    assert out.q_hot == 0.0
    assert math.isnan(out.eta)
    assert not out.valid_engine
    assert out.w == pytest.approx(0.0, abs=1e-12)


def test_energetics_heat_floor_decides_operation(system):
    """Heat below the floor is no heat: no efficiency, no engine."""
    floor = measures.Q_HOT_FLOOR_SCALE * conftest.EPS_HOT
    args, p0, c0, eps = contact_args(system)
    # the contact stroke adds exactly heat q: population p0 + q/eps
    below = energetics(*args, p0 + 1e-12 / eps, c0)
    assert 0.0 < below.q_hot < floor
    assert below.w < 0.0
    assert math.isnan(below.eta)
    assert not below.valid_engine
    above = energetics(*args, p0 + 1e-6 / eps, c0)
    assert above.q_hot > floor
    assert above.valid_engine
    # with the exact zero-heat baseline eta does not depend on q
    assert above.eta == pytest.approx(
        energetics(*args, p0 + 1e-3 / eps, c0).eta, abs=1e-12)
    # Magnus ramps of 250 to 4,000 steps spread it by 6.7e-12
    assert above.eta == pytest.approx(0.8948300202862, abs=1e-11)


def test_energetics_stacked_rows_match_scalar_calls(system):
    args, p0, c0, eps = contact_args(system)
    p = np.array([0.3, 0.65, 0.99, p0, p0 + 1e-12 / eps, p0 + 1e-6 / eps])
    c = np.array([0.0, 0.0, 0.0, c0, c0, c0])
    stacked = energetics(*args, p, c)
    assert stacked.eta.shape == stacked.valid_engine.shape == (p.size,)
    for k in range(p.size):
        one = energetics(*args, p[k], c[k])
        assert stacked.w1 == one.w1
        assert stacked.w2[k] == pytest.approx(one.w2, abs=1e-14)
        assert stacked.q_hot[k] == pytest.approx(one.q_hot, abs=1e-14)
        assert bool(stacked.valid_engine[k]) == one.valid_engine
        if math.isnan(one.eta):
            assert math.isnan(stacked.eta[k])
        else:
            assert stacked.eta[k] == pytest.approx(one.eta, rel=1e-12)
    assert stacked.q_hot[3] == 0.0
    assert [bool(v) for v in stacked.valid_engine] == [False, True, True,
                                                        False, False, True]


def test_energetics_matches_four_state_oracle(system, rng):
    """The closed form on (p, c) against trace differences over the four
    corner states, the contact endpoint driven back by hand: thermal,
    heat-shifted and random coherent endpoints."""
    args, p0, c0, eps = contact_args(system)
    rho_exp, h_hot, _ = args
    h_cold = model.hamiltonian_cold(system)
    rho_in = model.state_from_population(h_cold, 0.261).mat
    u, _ = dynamics.propagate_unitary(system)
    radius = rng.uniform(0.0, 0.5, 8)
    ends = ([(p, 0.0) for p in (0.261, 0.5, 0.75, 0.99)]
            + [(p0 + q / eps, c0) for q in (0.0, 1e-12, 1e-6, 1e-2)]
            + list(zip(rng.uniform(0.0, 1.0, 8), radius * np.exp(
                2j * np.pi * rng.uniform(size=8)))))
    p = np.array([e[0] for e in ends])
    c = np.array([e[1] for e in ends], dtype=complex)
    mine = energetics(*args, p, c)
    heat = np.stack([contact_state(h_hot, *e) for e in ends])
    ref = oracles.cycle_energetics(rho_in, rho_exp, heat,
                                   dag(u) @ heat @ u, h_cold, h_hot)
    assert mine.w1 == pytest.approx(ref.w1, abs=1e-12)
    assert_allclose(mine.w2, ref.w2, rtol=0, atol=1e-12)
    assert_allclose(mine.q_hot, ref.q_hot, rtol=0, atol=1e-12)


def test_energetics_perfect_thermalization(system):
    args, _, _, _ = contact_args(system)
    out = energetics(*args, 0.99, 0.0)
    assert out.valid_engine
    assert out.w == pytest.approx(out.w1 + out.w2, abs=0)
    assert out.eta == pytest.approx(0.649, abs=0.005)
    assert out.eta == pytest.approx(0.6498388205658117, abs=1e-9)


def test_energetics_population_closed_form(system):
    """The closed form against level-occupation arithmetic.

    With diagonal endpoint states every energy reduces to eps*(p - 1/2),
    and the ramp only mixes branches with the crossing probability, so the
    whole efficiency follows from populations and the adiabaticity alone.
    """
    p_c, p_h = 0.261, 0.99
    xi = oracles.adiabaticity(system)
    e_c, e_h = conftest.EPS_COLD, conftest.EPS_HOT
    p_after_exp = p_c * (1 - xi) + (1 - p_c) * xi
    p_after_cmp = p_h * (1 - xi) + (1 - p_h) * xi
    w1 = e_h * (p_after_exp - 0.5) - e_c * (p_c - 0.5)
    q_hot = e_h * (p_h - p_after_exp)
    w2 = e_c * (p_after_cmp - 0.5) - e_h * (p_h - 0.5)
    args, _, _, _ = contact_args(system, p_cold=p_c)
    out = energetics(*args, p_h, 0.0)
    assert out.w1 == pytest.approx(w1, abs=1e-9)
    assert out.w2 == pytest.approx(w2, abs=1e-9)
    assert out.q_hot == pytest.approx(q_hot, abs=1e-9)
    assert out.eta == pytest.approx(-(w1 + w2) / q_hot, abs=1e-9)


def test_energetics_linearity(system, rng):
    """Every energy term is linear in the expansion output and the
    contact endpoint (p, c) taken together."""
    args_a, _, _, _ = contact_args(system)
    args_b, _, _, _ = contact_args(system, p_cold=0.35)
    end_a, end_b = (0.99, 0.0), (0.9, 0.1 - 0.05j)
    lam = rng.uniform(0.1, 0.9)

    def mix(a, b):
        return lam * a + (1 - lam) * b

    out_mix = energetics(mix(args_a[0], args_b[0]), *args_a[1:],
                         *(mix(a, b) for a, b in zip(end_a, end_b)))
    out_a = energetics(*args_a, *end_a)
    out_b = energetics(*args_b, *end_b)
    for field in ("w1", "w2", "q_hot"):
        left = getattr(out_mix, field)
        right = (lam * getattr(out_a, field)
                 + (1 - lam) * getattr(out_b, field))
        assert left == pytest.approx(right, abs=1e-12)


def test_first_law_telescopes_through_cooling(system, cold_bath):
    """Stroke energies and the two heats add up to the total energy change."""
    h_cold = model.hamiltonian_cold(system)
    h_hot = model.hamiltonian_hot(system)
    u, _ = dynamics.propagate_unitary(system)
    rho_in = model.state_from_population(h_cold, 0.261)
    rho_exp = matcore.DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))

    hot = bath.BathSpec(alpha=0.6, omega_c=30.0, beta=conftest.BETA_HOT)
    rt = bath.build_rate_trajectory(hot, conftest.EPS_HOT, 0.3)
    heat = dynamics.evolve_open(rho_exp, h_hot, [rt],
                                np.linspace(0.0, 0.272, 273))
    rho_heat = oracles.contact_states(rho_exp, h_hot, heat.p[0], heat.c)[-1]
    rho_comp = dag(u) @ rho_heat @ u

    with pytest.warns(RuntimeWarning, match="weak-coupling"):
        rt_cold = bath.build_rate_trajectory(cold_bath, conftest.EPS_COLD, 5.0)
    rho_cool = matcore.DensityMatrix.from_matrix(rho_comp)
    cool = dynamics.evolve_open(rho_cool, h_cold, [rt_cold],
                                np.linspace(0.0, 5.0, 501))
    rho_fin = oracles.contact_states(rho_cool, h_cold, cool.p[0], cool.c)[-1]

    out = energetics(rho_exp.mat, h_hot, u @ h_cold @ dag(u),
                     heat.p[0, -1], heat.c[-1])
    q_cold = np.trace(rho_fin @ h_cold).real - np.trace(rho_comp @ h_cold).real
    total = np.trace(rho_fin @ h_cold).real - np.trace(rho_in.mat @ h_cold).real
    assert out.w1 + out.w2 + out.q_hot + q_cold == pytest.approx(total,
                                                                 abs=1e-10)


def _energy(h: np.ndarray, rho) -> float:
    return float(np.trace(np.asarray(getattr(rho, "mat", rho)) @ h).real)


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@settings(max_examples=10, deadline=None)
@given(nu_cold=st.floats(1.0, 3.0), nu_gap=st.floats(0.5, 2.0),
       tau=st.floats(0.02, 0.3), p_cold=st.floats(0.05, 0.45),
       p_hot=st.floats(0.55, 0.99), omega_c=st.floats(3.0, 40.0),
       t_heat=st.floats(0.01, 0.5), t_cool=st.floats(0.05, 2.0))
def test_first_law_across_four_strokes(nu_cold, nu_gap, tau, p_cold, p_hot,
                                       omega_c, t_heat, t_cool):
    """Ramp, truncated hot contact, ramp back, truncated cold contact:
    the two works and the two heats add up to the energy change of the
    whole cycle, for any drive, reservoirs and contact durations."""
    cfg = cycle.CycleConfig(nu_cold=nu_cold, nu_hot=nu_cold + nu_gap,
                            tau=tau, p_plus_cold=p_cold, p_plus_hot=p_hot,
                            omega_c=omega_c, n_steps=2000)
    h_cold = model.hamiltonian_cold(cfg.system)
    h_hot = model.hamiltonian_hot(cfg.system)
    u, _ = dynamics.propagate_unitary(cfg.system, cfg.n_steps)
    rho_in = model.state_from_population(h_cold, p_cold)
    rho_exp = matcore.DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))

    eps_hot = model.transition_energy(h_hot)[0]
    rt = bath.build_rate_trajectory(cfg.hot_bath, eps_hot, t_heat)
    heat = dynamics.evolve_open(rho_exp, h_hot, [rt],
                                np.array([0.0, t_heat]))
    rho_heat = oracles.contact_states(rho_exp, h_hot, heat.p[0], heat.c)[-1]
    rho_comp = dag(u) @ rho_heat @ u
    rho_fin = oracles.run_cooling(cfg, rho_comp, t_max=t_cool,
                                  dt=t_cool).states[-1]

    out = energetics(rho_exp.mat, h_hot, u @ h_cold @ dag(u),
                     heat.p[0, -1], heat.c[-1])
    q_cold = _energy(h_cold, rho_fin) - _energy(h_cold, rho_comp)
    total = _energy(h_cold, rho_fin) - _energy(h_cold, rho_in)
    assert out.w1 + out.w2 + out.q_hot + q_cold == pytest.approx(total,
                                                                 abs=1e-10)


def test_overall_performance_constant_curve():
    times = np.linspace(0.0, 1.0, 101)
    eta = np.full(times.size, 0.64)
    assert overall_performance(times, eta, 1.0) == pytest.approx(0.64,
                                                                 rel=1e-14)
    assert overall_performance(times, eta, 0.0) == 0.0


def test_overall_performance_nan_scores_zero(rng):
    times = np.linspace(0.0, 1.0, 201)
    eta = rng.uniform(0.2, 0.7, size=times.size)
    eta[::7] = np.nan
    cleaned = np.where(np.isfinite(eta), eta, 0.0)
    # the trapezoid rule by hand: np.trapezoid needs NumPy 2.0
    expected = np.sum(0.5 * (cleaned[1:] + cleaned[:-1]) * np.diff(times))
    assert overall_performance(times, eta, 1.0) == pytest.approx(expected,
                                                                 rel=1e-12)


def test_overall_performance_window_validation():
    times = np.linspace(0.0, 1.0, 11)
    eta = np.zeros(11)
    with pytest.raises(ValueError):
        overall_performance(times, eta, 1.5)
    with pytest.raises(ValueError):
        overall_performance(times, eta, -0.1)
    with pytest.raises(ValueError):
        overall_performance(times + 0.1, eta, 0.5)
