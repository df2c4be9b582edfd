"""Cycle assembly: truncated-heating scans, sweeps, cooling closure.

Everything here runs on a thinned time grid (half-microsecond sampling, two
millisecond horizon) so the module stays fast; the paper-resolution numbers
live in the acceptance suite.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import conftest
from qotto import bath, cycle, dynamics, matcore, measures, model
from qotto.cycle import (CycleConfig, build_config, ift_reference,
                         population_onset, run_cooling, run_cycle,
                         sweep_cutoff, sweep_population)
from qotto.matcore import dag
from qotto.model import Stroke

FAST = dict(heat_dt=0.5e-3, heat_t_dense=0.6, heat_t_max=2.0, t_f=0.5,
            n_steps=4000)


@pytest.fixture(scope="module")
def fast_cfg():
    return build_config(**FAST)


@pytest.fixture(scope="module")
def fast_result(fast_cfg):
    return run_cycle(fast_cfg)


def test_build_config_defaults(fast_cfg):
    assert fast_cfg.system.nu_cold == 2.0
    assert fast_cfg.system.nu_hot == 3.6
    assert fast_cfg.hot_bath.omega_c == 30.0
    # cold bath inherits the hot spectral parameters unless overridden
    assert fast_cfg.cold_bath.omega_c == fast_cfg.hot_bath.omega_c
    assert fast_cfg.cold_bath.alpha == fast_cfg.hot_bath.alpha
    assert fast_cfg.hot_bath.beta < 0.0      # inverted target population
    assert fast_cfg.cold_bath.beta > 0.0
    assert fast_cfg.hot_bath.beta == pytest.approx(conftest.BETA_HOT,
                                                   rel=1e-12)
    assert fast_cfg.cold_bath.beta == pytest.approx(conftest.BETA_COLD,
                                                    rel=1e-12)


def test_build_config_cold_overrides():
    cfg = build_config(cold_omega_c=12.0, cold_alpha=0.3, **FAST)
    assert cfg.cold_bath.omega_c == 12.0
    assert cfg.cold_bath.alpha == 0.3
    assert cfg.hot_bath.omega_c == 30.0


@pytest.mark.parametrize("kwargs", [
    dict(p_plus_cold=0.6),                  # cold lead must not be inverted
    dict(p_plus_hot=0.0),
    dict(p_plus_hot=1.0),
    dict(heat_t_dense=3.0, heat_t_max=2.0),
    dict(heat_dt=-1e-4),
    dict(t_f=3.0, heat_t_max=2.0),          # scoring window past the scan
])
def test_config_validation(kwargs):
    merged = {**FAST, **kwargs}
    with pytest.raises(ValueError):
        build_config(**merged)


@pytest.mark.parametrize("p_plus_cold", [0.0, 0.5])
def test_cycle_config_rejects_cold_population_edges(fast_cfg, p_plus_cold):
    """The cold lead needs a finite positive temperature: the library
    object rejects the same populations build_config does."""
    with pytest.raises(ValueError, match="p_plus_cold"):
        replace(fast_cfg, p_plus_cold=p_plus_cold)


def test_heating_grid_structure(fast_cfg):
    grid = fast_cfg.heating_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.0, abs=1e-12)
    steps = np.diff(grid)
    assert np.all(steps > 0.0)
    dense = grid[grid <= 0.6 + 1e-12]
    assert np.max(np.diff(dense)) == pytest.approx(0.5e-3, rel=1e-9)
    tail = grid[grid >= 0.6 - 1e-12]
    assert np.max(np.diff(tail)) == pytest.approx(0.01, rel=1e-9)


def test_scan_hits_plateau_structure(fast_result):
    """Peak value, peak position, ringing period, saturation level."""
    r = fast_result
    assert not r.no_engine
    assert r.eta_max == pytest.approx(0.7118291, abs=1e-5)
    assert r.t_tilde_max * 1e3 == pytest.approx(271.897, abs=0.1)
    assert r.window[0] < r.t_tilde_max < r.window[1]
    assert len(r.peaks) >= 2
    assert r.peaks[0][1] == pytest.approx(r.eta_max, abs=1e-12)
    # revival spacing tracks the hot-side transition period
    period = 2.0 * math.pi / conftest.EPS_HOT
    spacing = r.peaks[1][0] - r.peaks[0][0]
    assert spacing == pytest.approx(period, rel=0.05)
    assert r.eta_sat == pytest.approx(r.eta_ift, abs=2e-3)
    assert abs(r.eta_sat - 0.64994) < 5e-4
    assert r.t_eq == pytest.approx(1.27, abs=0.05)


def test_scan_samples_are_self_consistent(fast_result):
    r = fast_result
    finite = np.isfinite(r.eta)
    assert np.all(r.eta[finite] <= r.eta_max + 5e-4)
    # eta is defined exactly where the heat floor is cleared
    floor = cycle.Q_HOT_FLOOR_SCALE * conftest.EPS_HOT
    assert np.all(np.abs(r.q_hot[~finite]) <= floor)
    assert r.valid.dtype == bool
    assert r.o_p == pytest.approx(
        measures.overall_performance(r.times, r.eta, 0.5), abs=0)


def test_energetics_match_stroke_bookkeeping(fast_cfg, fast_result):
    """Vectorized scan vs the four-state contraction, sample by sample."""
    cfg, r = fast_cfg, fast_result
    h_cold = model.hamiltonian_cold(cfg.system)
    h_hot = model.hamiltonian_hot(cfg.system)
    u = dynamics.propagate_unitary(cfg.system, Stroke.EXPANSION, cfg.n_steps)
    rho_in = model.state_from_population(h_cold, cfg.p_plus_cold)
    rho_exp = u @ rho_in.mat @ dag(u)
    eps_hot = model.transition_energy(h_hot)[0]
    a_hot = model.jump_operator(h_hot)
    grid = cfg.heating_grid()
    rt = bath.build_rate_trajectory(cfg.hot_bath, eps_hot,
                                    grid[-1] + cycle._TABLE_MARGIN,
                                    quad_tol=cfg.quad_tol)
    traj = dynamics.evolve_open(matcore.DensityMatrix.from_matrix(rho_exp),
                                h_hot, rt, a_hot, grid)
    for k in (0, 57, 313, 800, 1201, 1340):
        rho_heat = traj.states[k]
        out = measures.cycle_energetics(rho_in.mat, rho_exp, rho_heat,
                                        dag(u) @ rho_heat @ u, h_cold, h_hot)
        assert out.w1 == pytest.approx(r.w1, abs=1e-10)
        assert out.w2 == pytest.approx(r.w2[k], abs=1e-10)
        assert out.q_hot == pytest.approx(r.q_hot[k], abs=1e-10)
        assert bool(out.valid_engine) == bool(r.valid[k])


def test_peak_ordering_between_cutoffs(fast_result):
    sharper = run_cycle(build_config(omega_c=25.0, **FAST))
    assert sharper.eta_max > fast_result.eta_max
    assert sharper.o_p < fast_result.o_p


def test_no_engine_when_decoupled():
    r = run_cycle(build_config(alpha=0.0, **FAST))
    assert r.no_engine
    assert np.all(np.isnan(r.eta))
    assert math.isnan(r.eta_max) and math.isnan(r.t_tilde_max)
    assert r.peaks == ()
    assert r.o_p == 0.0
    assert r.nonmarkov.q_total == 0.0
    assert math.isnan(r.eta_sat)


def test_diagnostics_block(fast_result):
    d = fast_result.diagnostics
    assert d["quad_error"] < 1e-8
    assert d["weak_coupling_ok"]
    assert d["max_trace_dev"] < 1e-8
    assert d["min_eig"] > -1e-6
    assert d["xi"] == pytest.approx(0.40729, abs=1e-4)
    assert d["eps_hot"] == pytest.approx(conftest.EPS_HOT, rel=1e-12)


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_cooling_returns_to_cold_thermal_state(fast_cfg):
    """The cold bath erases the compression output within the reset window."""
    cfg = fast_cfg
    h_cold = model.hamiltonian_cold(cfg.system)
    h_hot = model.hamiltonian_hot(cfg.system)
    u = dynamics.propagate_unitary(cfg.system, Stroke.EXPANSION, cfg.n_steps)
    rho_comp = matcore.DensityMatrix.from_matrix(
        dag(u) @ model.state_from_population(h_hot, 0.99).mat @ u)
    traj = run_cooling(cfg, rho_comp, t_max=40.0, dt=0.02)
    target = model.state_from_population(h_cold, cfg.p_plus_cold).mat
    assert np.max(np.abs(traj.final_state - target)) < 1e-3
    assert np.max(traj.trace_dev) < 1e-8


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@settings(max_examples=4, deadline=None)
@given(p_plus_cold=st.floats(0.05, 0.45),
       bloch=st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57),
                       st.floats(-0.57, 0.57)))
def test_cooling_relaxes_to_configured_cold_state(p_plus_cold, bloch):
    """Any input state ends at the configured cold thermal state."""
    cfg = build_config(p_plus_cold=p_plus_cold, **FAST)
    rho0 = matcore.DensityMatrix.from_bloch(*bloch)
    traj = run_cooling(cfg, rho0, t_max=40.0, dt=0.5)
    target = model.state_from_population(
        model.hamiltonian_cold(cfg.system), p_plus_cold).mat
    assert np.max(np.abs(traj.final_state - target)) < 1e-3


def test_cooling_zero_duration_is_identity(fast_cfg):
    rho = model.state_from_population(
        model.hamiltonian_cold(fast_cfg.system), 0.3)
    traj = run_cooling(fast_cfg, rho, t_max=0.0)
    assert traj.times.size == 1
    assert_allclose(traj.final_state, rho.mat, atol=0)


def test_sweep_cutoff_rows(fast_cfg):
    rows = sweep_cutoff(fast_cfg, [25.0, 30.0])
    assert [r.omega_c for r in rows] == [25.0, 30.0]
    assert all(r.error == "" for r in rows)
    assert rows[0].eta_max > rows[1].eta_max
    assert rows[0].o_p < rows[1].o_p
    assert rows[0].q_nonmarkov == 0.0 and rows[1].q_nonmarkov == 0.0


def test_sweep_cutoff_isolates_failures(fast_cfg):
    rows = sweep_cutoff(fast_cfg, [-1.0, 30.0])
    assert rows[0].error != ""
    assert rows[1].error == ""
    assert not rows[1].no_engine


def test_sweep_cutoff_deterministic(fast_cfg):
    a = sweep_cutoff(fast_cfg, [30.0])[0]
    b = sweep_cutoff(fast_cfg, [30.0])[0]
    assert (a.eta_max, a.t_tilde_max, a.o_p, a.eta_sat) \
        == (b.eta_max, b.t_tilde_max, b.o_p, b.eta_sat)


def test_sweep_population_rows(fast_cfg):
    grid = [0.55, 0.65, 0.75, 0.85, 0.95]
    rows = sweep_population(fast_cfg, grid, 0.272)
    assert [r.p_plus_hot for r in rows] == grid
    assert all(r.error == "" for r in rows)
    # engine functioning switches on between the first two grid points here
    assert not rows[0].valid_engine
    assert all(r.valid_engine for r in rows[1:])
    etas = [r.eta for r in rows[1:]]
    assert etas == sorted(etas)
    assert population_onset(rows) == 0.65


def test_sweep_population_validation(fast_cfg):
    with pytest.raises(ValueError):
        sweep_population(fast_cfg, [0.5, 1.0], 0.272)
    with pytest.raises(ValueError):
        sweep_population(fast_cfg, [0.6], 2.5)   # past the heating horizon
    with pytest.raises(ValueError):
        sweep_population(fast_cfg, [0.6], 0.0)


def test_ift_reference_curve(fast_cfg):
    grid = [round(0.5 + 0.01 * k, 2) for k in range(50)]
    rows = ift_reference(fast_cfg, grid)
    assert population_onset(rows) == 0.61
    top = rows[-1]
    assert top.p_plus_hot == 0.99
    # the thinned ramp discretization shifts the crossing probability at
    # the 1e-8 level, hence the looser bound than the full-resolution one
    assert top.eta == pytest.approx(0.6498388205658117, abs=1e-6)
    assert top.valid_engine and top.w < 0.0 and top.q_hot > 0.0


def test_ift_boundary_population_exchanges_no_heat(fast_cfg):
    """Heating toward the expansion state's own population moves no energy."""
    xi = dynamics.adiabaticity(fast_cfg.system, fast_cfg.n_steps)
    p_c = fast_cfg.p_plus_cold
    p_star = p_c * (1 - xi) + (1 - p_c) * xi
    row = ift_reference(fast_cfg, [p_star])[0]
    assert abs(row.q_hot) < 1e-12
    assert not row.valid_engine


def test_population_onset_empty_when_no_engine(fast_cfg):
    rows = ift_reference(fast_cfg, [0.51, 0.52])
    assert math.isnan(population_onset(rows))
