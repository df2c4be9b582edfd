"""Cycle assembly: truncated-heating scans, sweeps, cooling closure.

Everything here runs on a thinned time grid (half-microsecond sampling, two
millisecond horizon) so the module stays fast; the paper-resolution numbers
live in the acceptance suite.
"""

import math
import warnings
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import conftest
import oracles
from oracles import (DensityMatrix, contact_states, dag, density_from_bloch,
                     run_cooling, state_frame, state_from_population)
from qotto import ConfigError, bath, cycle, dynamics, measures, model
from qotto.cycle import (CycleConfig, SweepRow, build_config, ift_reference,
                         population_onset, run_cycle, sweep_cutoff,
                         sweep_population)

FAST = dict(heat_dt=0.5e-3, heat_t_dense=0.6, heat_t_max=2.0, t_f=0.5)

# one valid value per CycleConfig field, each off its FAST/default value
NEW_VALUES = dict(nu_cold=2.5, nu_hot=4.0, tau=0.2, g=0.3, p_plus_cold=0.1,
                  p_plus_hot=0.8, alpha=0.3, omega_c=15.0, mu=0.5,
                  heat_dt=1e-3, heat_t_dense=0.5, tail_dt=0.02,
                  heat_t_max=1.5, t_f=0.4)


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
    # both reservoirs share one spectrum
    assert fast_cfg.cold_bath.omega_c == fast_cfg.hot_bath.omega_c
    assert fast_cfg.cold_bath.alpha == fast_cfg.hot_bath.alpha
    assert fast_cfg.hot_bath.beta < 0.0      # inverted target population
    assert fast_cfg.cold_bath.beta > 0.0
    assert fast_cfg.hot_bath.beta == pytest.approx(conftest.BETA_HOT,
                                                   rel=1e-12)
    assert fast_cfg.cold_bath.beta == pytest.approx(conftest.BETA_COLD,
                                                    rel=1e-12)


def test_cycle_config_is_the_default_table():
    """Every setting is a defaulted field; no other table holds defaults."""
    assert CycleConfig() == build_config()
    assert all(f.default is not MISSING for f in fields(CycleConfig))
    assert set(NEW_VALUES) == {f.name for f in fields(CycleConfig)}


@pytest.mark.parametrize("key", sorted(NEW_VALUES))
def test_replaced_value_equals_a_fresh_config(fast_cfg, key):
    """`replace` works for every key and agrees with a fresh config,
    derived drive and reservoirs included."""
    moved = replace(fast_cfg, **{key: NEW_VALUES[key]})
    fresh = build_config(**{**FAST, key: NEW_VALUES[key]})
    assert moved == fresh
    assert moved.system == fresh.system
    assert moved.hot_bath == fresh.hot_bath
    assert moved.cold_bath == fresh.cold_bath


def test_config_stores_no_temperature(fast_cfg):
    """Each reservoir's beta is derived from its target population."""
    for f in fields(CycleConfig):
        assert "beta" not in f.name
        assert not isinstance(getattr(fast_cfg, f.name), bath.BathSpec)


def test_replaced_hot_population_moves_the_reservoir(fast_cfg):
    """A replaced target population relaxes toward itself, exactly as a
    config built with it from scratch does."""
    moved = run_cycle(replace(fast_cfg, p_plus_hot=0.8))
    fresh = run_cycle(build_config(p_plus_hot=0.8, **FAST))
    assert_array_equal(moved.eta, fresh.eta)
    assert_array_equal(moved.q_hot, fresh.q_hot)
    assert moved.eta_sat == fresh.eta_sat
    assert moved.diagnostics == fresh.diagnostics
    assert moved.diagnostics["final_population_gap"] < 1e-4


def test_replaced_cold_population_moves_the_reservoir(fast_cfg):
    moved = replace(fast_cfg, p_plus_cold=0.1).cold_bath
    assert moved == build_config(p_plus_cold=0.1, **FAST).cold_bath
    assert moved.beta == model.beta_from_population(
        model.transition_energy(model.hamiltonian_cold(fast_cfg.system))[0],
        0.1)


def test_replaced_cutoff_equals_a_fresh_config(fast_cfg):
    moved = replace(fast_cfg, omega_c=15.0)
    fresh = build_config(omega_c=15.0, **FAST)
    assert moved == fresh
    assert moved.hot_bath == fresh.hot_bath
    assert moved.cold_bath == fresh.cold_bath


@pytest.mark.parametrize("kwargs, message", [
    (dict(alpha=-1.0), "alpha must be >= 0"),
    (dict(omega_c=0.0), "omega_c must be positive"),
    (dict(mu=-1.0), "mu >= 0"),
])
def test_config_rejects_bad_spectrum(fast_cfg, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        build_config(**kwargs, **FAST)
    with pytest.raises(ConfigError, match=message):
        replace(fast_cfg, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(p_plus_cold=0.6),                  # cold lead must not be inverted
    dict(p_plus_hot=0.0),
    dict(p_plus_hot=1.0),
    dict(heat_t_dense=3.0, heat_t_max=2.0),
    dict(heat_dt=-1e-4),
    dict(t_f=3.0, heat_t_max=2.0),          # scoring window past the scan
    dict(heat_dt=0.0007),                   # 0.7 us does not divide 0.6 ms
    dict(heat_t_max=0.604),                 # 10 us does not divide 4 us
    dict(nu_cold=4.0),                      # the drive is checked too
])
def test_config_validation(kwargs):
    merged = {**FAST, **kwargs}
    with pytest.raises(ConfigError):
        build_config(**merged)


def test_config_is_checked_once_per_construction(monkeypatch):
    """A new config and a replaced one each run the module-level check
    exactly once, so the check is one function call a tracer can time."""
    calls = []
    check = cycle._check_config
    monkeypatch.setattr(cycle, "_check_config",
                        lambda cfg: calls.append(cfg) or check(cfg))
    built = CycleConfig(omega_c=15.0)
    assert calls == [built]
    moved = replace(built, omega_c=5.0)
    assert calls == [built, moved]


def test_heating_grid_size_is_bounded(monkeypatch):
    """The sample count is checked before any grid is built: at most
    MAX_POINTS samples, so 1e-9 ms steps (1e9 samples) or 1e-300 ms
    steps are refused as input errors."""
    for heat_dt in (1e-9, 1e-300):
        with pytest.raises(ConfigError, match="heating samples"):
            CycleConfig(heat_dt=heat_dt)
    monkeypatch.setattr(cycle, "MAX_POINTS", 1000)
    cfg = CycleConfig(heat_t_dense=1.0, heat_t_max=1.0, heat_dt=1.0 / 999)
    assert cfg.heating_grid().size == 1000
    with pytest.raises(ConfigError, match="give 1001 heating samples, "
                                          "more than 1000"):
        CycleConfig(heat_t_dense=1.0, heat_t_max=1.0, heat_dt=1e-3)


def test_default_ramp_error_is_reported():
    """The default ramp's Richardson estimate is below 1e-10 and reaches
    the diagnostics of a run."""
    cfg = CycleConfig(heat_t_dense=0.5, heat_t_max=0.5, t_f=0.5)
    ramp_error = cycle._setup(cfg).ramp_error
    assert 0.0 < ramp_error < 1e-10
    assert run_cycle(cfg).diagnostics["ramp_error"] == ramp_error


def test_step_count_is_not_a_config_field():
    """The setup picks the ramp's step count; a config takes none."""
    with pytest.raises(TypeError):
        CycleConfig(n_steps=600)


def _counted_ramp(monkeypatch) -> list:
    """Step counts of the ramp products the setup asks for."""
    counts, real = [], cycle.propagate_unitary

    def counted(p, n_steps):
        counts.append(n_steps)
        return real(p, n_steps)

    monkeypatch.setattr(cycle, "propagate_unitary", counted)
    return counts


def test_studied_ramp_takes_one_product(monkeypatch):
    """At the studied drive the first 600-step product meets RAMP_TOL."""
    counts = _counted_ramp(monkeypatch)
    assert cycle._setup(CycleConfig()).ramp_error <= cycle.RAMP_TOL
    assert counts == [dynamics.DEFAULT_N_STEPS]


def test_long_ramp_doubles_its_steps_to_converge():
    """A 20 ms ramp, which 600 steps resolve only to ~1e-6, doubles its
    step count until the estimate meets RAMP_TOL, and its frame agrees
    with one built from a 76,800-step product."""
    cfg = CycleConfig(tau=20.0)
    su = cycle._setup(cfg)
    assert su.ramp_error <= cycle.RAMP_TOL
    u, _ = dynamics.propagate_unitary(cfg.system, 76_800)
    h_cold = model.hamiltonian_cold(cfg.system)
    rho_in = state_from_population(h_cold, cfg.p_plus_cold)
    rho_exp = DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))
    fine = state_frame(rho_exp, model.hamiltonian_hot(cfg.system),
                       u @ h_cold @ dag(u))
    for name in ("p0", "c0", "w1"):
        assert abs(getattr(su, name) - getattr(fine, name)) <= 1e-9, name
    assert abs(su.xi - oracles.branch_crossing(cfg.system, u)) <= 1e-9


def test_ramp_doubling_stops_at_max_points(monkeypatch):
    """The step count never doubles past MAX_POINTS; the setup reports
    the error estimate of the last product it built and warns that it
    exceeds RAMP_TOL."""
    cfg = CycleConfig(tau=20.0)   # its 4,901 heating samples pass first
    monkeypatch.setattr(cycle, "MAX_POINTS", 1200)
    counts = _counted_ramp(monkeypatch)
    with pytest.warns(RuntimeWarning, match=r"ramp error estimate \S+ "
                      r"exceeds tolerance 1\.0e-10 at 1200 steps"):
        su = cycle._setup(cfg)
    assert counts == [600, 1200]
    assert su.ramp_error == dynamics.propagate_unitary(cfg.system, 1200)[1]
    assert su.ramp_error > cycle.RAMP_TOL


def test_converged_ramp_does_not_warn():
    """The studied ramp meets RAMP_TOL, so it raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ramp_error = cycle._ramp(CycleConfig().system)
    assert ramp_error <= cycle.RAMP_TOL


@settings(max_examples=30, deadline=None)
@given(nu_cold=st.floats(0.5, 3.0), nu_gap=st.floats(0.5, 3.0),
       tau=st.floats(0.02, 0.5), g=st.floats(0.0, 0.5),
       p_plus_cold=st.floats(0.01, 0.49))
@example(nu_cold=2.0, nu_gap=1.6, tau=0.1, g=0.2, p_plus_cold=0.261)
def test_setup_matches_matrix_path(nu_cold, nu_gap, tau, g, p_plus_cold):
    """The setup's scalars, read off the ramp in the two eigenbases,
    against the matrix path: U rho_in U^dag as a validated density
    matrix, h_back = U h_cold U^dag and expectation values."""
    cfg = CycleConfig(nu_cold=nu_cold, nu_hot=nu_cold + nu_gap, tau=tau,
                      g=g, p_plus_cold=p_plus_cold)
    mine, ref = cycle._setup(cfg), oracles.setup_frame(cfg)
    assert mine.eps == ref.eps and mine.ramp_error == ref.ramp_error
    for name in ("k", "p0", "c0", "xi", "trace_dev"):
        assert abs(getattr(mine, name) - getattr(ref, name)) <= 1e-14, name
    for name in ("back_flip", "back_coh", "w1"):
        assert abs(getattr(mine, name) - getattr(ref, name)) <= 1e-12, name


def test_setup_rejects_a_ramp_that_loses_trace(monkeypatch):
    """A ramp whose output state's trace is off by more than 1e-10 is
    refused before any stroke runs."""
    real = cycle.propagate_unitary

    def scaled(*args):
        u, ramp_error = real(*args)
        return 1.001 * u, ramp_error

    monkeypatch.setattr(cycle, "propagate_unitary", scaled)
    with pytest.raises(ValueError, match="trace deviates from 1 by 2.00"):
        cycle._setup(CycleConfig())


def test_crossing_check_rejects_disagreeing_elements():
    """The two off-diagonal elements of the ramp in the two eigenbases
    must give one crossing probability."""
    m = np.array([[0.9, 0.3], [0.3 + 1e-10, 0.9]])
    assert cycle._crossing_probability(m) == pytest.approx(0.09)
    m[1, 0] = 0.31
    with pytest.raises(RuntimeError, match="probabilities disagree"):
        cycle._crossing_probability(m)


def test_non_finite_population_becomes_an_error_row(fast_cfg, monkeypatch):
    """A contact stroke whose populations are not finite fails loudly,
    and a population sweep turns it into error rows."""
    def poisoned(p0, k_lam, sources):
        return np.full((sources.shape[0], k_lam.size), np.nan)

    monkeypatch.setattr(dynamics, "_populations", poisoned)
    rows = sweep_population(fast_cfg, [0.65, 0.95], 0.272)
    assert [r.p_plus_hot for r in rows] == [0.65, 0.95]
    for row in rows:
        assert row.error == ("RuntimeError: contact stroke population or "
                             "coherence is not finite")
        assert math.isnan(row.eta) and not row.valid_engine


# the float fields of CycleConfig, the ones a nan or inf can reach
FLOAT_FIELDS = [f.name for f in fields(CycleConfig)
                if isinstance(f.default, float)]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_fields_must_be_finite(name, value):
    """A non-finite value is named, not reported through a rule it
    happens to break (an infinite spacing "does not divide")."""
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        CycleConfig(**{name: value})


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FLOAT_FIELDS), value=st.floats())
def test_one_float_field_builds_or_is_config_error(name, value):
    """Any float in any one field, nan and +-inf included: either a
    config whose fields are all finite or a ConfigError, nothing else."""
    try:
        cfg = CycleConfig(**{name: value})
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cfg, f.name)) for f in fields(cfg))
    assert math.isfinite(cfg.hot_bath.beta)
    assert math.isfinite(cfg.cold_bath.beta)


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
    floor = measures.Q_HOT_FLOOR_SCALE * conftest.EPS_HOT
    assert np.all(np.abs(r.q_hot[~finite]) <= floor)
    assert r.valid.dtype == bool
    assert r.o_p == pytest.approx(
        measures.overall_performance(r.times, r.eta, 0.5), abs=0)


def test_no_heat_and_no_work_at_switch_on(fast_result):
    """At t = 0 the contact stroke has not begun: the zero-heat baseline
    is exact, so heat and cycle work are exactly zero."""
    r = fast_result
    assert r.times[0] == 0.0
    assert r.q_hot[0] == 0.0
    assert r.w1 + r.w2[0] == 0.0
    assert math.isnan(r.eta[0]) and not r.valid[0]


def test_energetics_match_stroke_bookkeeping(fast_cfg, fast_result):
    """Vectorized scan vs the four-state contraction, sample by sample."""
    cfg, r = fast_cfg, fast_result
    h_cold = model.hamiltonian_cold(cfg.system)
    h_hot = model.hamiltonian_hot(cfg.system)
    u, _ = cycle._ramp(cfg.system)
    rho_in = state_from_population(h_cold, cfg.p_plus_cold)
    rho_exp = u @ rho_in.mat @ dag(u)
    eps_hot = model.transition_energy(h_hot)[0]
    grid = cfg.heating_grid()
    rt = bath.build_rate_trajectory(cfg.hot_bath, eps_hot,
                                    grid[-1] + cycle._TABLE_MARGIN)
    rho0 = DensityMatrix.from_matrix(rho_exp)
    traj = dynamics.evolve_open(state_frame(rho0, h_hot), [rt], grid)
    states = contact_states(rho0, h_hot, traj.p[0], traj.c)
    for k in (0, 57, 313, 800, 1201, 1340):
        rho_heat = states[k]
        out = oracles.cycle_energetics(rho_in.mat, rho_exp, rho_heat,
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
    u, _ = cycle._ramp(cfg.system)
    rho_comp = DensityMatrix.from_matrix(
        dag(u) @ state_from_population(h_hot, 0.99).mat @ u)
    traj = run_cooling(cfg, rho_comp, t_max=40.0, dt=0.02)
    target = state_from_population(h_cold, cfg.p_plus_cold).mat
    assert np.max(np.abs(traj.states[-1] - target)) < 1e-3
    assert np.max(traj.trace_dev) < 1e-8


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@settings(max_examples=4, deadline=None)
@given(p_plus_cold=st.floats(0.05, 0.45),
       bloch=st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57),
                       st.floats(-0.57, 0.57)))
def test_cooling_relaxes_to_configured_cold_state(p_plus_cold, bloch):
    """Any input state ends at the configured cold thermal state."""
    cfg = build_config(p_plus_cold=p_plus_cold, **FAST)
    rho0 = density_from_bloch(*bloch)
    traj = run_cooling(cfg, rho0, t_max=40.0, dt=0.5)
    target = state_from_population(
        model.hamiltonian_cold(cfg.system), p_plus_cold).mat
    assert np.max(np.abs(traj.states[-1] - target)) < 1e-3


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_cooling_zero_duration_is_identity(fast_cfg):
    rho = state_from_population(
        model.hamiltonian_cold(fast_cfg.system), 0.3)
    traj = run_cooling(fast_cfg, rho, t_max=0.0)
    assert traj.times.size == 1
    assert_allclose(traj.states[-1], rho.mat, atol=0)


def test_sweep_cutoff_rows(fast_cfg):
    rows = sweep_cutoff(fast_cfg, [25.0, 30.0])
    assert [r.omega_c for r in rows] == [25.0, 30.0]
    assert all(r.error == "" for r in rows)
    assert rows[0].eta_max > rows[1].eta_max
    assert rows[0].o_p < rows[1].o_p
    assert rows[0].q_nonmarkov == 0.0 and rows[1].q_nonmarkov == 0.0


def test_sweep_cutoff_sets_the_cycle_up_once(fast_cfg, monkeypatch):
    """The ramp does not depend on the cutoff: a sweep builds it once,
    and each row equals a separate run at its cutoff."""
    calls = []
    real = cycle.propagate_unitary

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cutoffs = [5.0, 15.0, 30.0]
    monkeypatch.setattr(cycle, "propagate_unitary", counted)
    rows = sweep_cutoff(fast_cfg, cutoffs)
    assert len(calls) == 1
    monkeypatch.undo()
    for row, omega_c in zip(rows, cutoffs):
        res = run_cycle(replace(fast_cfg, omega_c=omega_c))
        assert row == SweepRow(omega_c=omega_c, eta_max=res.eta_max,
                               t_tilde_max=res.t_tilde_max, o_p=res.o_p,
                               q_nonmarkov=res.nonmarkov.q_total,
                               eta_sat=res.eta_sat, no_engine=res.no_engine)


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


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_sweep_population_isolates_failures(fast_cfg, monkeypatch):
    """A population whose remainder is poisoned with NaN fails in the
    batched evolution: only its row carries the error, and every other
    row is the row of a clean sweep."""
    grid = [0.55, 0.65, 0.75, 0.85, 0.95]
    clean = sweep_population(fast_cfg, grid, 0.272)
    bad_beta = replace(fast_cfg, p_plus_hot=0.75).hot_bath.beta
    remainder = bath._remainder

    def poisoned(specs, eps, t, *resolution, **kw):
        held = remainder(specs, eps, t, *resolution, **kw)
        held[[spec.beta == bad_beta for spec in specs]] = np.nan
        return held

    monkeypatch.setattr(bath, "_remainder", poisoned)
    rows = sweep_population(fast_cfg, grid, 0.272)
    assert [r.p_plus_hot for r in rows] == grid
    assert rows[2].error.startswith("ValueError: ")
    assert math.isnan(rows[2].eta) and not rows[2].valid_engine
    for k in (0, 1, 3, 4):
        assert rows[k] == clean[k]


def test_sweep_population_validation(fast_cfg):
    with pytest.raises(ConfigError):
        sweep_population(fast_cfg, [0.5, 1.0], 0.272)
    with pytest.raises(ConfigError):
        sweep_population(fast_cfg, [0.6], 2.5)   # past the heating horizon
    with pytest.raises(ConfigError):
        sweep_population(fast_cfg, [0.6], 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda c: sweep_cutoff(c, []), "must not be empty"),
    (lambda c: sweep_population(c, [], 0.272), "must not be empty"),
    (lambda c: sweep_population(c, [0.6, math.nan], 0.272), "p_plus_hot"),
    (lambda c: sweep_population(c, [0.6], math.nan), "t_tilde"),
    (lambda c: sweep_population(c, [0.6], math.inf), "t_tilde"),
    (lambda c: ift_reference(c, [0.6, 0.0]), "p_plus_hot"),
    (lambda c: ift_reference(c, [math.inf]), "p_plus_hot"),
    (lambda c: sweep_population(replace(c, omega_c=1e6), [0.6], 0.272),
     "needs 6440001 points"),
])
def test_sweep_inputs_raise_config_error(fast_cfg, call, message):
    """A sweep's populations pass the config's own p_plus_hot rule, and
    its rate tables the size bound, before any point runs."""
    with pytest.raises(ConfigError, match=message):
        call(fast_cfg)


def test_population_sweep_builds_no_config_per_point(fast_cfg, monkeypatch):
    """A sweep checks each population by the config's rule alone: 50
    points construct no CycleConfig."""
    calls = []
    post_init = CycleConfig.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(CycleConfig, "__post_init__", counted)
    grid = [round(0.5 + 0.01 * k, 2) for k in range(50)]
    rows = sweep_population(fast_cfg, grid, 0.272)
    assert len(rows) == 50 and all(r.error == "" for r in rows)
    assert calls == []


def test_population_sweep_diagonalises_once_per_sweep(fast_cfg, monkeypatch):
    """Every reservoir of a sweep is built from the setup's hot gap, so a
    50-point sweep diagonalises no more Hamiltonians than a 2-point one."""
    calls = []
    real = model.transition_energy

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(model, "transition_energy", counted)
    monkeypatch.setattr(cycle, "transition_energy", counted)
    counts = []
    for n in (2, 50):
        calls.clear()
        sweep_population(fast_cfg, [0.5 + 0.01 * k for k in range(n)], 0.272)
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
    xi = oracles.adiabaticity(fast_cfg.system)
    p_c = fast_cfg.p_plus_cold
    p_star = p_c * (1 - xi) + (1 - p_c) * xi
    row = ift_reference(fast_cfg, [p_star])[0]
    assert abs(row.q_hot) < 1e-12
    assert not row.valid_engine


def test_population_onset_empty_when_no_engine(fast_cfg):
    rows = ift_reference(fast_cfg, [0.51, 0.52])
    assert math.isnan(population_onset(rows))
