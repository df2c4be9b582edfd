"""Stroke propagators and the open-system integrator.

The open dynamics has an exact closed form once written in the instantaneous
eigenbasis: populations obey a scalar rate equation and the coherence picks
up a phase times an integrated damping factor.  Those closed forms, solved
with independent tooling, are the oracles here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

import conftest
import oracles
from oracles import (IDENTITY, DensityMatrix, adiabaticity, apply_generator,
                     contact_states, dag, density_from_bloch, expm_aherm,
                     product_propagator, state_frame, state_from_population)
from resolution_scan import contact_steps, contact_strokes
from qotto import bath, cycle, dynamics, model
from qotto.bath import BathSpec, RateTrajectory, build_rate_trajectory
from qotto.dynamics import evolve_open, propagate_unitary


def _trace_dev(states: np.ndarray) -> np.ndarray:
    """|Tr rho - 1| of each state in a (T, 2, 2) stack."""
    return np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)


def test_time_independent_generator_is_exact():
    """Midpoint products collapse to a single exponential for constant H."""
    p = model.SystemParams(2.0, 3.6, 0.1, 0.2)
    h = model.hamiltonian_cold(p)
    exact = expm_aherm(h, p.tau)
    for n in (1, 7, 50):
        assert_allclose(product_propagator(lambda t: h, p.tau, n), exact,
                        atol=1e-13)


def _random_drives(rng, count):
    """Drives drawn from the ranges the unitarity test covers."""
    drives = []
    for _ in range(count):
        nu_c = rng.uniform(0.5, 3.0)
        drives.append(model.SystemParams(nu_c, nu_c + rng.uniform(0.5, 3.0),
                                         rng.uniform(0.02, 0.5),
                                         rng.uniform(0.0, 0.5)))
    return drives


# the corner of those ranges where the ramp error is largest
WORST_DRIVE = model.SystemParams(3.0, 6.0, 0.5, 0.0)


def test_propagator_unitarity(system, rng):
    """Unitary to 1e-10, with a ramp error estimate below 1e-10 at the
    default step count anywhere in the drive ranges: the ramp keeps its
    first product and never doubles."""
    for p in [system, WORST_DRIVE] + _random_drives(rng, 3):
        u, ramp_error = propagate_unitary(p)
        assert_allclose(u @ dag(u), IDENTITY, atol=1e-10)
        assert ramp_error < 1e-10
        assert u.tobytes() == dynamics._product(
            p, dynamics.DEFAULT_N_STEPS).tobytes()


def test_compression_matches_literal_reversed_ramp(system):
    """The adjoint shortcut equals integrating the reversed ramp directly,
    by a Magnus product over the literal compression Hamiltonian that
    writes the commutator out instead of the cross product."""
    u_exp, _ = propagate_unitary(system)
    u_lit = oracles.magnus_propagator(
        lambda t: oracles.hamiltonian_compression(system, t), system.tau,
        dynamics.DEFAULT_N_STEPS)
    assert_allclose(u_lit, dag(u_exp), atol=1e-11)


def test_step_convergence_is_second_order(system):
    """The midpoint oracle the Magnus ramp replaced is second order."""
    ref = oracles.midpoint_unitary(system, oracles.REFERENCE_STEPS)
    errs = [np.max(np.abs(oracles.midpoint_unitary(system, n) - ref))
            for n in (250, 500, 1000)]
    assert errs[2] < 5e-7
    # halving the step must cut the error by four
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.4)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.4)


def test_magnus_step_convergence_is_fourth_order(system):
    ref = dynamics._product(system, 4000)
    errs = [np.max(np.abs(dynamics._product(system, n) - ref))
            for n in (50, 100, 200)]
    # halving the step must cut the error by sixteen
    assert errs[0] / errs[1] == pytest.approx(16.0, abs=2.0)
    assert errs[1] / errs[2] == pytest.approx(16.0, abs=2.0)


def test_default_ramp_matches_midpoint_reference(system):
    """The default Magnus ramp is the converged ramp: within 1e-11 of the
    midpoint product at 640,000 steps."""
    u, _ = propagate_unitary(system)
    ref = oracles.midpoint_unitary(system, oracles.REFERENCE_STEPS)
    assert np.max(np.abs(u - ref)) < 1e-11


@pytest.mark.parametrize("n_steps", [100, 200, dynamics.DEFAULT_N_STEPS])
def test_ramp_error_estimate_tracks_true_error(system, n_steps, monkeypatch):
    """The Richardson estimate lies within a factor of 2 of the error
    against a 4,000-step Magnus reference, at the studied drive and at
    the worst one.  The ramp starts at n_steps and, under a tolerance
    every estimate meets, keeps its first product."""
    monkeypatch.setattr(dynamics, "DEFAULT_N_STEPS", n_steps)
    monkeypatch.setattr(dynamics, "RAMP_TOL", 1.0)
    for p in (system, WORST_DRIVE):
        ref = dynamics._product(p, 4000)
        u, ramp_error = propagate_unitary(p)
        assert u.tobytes() == dynamics._product(p, n_steps).tobytes()
        true_error = np.max(np.abs(u - ref))
        assert 0.5 * true_error <= ramp_error <= 2.0 * true_error


@pytest.mark.parametrize("tau, n", [(0.1, 600), (20.0, 9600)])
def test_self_sized_ramp_is_the_fixed_product(system, tau, n):
    """The ramp returns the product at the step count it settles on, and
    the estimate against the product at half of it, bit for bit: 600
    steps at the studied 0.1 ms drive, 9,600 at 20 ms."""
    p = replace(system, tau=tau)
    u, ramp_error = propagate_unitary(p)
    fine, coarse = dynamics._product(p, n), dynamics._product(p, n // 2)
    assert u.tobytes() == fine.tobytes()
    assert ramp_error == float(np.max(np.abs(fine - coarse))) / 15.0
    assert ramp_error <= dynamics.RAMP_TOL


def test_adiabaticity_baseline(system):
    assert adiabaticity(system) == pytest.approx(0.4072916737738594, abs=1e-9)


def test_adiabaticity_brute_force_oracle(system):
    """The vectorised midpoint oracle equals the generic scalar product
    propagator at 20,000 steps, and so does its branch crossing."""
    u = product_propagator(
        lambda t: oracles.hamiltonian_expansion(system, t), system.tau, 20000)
    u_vec = oracles.midpoint_unitary(system, 20000)
    assert_allclose(u_vec, u, atol=1e-12)
    _, cold_minus, _ = model.transition_energy(model.hamiltonian_cold(system))
    _, _, hot_plus = model.transition_energy(model.hamiltonian_hot(system))
    xi = abs(np.vdot(hot_plus, u @ cold_minus)) ** 2
    assert oracles.branch_crossing(system, u_vec) == pytest.approx(
        xi, abs=1e-10)


def test_adiabaticity_limits(system):
    slow = model.SystemParams(2.0, 3.6, 10.0, 0.2)
    assert adiabaticity(slow) < 1e-4
    # the level shift makes the ramp less adiabatic at fixed duration
    plain = model.SystemParams(2.0, 3.6, 0.1, 0.0)
    assert adiabaticity(system) > adiabaticity(plain)


def test_generator_against_kronecker_form(system, rng):
    """apply_generator vs the column-stacked superoperator matrix."""
    h = model.hamiltonian_hot(system)
    a = oracles.jump_operator(h)
    ad = dag(a)
    ada, aad = ad @ a, a @ ad
    big_g, g_t = 0.73, 0.41
    eye = np.eye(2)
    lmat = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            + big_g * (np.kron(a.conj(), a) - 0.5 * np.kron(eye, ada)
                       - 0.5 * np.kron(ada.T, eye))
            + g_t * (np.kron(ad.conj(), ad) - 0.5 * np.kron(eye, aad)
                     - 0.5 * np.kron(aad.T, eye)))
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = (m + dag(m)) / 2
        mine = apply_generator(rho, h, a, big_g, g_t)
        ref = (lmat @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
        assert_allclose(mine, ref, atol=1e-13)


def test_generator_decouples_in_eigenbasis(system):
    """Populations and coherences evolve independently.

    Writing the generator in the energy eigenbasis, matrix elements that
    connect the diagonal sector to the off-diagonal one must all vanish.
    """
    h = model.hamiltonian_hot(system)
    a = oracles.jump_operator(h)
    _, vm, vp = model.transition_energy(h)
    basis = [np.outer(vp, vp.conj()), np.outer(vm, vm.conj()),
             np.outer(vp, vm.conj()), np.outer(vm, vp.conj())]
    smat = np.empty((4, 4), dtype=complex)
    for j, e_j in enumerate(basis):
        image = apply_generator(e_j, h, a, 0.83, 0.29)
        for i, e_i in enumerate(basis):
            smat[i, j] = np.trace(dag(e_i) @ image)
    assert np.max(np.abs(smat[:2, 2:])) < 1e-12
    assert np.max(np.abs(smat[2:, :2])) < 1e-12


def test_evolve_open_grid_contract(system, hot_bath):
    h = model.hamiltonian_hot(system)
    rt = build_rate_trajectory(hot_bath, conftest.EPS_HOT, 0.5)
    frame = state_frame(state_from_population(h, 0.3), h)
    with pytest.raises(ValueError):
        evolve_open(frame, [rt], np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        evolve_open(frame, [rt], np.array([0.0, 0.3, 0.6]))  # past table


def test_evolve_open_closed_system_limit(system):
    """Zero coupling must reproduce the unitary conjugation orbit."""
    h = model.hamiltonian_hot(system)
    off = BathSpec(alpha=0.0, omega_c=30.0, beta=0.1)
    rt = build_rate_trajectory(off, conftest.EPS_HOT, 2.0)
    v = np.array([1.0, 0.5 + 0.5j])
    v /= np.linalg.norm(v)
    rho0 = DensityMatrix.from_matrix(np.outer(v, v.conj()))
    grid = np.linspace(0.0, 2.0, 201)
    traj = evolve_open(state_frame(rho0, h), [rt], grid)
    states = contact_states(rho0, h, traj.p[0], traj.c)
    for i, t in enumerate(grid):
        u = expm_aherm(h, t)
        assert_allclose(states[i], u @ rho0.mat @ dag(u), atol=1e-8)
    assert np.max(_trace_dev(states)) < 1e-8


def test_evolve_open_detailed_balance_fixed_point(system, hot_bath):
    """Constant golden-rule rates drive any state to the bath occupation."""
    h = model.hamiltonian_hot(system)
    g_inf, gt_inf = oracles.markov_limits(hot_bath, conftest.EPS_HOT)
    times = np.linspace(0.0, 3.0, 301)
    ones = np.ones(times.size)
    rt = RateTrajectory(times, g_inf * ones, gt_inf * ones,
                        (2 * g_inf - gt_inf) * ones, 0.0, True)
    nbar = oracles.occupation(hot_bath, conftest.EPS_HOT)
    for rho0 in (state_from_population(h, 0.3),
                 density_from_bloch(1.0, 0.0, 0.0)):
        traj = evolve_open(state_frame(rho0, h), [rt], times)
        assert traj.p[0, -1] == pytest.approx(nbar, abs=1e-6)
        assert abs(traj.c[-1]) < 1e-5


def test_evolve_open_against_decoupled_closed_form(system, hot_bath):
    """Full integrator vs the scalar rate equation plus damped phase.

    The population obeys dp/dt = |k|^2 (-Gamma p + tilde (1 - p)) and the
    coherence is c(0) e^{-i e t} times exp(-|k|^2 int gamma); both are solved
    here with scipy primitives only.
    """
    h = model.hamiltonian_hot(system)
    a = oracles.jump_operator(h)
    _, vm, vp = model.transition_energy(h)
    k2 = float(np.trace(dag(a) @ a).real)
    rt = build_rate_trajectory(hot_bath, conftest.EPS_HOT, 1.05)
    grid = np.linspace(0.0, 1.0, 2001)

    mix = 0.25 * np.eye(2) + 0.5 * state_from_population(h, 0.3).mat
    v = np.array([1.0, 1.0j]) / math.sqrt(2)
    rho0 = DensityMatrix.from_matrix(
        0.7 * mix + 0.3 * np.outer(v, v.conj()))
    traj = evolve_open(state_frame(rho0, h), [rt], grid)

    cs_big = CubicSpline(rt.times, rt.big_gamma)
    cs_til = CubicSpline(rt.times, rt.gamma_tilde)
    p0 = float(np.real(np.vdot(vp, rho0.mat @ vp)))
    sol = solve_ivp(
        lambda t, y: [k2 * (-cs_big(t) * y[0] + cs_til(t) * (1.0 - y[0]))],
        (0.0, 1.0), [p0], t_eval=grid, rtol=1e-11, atol=1e-13, method="Radau")
    assert np.max(np.abs(sol.y[0] - traj.p[0])) < 1e-7

    damping = CubicSpline(rt.times, rt.gamma).antiderivative()
    c0 = complex(np.vdot(vp, rho0.mat @ vm))
    c_ref = c0 * np.exp(-1j * conftest.EPS_HOT * grid - k2 * damping(grid))
    assert np.max(np.abs(traj.c - c_ref)) < 1e-8


def test_truncated_equilibration_endpoint(system, hot_bath, rate_table):
    """Ten milliseconds of contact pins the state to the inverted thermal
    target within a part in a thousand."""
    h_cold = model.hamiltonian_cold(system)
    h_hot = model.hamiltonian_hot(system)
    rho_in = state_from_population(h_cold, 0.261)
    u, _ = propagate_unitary(system)
    rho_exp = DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))
    traj = evolve_open(state_frame(rho_exp, h_hot), [rate_table(30.0)],
                       np.linspace(0.0, 10.0, 1001))
    states = contact_states(rho_exp, h_hot, traj.p[0], traj.c)
    final = states[-1]
    target = state_from_population(h_hot, 0.99).mat
    assert np.max(np.abs(final - target)) < 1e-3
    assert np.max(_trace_dev(states)) < 1e-8


def test_positivity_along_baseline_heating(system, rate_table):
    h = model.hamiltonian_hot(system)
    rho_in = state_from_population(model.hamiltonian_cold(system), 0.261)
    u, _ = propagate_unitary(system)
    rho_exp = DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))
    traj = evolve_open(state_frame(rho_exp, h), [rate_table(25.0)],
                       np.linspace(0.0, 2.0, 401))
    assert np.min(traj.min_eig) > -1e-6
    state = DensityMatrix.from_matrix(
        contact_states(rho_exp, h, traj.p[0], traj.c)[-1])
    assert state.min_eig > -1e-6


# the RK45 oracle run tight enough that its own error sits far below the
# comparison bound
ORACLE_TOL = dict(rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("omega_c", [5.0, 15.0, 25.0, 30.0])
def test_evolve_open_matches_rk45_oracle(omega_c):
    """Closed-form heating stroke vs the RK45 integrator on the default
    truncation grid of each studied cutoff."""
    cfg = cycle.build_config(omega_c=omega_c)
    su = cycle._setup(cfg)
    grid = cfg.heating_grid()
    rt = build_rate_trajectory(cfg.hot_bath, su.eps,
                               grid[-1] + cycle._TABLE_MARGIN)
    exact = evolve_open(su, [rt], grid)
    h_hot = model.hamiltonian_hot(cfg.system)
    u, _ = propagate_unitary(cfg.system)
    rho_in = state_from_population(model.hamiltonian_cold(cfg.system),
                                   cfg.p_plus_cold)
    rho_exp = DensityMatrix.from_matrix(u @ rho_in.mat @ dag(u))
    ref = oracles.evolve_open(rho_exp, h_hot, rt,
                              oracles.jump_operator(h_hot), grid,
                              **ORACLE_TOL)
    states = contact_states(rho_exp, h_hot, exact.p[0], exact.c)
    assert np.max(np.abs(states - ref.states)) <= 1e-10


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_cooling_stroke_matches_rk45_oracle(system):
    cfg = cycle.build_config()
    h_cold = model.hamiltonian_cold(system)
    u, _ = propagate_unitary(system)
    rho_comp = DensityMatrix.from_matrix(
        dag(u) @ state_from_population(model.hamiltonian_hot(system),
                                       0.99).mat @ u)
    exact = oracles.run_cooling(cfg, rho_comp, t_max=10.0, dt=0.01)
    rt = build_rate_trajectory(cfg.cold_bath, conftest.EPS_COLD,
                               10.0 + cycle._TABLE_MARGIN)
    ref = oracles.evolve_open(rho_comp, h_cold, rt,
                              oracles.jump_operator(h_cold), exact.times,
                              **ORACLE_TOL)
    assert np.max(np.abs(exact.states - ref.states)) <= 1e-10


def _quadratic(t, c0, c2, t0):
    # c0 + c2 (t - t0)^2 >= 0 for c0, c2 >= 0; a cubic spline through its
    # samples reproduces it, so the interpolated rate stays >= 0 too
    return c0 + c2 * (t - t0) ** 2


_rate = st.floats(0.0, 5.0)
_unit = st.floats(-1.0, 1.0)
_bloch = st.tuples(_unit, _unit, _unit).filter(
    lambda v: math.hypot(*v) > 1e-3)


@settings(max_examples=40, deadline=None)
@given(bg=st.tuples(_rate, _rate, st.floats(0.0, 2.0)),
       gt=st.tuples(_rate, _rate, st.floats(0.0, 2.0)),
       direction=_bloch, radius=st.floats(0.0, 1.0))
def test_closed_form_stroke_is_a_state_path(system, bg, gt, direction,
                                            radius):
    """Unit trace, Hermiticity and positivity along the exact stroke.

    Both channel rates stay non-negative, so Lambda' = big_gamma +
    gamma_tilde does too.  The decay rate must be non-negative as well:
    with big_gamma < 0 the excited population can pass 1 even while
    Lambda' and gamma_tilde stay non-negative.
    """
    h = model.hamiltonian_hot(system)
    times = np.linspace(0.0, 2.0, 81)
    big_gamma = _quadratic(times, *bg)
    gamma_tilde = _quadratic(times, *gt)
    rt = RateTrajectory(times, 0.5 * (big_gamma + gamma_tilde), gamma_tilde,
                        big_gamma, 0.0, True)
    n = radius * np.asarray(direction) / math.hypot(*direction)
    rho0 = density_from_bloch(*n)
    traj = evolve_open(state_frame(rho0, h), [rt], np.linspace(0.0, 2.0, 57))
    states = contact_states(rho0, h, traj.p[0], traj.c)
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-12
    assert np.max(np.abs(states - np.conj(
        np.swapaxes(states, 1, 2)))) <= 1e-15
    assert np.min(traj.min_eig) >= -1e-12
    eigs = np.linalg.eigvalsh(states)
    assert_allclose(eigs[:, 0], traj.min_eig[0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(omega_c=st.floats(2.0, 40.0), p_target=st.floats(0.02, 0.98),
       alpha=st.floats(0.1, 1.0), p_start=st.floats(0.0, 1.0),
       k_dlam=st.floats(0.05, 2.0))
# without the step bound this case ends at nbar + 1.3e-9
@example(omega_c=2.0, p_target=0.5, alpha=1.0, p_start=0.0, k_dlam=0.4)
def test_constant_rates_relax_to_bath_occupation(system, omega_c, p_target,
                                                 alpha, p_start, k_dlam):
    """Golden-rule rates held fixed drive the population to nbar(eps), on a
    table whose every step moves k Lambda by k_dlam: split into steps of at
    most _STEP_LAM, the stroke also matches the 6-point oracle on them."""
    h = model.hamiltonian_hot(system)
    a = oracles.jump_operator(h)
    eps, vm, vp = model.transition_energy(h)
    spec = bath.BathSpec(alpha=alpha, omega_c=omega_c,
                         beta=model.beta_from_population(eps, p_target))
    g_inf, gt_inf = oracles.markov_limits(spec, conftest.EPS_HOT)
    k = abs(np.vdot(vm, a @ vp)) ** 2
    # at least forty relaxation times 1/(k Lambda'), Lambda' = 2 gamma
    n = math.ceil(40.0 / k_dlam)
    times = np.linspace(0.0, n * k_dlam / (2.0 * k * g_inf), n + 1)
    ones = np.ones(times.size)
    rt = RateTrajectory(times, g_inf * ones, gt_inf * ones,
                        (2 * g_inf - gt_inf) * ones, 0.0, True)
    frame = state_frame(state_from_population(h, p_start), h)
    k_lam, _, traj = contact_steps(frame, [rt], times)
    nbar = oracles.occupation(spec, conftest.EPS_HOT)
    assert traj.p[0, -1] == pytest.approx(nbar, abs=1e-12)
    assert np.max(np.diff(k_lam)) <= dynamics._STEP_LAM * (1.0 + 1e-9)
    assert np.max(np.abs(
        traj.p - oracles.gauss_contact(frame, [rt], times).p)) <= 1e-13


def _step_terms(h, rates, grid):
    """The k Lambda and source rows that `evolve_open` hands its
    population sum, with the Contact it returns."""
    return contact_steps(state_frame(state_from_population(h, 0.3), h),
                         rates, grid)


STROKES = ("wc=5", "wc=15", "wc=25", "wc=30", "sweep")


@pytest.mark.parametrize("label", STROKES)
def test_lobatto_sources_match_gauss_legendre_oracle(label):
    """The 4-point Lobatto source sum against the 6-point Gauss-Legendre
    one it replaced, on the benchmark's contact strokes; the coherence
    reads k Lambda only at the samples, so it keeps its bits.  The sweep
    batch steps over the table's own intervals from t = 0, and its first
    two, where the splines of gamma and gamma_tilde bend hardest, differ
    by 5.2e-12 (the 10-node rule agrees with the 6-point one to 2e-16)."""
    su, tables, grid = contact_strokes()[label]
    lib = evolve_open(su, tables, grid)
    ref = oracles.gauss_contact(su, tables, grid)
    assert np.array_equal(lib.times, ref.times)
    assert np.array_equal(lib.c, ref.c)
    assert np.max(np.abs(lib.p - ref.p)) <= (
        1e-11 if label == "sweep" else 4e-15)


@pytest.mark.parametrize("label", STROKES)
def test_benchmark_strokes_split_no_step(label):
    """k Lambda moves by at most 0.0150 over a step of the benchmark's
    contact strokes, inside _STEP_LAM: their steps are the samples and
    knots alone."""
    su, tables, grid = contact_strokes()[label]
    knots = tables[0].times
    k_lam = contact_steps(su, tables, grid)[0]
    assert k_lam.size == np.union1d(grid, knots[knots < grid[-1]]).size


@pytest.mark.parametrize("omega_c", [5.0, 15.0, 25.0, 30.0])
def test_population_sum_matches_step_loop(system, rate_table, omega_c):
    """The blocked cumulative sum against the interval-by-interval
    recurrence on the default truncation grid of each studied cutoff."""
    grid = cycle.build_config(omega_c=omega_c).heating_grid()
    k_lam, sources, _ = _step_terms(model.hamiltonian_hot(system),
                                    [rate_table(omega_c)], grid)
    for p0 in (0.0, 0.2612, 1.0):
        assert np.max(np.abs(dynamics._populations(p0, k_lam, sources)
                             - oracles.population_loop(p0, k_lam, sources))
                      ) <= 1e-13


def test_population_sum_matches_step_loop_over_a_batch(system):
    """Fifty reservoirs of the population sweep, summed as one batch."""
    h = model.hamiltonian_hot(system)
    eps = model.transition_energy(h)[0]
    specs = [BathSpec(alpha=0.6, omega_c=15.0,
                      beta=model.beta_from_population(eps, p))
             for p in np.linspace(0.5, 0.99, 50)]
    tables = bath.build_rate_trajectories(specs, conftest.EPS_HOT, 0.32)
    k_lam, sources, _ = _step_terms(h, tables, np.array([0.0, 0.27]))
    assert sources.shape[0] == 50
    assert np.max(np.abs(dynamics._populations(0.2612, k_lam, sources)
                         - oracles.population_loop(0.2612, k_lam, sources))
                  ) <= 1e-13


def test_batch_equals_single_tables():
    """One call over the fifty tables of the population sweep gives every
    table exactly the rows, and the coherence, of a call of its own."""
    cfg = cycle.build_config(omega_c=15.0)
    su = cycle._setup(cfg)
    grid = np.linspace(0.0, 0.27, 28)
    tables = bath.build_rate_trajectories(
        [cfg._reservoir(su.eps, p) for p in np.linspace(0.5, 0.99, 50)],
        su.eps, grid[-1] + cycle._TABLE_MARGIN)
    batch = evolve_open(su, tables, grid)
    assert np.array_equal(batch.times, grid)
    assert batch.p.shape == batch.min_eig.shape == (50, grid.size)
    for j, table in enumerate(tables):
        one = evolve_open(su, [table], grid)
        assert np.array_equal(batch.p[j], one.p[0])
        assert np.array_equal(batch.min_eig[j], one.min_eig[0])
        assert np.array_equal(batch.c, one.c)


def test_population_sum_does_not_overflow(system, hot_bath):
    """Constant rates over a stroke whose k Lambda passes 1,500: the
    integrating factor exp(k Lambda) alone would overflow, the blocked sum
    relaxes to the bath occupation."""
    h = model.hamiltonian_hot(system)
    g_inf, gt_inf = oracles.markov_limits(hot_bath, conftest.EPS_HOT)
    _, vm, vp = model.transition_energy(h)
    k = abs(np.vdot(vm, model.SIGMA_X @ vp)) ** 2
    times = np.linspace(0.0, 1600.0 / (2.0 * k * g_inf), 2001)
    ones = np.ones(times.size)
    rt = RateTrajectory(times, g_inf * ones, gt_inf * ones,
                        (2 * g_inf - gt_inf) * ones, 0.0, True)
    k_lam, sources, contact = _step_terms(h, [rt], times)
    [p] = contact.p
    assert k_lam[-1] > 1500.0
    assert np.all(np.isfinite(p))
    assert p[-1] == pytest.approx(
        oracles.occupation(hot_bath, conftest.EPS_HOT), abs=1e-12)
    # k Lambda moves by 0.8 over a table step, so the stroke splits every
    # one; the samples are the rows that hold the spline's k Lambda at the
    # sample times
    at_samples = k * CubicSpline(times, 2.0 * rt.gamma).antiderivative()(
        times)
    rows = np.searchsorted(k_lam, at_samples)
    assert k_lam.size > times.size
    assert np.array_equal(k_lam[rows], at_samples)
    assert np.max(np.abs(p - oracles.population_loop(
        0.3, k_lam, sources)[0, rows])) <= 1e-13


def test_rebuilt_states_give_back_the_stroke(system, hot_bath):
    """The states rebuilt from (p, c) keep the initial state's unit trace,
    sample 0 is the initial state bit for bit, and the rebuilt states give
    back (p, c)."""
    h = model.hamiltonian_hot(system)
    rt = build_rate_trajectory(hot_bath, conftest.EPS_HOT, 1.05)
    v = np.array([1.0, 1.0j]) / math.sqrt(2)
    rho0 = DensityMatrix.from_matrix(
        0.6 * state_from_population(h, 0.3).mat
        + 0.4 * np.outer(v, v.conj()))
    traj = evolve_open(state_frame(rho0, h), [rt], np.linspace(0.0, 1.0, 401))
    states = contact_states(rho0, h, traj.p[0], traj.c)
    assert np.max(_trace_dev(states)) <= 1e-15
    assert np.array_equal(states[0], rho0.mat)
    _, vm, vp = model.transition_energy(h)
    assert np.max(np.abs(np.einsum("i,tij,j->t", vp.conj(), states, vp)
                         - traj.p[0])) <= 1e-15
    assert np.max(np.abs(np.einsum("i,tij,j->t", vp.conj(), states, vm)
                         - traj.c)) <= 1e-15
