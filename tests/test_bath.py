"""Bath rate machinery against direct quadrature and closed-form limits."""

import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import sici, spherical_jn

import conftest
import oracles
from conftest import EPS_COLD, EPS_HOT
from oracles import (complex_remainder, filon_rates, markov_limits,
                     occupation, spectral_density)
from resolution_scan import (PREVIOUS_BASE, REFERENCE, carrier, deviation,
                             remainders, switched_deviation, tail_deviation,
                             wide_groups, workload_groups)
from qotto import ConfigError, bath
from qotto.bath import (BathSpec, build_rate_trajectory, rate_coefficients,
                        quadrature_error_estimate)
from qotto.cycle import CycleConfig, sweep_population


@pytest.mark.parametrize("kwargs", [
    dict(alpha=-0.1, omega_c=30.0, beta=0.1),
    dict(alpha=0.6, omega_c=0.0, beta=0.1),
    dict(alpha=0.6, omega_c=30.0, beta=math.inf),
    dict(alpha=0.6, omega_c=30.0, beta=math.nan),
    dict(alpha=0.6, omega_c=30.0, beta=0.1, mu=-1.0),
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        BathSpec(**kwargs)


@pytest.mark.parametrize("name", ["alpha", "omega_c", "beta", "mu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_values_must_be_finite(name, value):
    kwargs = dict(alpha=0.6, omega_c=30.0, beta=0.1, mu=0.0)
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        BathSpec(**{**kwargs, name: value})


def test_spec_allows_zero_coupling():
    # alpha = 0 is the switched-off bath used by closed-system checks
    BathSpec(alpha=0.0, omega_c=30.0, beta=0.1)


def test_spectral_density_values(hot_bath):
    assert spectral_density(hot_bath, 0.0) == 0.0
    # half the coupling times the cutoff at the cutoff itself
    assert spectral_density(hot_bath, 30.0) == pytest.approx(
        0.6 * 30.0 / 2.0, rel=1e-14)
    eps = conftest.EPS_HOT
    direct = 0.6 * eps * 900.0 / (900.0 + eps * eps)
    assert spectral_density(hot_bath, eps) == pytest.approx(direct, rel=1e-14)
    assert spectral_density(hot_bath, eps) == pytest.approx(8.675113177264125,
                                                           abs=1e-12)
    assert spectral_density(hot_bath, eps) == pytest.approx(8.676, abs=2e-3)


def test_spectral_density_rejects_negative_frequency(hot_bath):
    with pytest.raises(ValueError):
        spectral_density(hot_bath, -1.0)


def test_occupation_fermionic():
    flat = BathSpec(alpha=0.6, omega_c=30.0, beta=0.0)
    for w in (0.1, 12.9, 400.0):
        assert occupation(flat, w) == pytest.approx(0.5, abs=1e-15)
    saturated = BathSpec(alpha=0.6, omega_c=30.0, beta=-1e3)
    assert occupation(saturated, 1.0) == pytest.approx(1.0, abs=1e-12)
    cold = BathSpec(alpha=0.6, omega_c=30.0, beta=conftest.BETA_COLD)
    assert occupation(cold, conftest.EPS_COLD) == pytest.approx(0.261,
                                                               abs=1e-12)


def test_rates_vanish_at_switch_on(hot_bath):
    assert rate_coefficients([hot_bath], conftest.EPS_HOT, [0.0]) == [
        (0.0, 0.0, 0.0)]


def test_rates_reject_negative_time(hot_bath):
    with pytest.raises(ValueError):
        rate_coefficients([hot_bath], conftest.EPS_HOT, -0.5)


def test_markov_limit_values(hot_bath):
    g_inf, gt_inf = markov_limits(hot_bath, conftest.EPS_HOT)
    assert g_inf == pytest.approx(
        spectral_density(hot_bath, conftest.EPS_HOT) / 2.0, rel=1e-14)
    # detailed balance pins the ratio to the occupation, 0.99 here
    assert gt_inf / (2.0 * g_inf) == pytest.approx(0.99, abs=1e-12)

    off = BathSpec(alpha=0.0, omega_c=30.0, beta=0.1)
    assert markov_limits(off, conftest.EPS_HOT) == (0.0, 0.0)

    flat = BathSpec(alpha=0.6, omega_c=30.0, beta=0.0)
    g_flat, gt_flat = markov_limits(flat, conftest.EPS_HOT)
    assert gt_flat == pytest.approx(g_flat, rel=1e-14)


@pytest.mark.parametrize("omega_c", [15.0, 25.0, 30.0])
def test_rates_converge_to_markov_limits(omega_c):
    """Long after switch-on the transient rates settle on the golden-rule
    values; by t = 1e3 ms the residual must be below one percent."""
    b = BathSpec(alpha=0.6, omega_c=omega_c, beta=conftest.BETA_HOT)
    g, gt, _ = rate_coefficients([b], conftest.EPS_HOT, [1e3])[0]
    g_inf, gt_inf = markov_limits(b, conftest.EPS_HOT)
    assert g == pytest.approx(g_inf, rel=1e-2)
    assert gt == pytest.approx(gt_inf, rel=1e-2)


def test_decay_channel_sign_depends_on_cutoff(rate_table):
    """Sharp cutoff keeps the decay coefficient positive; a soft one drives
    it negative in transients.  All rates vanish identically at switch-on,
    so the sign statement concerns t > 0."""
    assert np.min(rate_table(25.0).big_gamma[1:]) > 0.0
    assert np.min(rate_table(5.0).big_gamma) < 0.0


def test_rates_linear_in_coupling():
    ts = np.linspace(0.01, 2.0, 7)
    weak = BathSpec(alpha=0.6, omega_c=30.0, beta=conftest.BETA_HOT)
    strong = BathSpec(alpha=1.2, omega_c=30.0, beta=conftest.BETA_HOT)
    gw, gtw, _ = rate_coefficients([weak], conftest.EPS_HOT, ts)[0]
    gs, gts, _ = rate_coefficients([strong], conftest.EPS_HOT, ts)[0]
    assert_allclose(gs, 2.0 * gw, rtol=1e-10)
    assert_allclose(gts, 2.0 * gtw, rtol=1e-10)


def test_inner_time_integral_reduction(rng):
    """The s-integral collapses to sin((w - e)t)/(w - e); quadrature agrees."""
    for _ in range(5):
        w, eps, t = rng.uniform(0.3, 40.0, size=3)
        closed = math.sin((w - eps) * t) / (w - eps)
        numeric = quad(lambda s: math.cos((w - eps) * (t - s)), 0.0, t,
                       limit=200)[0]
        assert numeric == pytest.approx(closed, abs=1e-8)


def confined_slope(b: BathSpec, w: float) -> float:
    """d/dw of the remainder envelope 2 J/(2pi) expit(-|beta|(w - mu))."""
    wc2 = b.omega_c ** 2
    dg = b.alpha * wc2 * (wc2 - w * w) / (wc2 + w * w) ** 2 / (2 * math.pi)
    g = spectral_density(b, w) / (2 * math.pi)
    r = 1.0 / (1.0 + math.exp(abs(b.beta) * (w - b.mu)))
    return 2.0 * (dg * r - g * abs(b.beta) * r * (1.0 - r))


@pytest.mark.parametrize("omega_c", [5.0, 30.0])
def test_panel_quadrature_against_qawo(omega_c):
    """Independent oscillatory quadrature of the regularised integrand.

    The confined remainder splits into smooth-envelope panels and a
    sine-integral singularity term.  The panel piece equals
    int_0^W psi(w) sin((w - e)t) dw with psi smooth, which scipy's
    Clenshaw-Curtis oscillatory rule can evaluate without any shared code.
    """
    eps = conftest.EPS_HOT
    b = BathSpec(alpha=0.6, omega_c=omega_c, beta=conftest.BETA_HOT)
    order, div, scale = bath._BASE_RESOLUTION
    omega_max = scale * (b.mu + bath._REACH / abs(b.beta))
    h_eps = float(bath._envelope(b, np.asarray(eps)))
    d_eps = confined_slope(b, eps)

    def psi(w):
        d = w - eps
        if abs(d) < 1e-7:
            return d_eps
        return float((bath._envelope(b, np.asarray([w])) - h_eps)[0] / d)

    for t in (0.013, 0.37, 2.1):
        s_part = quad(psi, 0.0, omega_max, weight="sin", wvar=t,
                      limit=2000, epsabs=1e-12, epsrel=1e-12)[0]
        c_part = quad(psi, 0.0, omega_max, weight="cos", wvar=t,
                      limit=2000, epsabs=1e-12, epsrel=1e-12)[0]
        sing = h_eps * (sici((omega_max - eps) * t)[0] + sici(eps * t)[0])
        oracle = math.cos(eps * t) * s_part - math.sin(eps * t) * c_part \
            + sing
        mine = bath._remainder([b], eps, np.array([t]), order, div,
                               scale)[0, 0]
        assert mine == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("order", [14, 16, 22, 26])
def test_bessel_sum_against_spherical_jn(order, rng):
    """The recurrence sums, even and odd orders apart, against scipy's
    spherical_jn, order by order: at z = 0, across 12 decades, at the
    zeros n*pi of j_0 (where the downward branch normalizes by j_1) and
    on both sides of z = order (where the upward branch takes over)."""
    edge = float(order)
    z = np.concatenate([
        [0.0], np.geomspace(1e-8, 1e4, 241), np.linspace(0.0, 60.0, 601),
        np.pi * np.arange(1, 5),
        [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]])
    z = np.stack([z, z[::-1], rng.permutation(z)])       # three panels
    coef = rng.normal(size=(3, order))
    oracle = [sum(coef[:, k, None] * spherical_jn(k, z)
                  for k in range(parity, order, 2)) for parity in (0, 1)]
    even, odd = bath._bessel_sum(coef, z)
    assert_allclose(even, oracle[0], rtol=0, atol=1e-14)
    assert_allclose(odd, oracle[1], rtol=0, atol=1e-14)


def test_remainder_runs_one_recurrence_per_pass(monkeypatch):
    """spherical_jn has left the library, and a table shorter than one
    block runs the Bessel recurrence once per pass, base and check, on
    real coefficients, however many panels it has: the two reservoirs
    below have 6 + 12 and 13 + 27 panels."""
    assert not hasattr(bath, "spherical_jn")
    calls = Counter()
    bessel_sum = bath._bessel_sum

    def counting(coef, z):
        assert coef.dtype == np.float64 and z.dtype == np.float64
        calls[coef.shape[1]] += 1
        return bessel_sum(coef, z)

    monkeypatch.setattr(bath, "_bessel_sum", counting)
    panels = set()
    for p_hot in (0.99, 0.51):
        spec = CycleConfig(p_plus_hot=p_hot).hot_bath
        for _, div, scale in (bath._BASE_RESOLUTION,
                              bath._FINE_RESOLUTION):
            w_max = scale * (spec.mu + bath._REACH / abs(spec.beta))
            panels.add(bath._panel_edges(spec, EPS_HOT, div, w_max).size - 1)
        calls.clear()
        rt = build_rate_trajectory(spec, EPS_HOT, 0.5)
        assert calls == {bath._BASE_RESOLUTION[0]: 1,
                         bath._FINE_RESOLUTION[0]: 1}
        assert rt.times.size <= bath._BLOCK
    assert panels == {6, 12, 13, 27}


@pytest.mark.parametrize("spec", [
    *(CycleConfig(omega_c=wc, p_plus_hot=p).hot_bath
      for wc in (2.0, 30.0) for p in (0.51, 0.99)),
    CycleConfig().cold_bath],
    ids=["hot-wc2-p0.51", "hot-wc2-p0.99", "hot-wc30-p0.51", "hot-wc30-p0.99",
         "cold"])
def test_remainder_against_complex_panel_sum(spec):
    """The real parity sums against the complex panel sum
    2 half Im(e^{i phi} sum_k i^k c_k j_k(half t)) with scipy's
    spherical_jn, at times that send points down both Bessel branches."""
    eps = EPS_COLD if spec.beta > 0.0 else EPS_HOT
    order, div, scale = res = bath._BASE_RESOLUTION
    t = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 60)])
    w_max = scale * (spec.mu + bath._REACH / abs(spec.beta))
    z = 0.5 * np.diff(bath._panel_edges(spec, eps, div, w_max))[:, None] * t
    assert np.any(z >= order) and np.any((z > 0.0) & (z < order))
    assert_allclose(bath._remainder([spec], eps, t, *res)[0],
                    complex_remainder(spec, eps, t, *res), rtol=0, atol=1e-14)


def test_base_resolution_matches_previous_on_workload_baths():
    """Fewer, wider panels of higher order give the benchmark's tables
    (29 nonmarkov cutoffs, 49 sweep populations, the four studied
    cutoffs) to 1e-14 of the previous base resolution."""
    groups = workload_groups()
    assert deviation(groups, bath._BASE_RESOLUTION,
                     remainders(groups, PREVIOUS_BASE)) < 1e-14


def test_base_resolution_matches_reference_on_wide_grid():
    """Cutoffs 2 to 100, populations on both sides of 1/2 and mu = 10,
    against order 28 on panels a sixth of the scale rule's width."""
    groups = wide_groups()
    assert deviation(groups, bath._BASE_RESOLUTION,
                     remainders(groups, REFERENCE)) < 5e-14


@pytest.mark.parametrize("grid, bound", [(workload_groups, 1e-14),
                                         (wide_groups, 5e-14)],
                         ids=["workload", "wide"])
def test_switched_remainder_matches_reference(grid, bound):
    """The stored remainder, quadrature before each bath's switch time and
    endpoint series from it on, against order 28 on panels a sixth as
    wide: within 1e-14 on the benchmark's tables and 5e-14 on the wide
    grid, the bounds the base resolution alone meets."""
    groups = grid()
    assert switched_deviation(groups, remainders(groups, REFERENCE)) < bound


@pytest.mark.parametrize("grid", [workload_groups, wide_groups],
                         ids=["workload", "wide"])
def test_series_alone_match_quadrature_and_closed_form(grid):
    """Past the switch times the endpoint series alone reach rounding:
    the remainder's within 1e-14 of the order-28 reference and gamma's
    within 1e-14 of the closed form, on both grids; each grid has times
    past the switch for both."""
    groups = grid()
    c_dev, g_dev, late = tail_deviation(groups, remainders(groups, REFERENCE))
    assert late > 0
    assert c_dev < 1e-14 and g_dev < 1e-14


@pytest.mark.parametrize("spec", [
    *(CycleConfig(omega_c=wc, mu=mu, p_plus_hot=p).hot_bath
      for wc in (5.0, 30.0, 100.0) for p in (0.51, 0.99) for mu in (0.0, 10.0)),
    CycleConfig().cold_bath],
    ids=lambda b: f"wc{b.omega_c:g}-beta{b.beta:.3g}-mu{b.mu:g}")
def test_rates_continuous_across_switch_times(spec):
    """One ulp before gamma's switch time 37/omega_c and the bath's own,
    quadrature or closed form; at them, the series: all three rates agree
    across each switch to 1e-14."""
    eps = EPS_COLD if spec.beta > 0.0 else EPS_HOT
    for switch in (bath._TAIL_REACH / spec.omega_c, bath._switch_time(spec)):
        t = np.array([np.nextafter(switch, 0.0), switch])
        for rate in rate_coefficients([spec], eps, t)[0]:
            assert abs(rate[1] - rate[0]) < 1e-14


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_quadrature_runs_only_before_each_switch_time(monkeypatch):
    """No base-resolution remainder pass receives a time at or past the
    switch time of a bath it computes, and the closed-form gamma none at
    or past 37/omega_c, the earliest switch time: in a batch that mixes
    switch times and in the single tables of two memory-scan cutoffs, all
    reaching past their switch times."""
    remainder, gamma = bath._remainder, bath._gamma
    base_passes = []

    def checked_remainder(specs, eps, t, order, *rest, **kw):
        if order == bath._BASE_RESOLUTION[0]:
            base_passes.append(len(specs))
            assert all(np.max(t) < bath._switch_time(s) for s in specs)
        return remainder(specs, eps, t, order, *rest, **kw)

    def checked_gamma(spec, eps, t, *rest):
        assert np.max(t) < bath._TAIL_REACH / spec.omega_c
        return gamma(spec, eps, t, *rest)

    monkeypatch.setattr(bath, "_remainder", checked_remainder)
    monkeypatch.setattr(bath, "_gamma", checked_gamma)
    mixed = [CycleConfig(p_plus_hot=p).hot_bath for p in (0.3, 0.5, 0.51, 0.99)]
    assert max(bath._switch_time(s) for s in mixed if s.beta) < 4.0
    bath.build_rate_trajectories(mixed, EPS_HOT, 4.0)
    # two distinct early-time sets among the three baths with beta != 0
    assert sorted(base_passes) == [1, 2]
    for omega_c in (15.0, 30.0):
        build_rate_trajectory(CycleConfig(omega_c=omega_c).hot_bath,
                              EPS_HOT, 10.0)
    assert len(base_passes) == 4


@pytest.mark.parametrize("omega_c", [5.0, 15.0, 30.0])
def test_quadrature_check_probes_series_values(monkeypatch, omega_c):
    """A table that reaches past its bath's switch time has a quad_error
    probe past it, so the check tests series values too."""
    estimate = bath.quadrature_error_estimate
    probes = []

    def recorded(specs, eps, ts, held):
        probes.append(np.asarray(ts))
        return estimate(specs, eps, ts, held)

    monkeypatch.setattr(bath, "quadrature_error_estimate", recorded)
    spec = CycleConfig(omega_c=omega_c).hot_bath
    assert bath._switch_time(spec) < 10.0
    rt = build_rate_trajectory(spec, EPS_HOT, 10.0)
    assert np.max(probes[0]) >= bath._switch_time(spec)
    assert rt.quad_error < bath.QUAD_TOL


def test_fine_resolution_is_strictly_finer():
    """The check has more orders, narrower panels and twice the range."""
    order, div, scale = bath._BASE_RESOLUTION
    fine_order, fine_div, fine_scale = bath._FINE_RESOLUTION
    assert fine_order > order and fine_div > div
    assert fine_scale == 2.0 * scale


def test_sweep_builds_one_gauss_rule_per_resolution(monkeypatch):
    """Every rate table and quadrature check of a sweep shares the Gauss
    rule of its order: leggauss runs once per resolution."""
    calls = Counter()
    leggauss = bath.leggauss

    def counting(order):
        calls[order] += 1
        return leggauss(order)

    monkeypatch.setattr(bath, "leggauss", counting)
    bath._gauss_rule.cache_clear()
    rows = sweep_population(CycleConfig(), np.linspace(0.9, 0.99, 10), 0.27)
    assert not any(row.error for row in rows)
    assert calls == {bath._BASE_RESOLUTION[0]: 1,
                     bath._FINE_RESOLUTION[0]: 1}


@pytest.mark.parametrize("t_max", [0.3, 10.0])
def test_remainder_block_memory_is_bounded(t_max):
    """One full block of the finest pass, at 27 panels, allocates less
    than one float64 (orders x panels x block) stack would: the orders
    are summed as they are produced.  The downward branch takes 53 % of
    the points at 0.3 ms and 8 % at 10 ms."""
    spec = CycleConfig(p_plus_hot=0.51).hot_bath
    order, div, scale = bath._FINE_RESOLUTION
    w_max = scale * (spec.mu + bath._REACH / abs(spec.beta))
    panels = bath._panel_edges(spec, EPS_HOT, div, w_max).size - 1
    assert panels == 27
    t = np.linspace(0.0, t_max, bath._BLOCK)
    tracemalloc.start()
    try:
        bath._remainder([spec], EPS_HOT, t, *bath._FINE_RESOLUTION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * order * panels * bath._BLOCK


def test_remainder_batch_memory_is_bounded():
    """The remainders of 50 populations over a 10 ms table, at the finest
    pass, stay under the bound of one bath's block above: a block stacks
    whole baths only up to 8 _BLOCK (panels x times) elements, or holds
    one bath, and is freed before the next block is computed."""
    specs = [CycleConfig(p_plus_hot=p).hot_bath
             for p in np.linspace(0.51, 0.99, 50)]
    order = bath._FINE_RESOLUTION[0]
    t = np.linspace(0.0, 10.0, bath.rate_table_size(specs[0], EPS_HOT, 10.0))
    tracemalloc.start()
    try:
        bath._remainder(specs, EPS_HOT, t, *bath._FINE_RESOLUTION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * order * 27 * bath._BLOCK


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@pytest.mark.parametrize("omega_c", [5.0, 30.0])
def test_batched_tables_match_single_tables(omega_c):
    """Tables built together, an inverted, an infinite-temperature and a
    positive-temperature reservoir among them, equal the tables built one
    bath at a time; at 4 ms the omega_c = 30 grid spans two time blocks."""
    specs = [CycleConfig(omega_c=omega_c, p_plus_hot=p).hot_bath
             for p in (0.3, 0.5, 0.51, 0.99)]
    assert [np.sign(s.beta) for s in specs] == [1.0, 0.0, -1.0, -1.0]
    batch = bath.build_rate_trajectories(specs, EPS_HOT, 4.0)
    assert len(batch) == len(specs)
    for spec, rt in zip(specs, batch):
        one = build_rate_trajectory(spec, EPS_HOT, 4.0)
        assert_array_equal(rt.times, one.times)
        for name in ("gamma", "gamma_tilde", "big_gamma"):
            assert_allclose(getattr(rt, name), getattr(one, name),
                            rtol=0, atol=2e-15)
        assert rt.quad_error == one.quad_error
        assert rt.weak_coupling_ok == one.weak_coupling_ok
    assert batch[1].quad_error == 0.0


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
def test_tables_of_two_cutoffs_match_single_tables():
    """One call over two cutoffs, an inverted, an infinite-temperature and
    a positive-temperature reservoir and a duplicate among the baths,
    returns in input order the tables built one bath at a time, byte for
    byte: each cutoff has its own grid, and one check pass tests all."""
    specs = [CycleConfig(omega_c=wc, p_plus_hot=p).hot_bath
             for wc, p in ((30.0, 0.99), (5.0, 0.5), (30.0, 0.3),
                           (5.0, 0.99), (30.0, 0.99))]
    assert [np.sign(s.beta) for s in specs] == [-1.0, 0.0, 1.0, -1.0, -1.0]
    batch = bath.build_rate_trajectories(specs, EPS_HOT, 4.0)
    assert len(batch) == len(specs)
    for spec, rt in zip(specs, batch):
        one = build_rate_trajectory(spec, EPS_HOT, 4.0)
        assert rt.times.size == bath.rate_table_size(spec, EPS_HOT, 4.0)
        for name in ("times", "gamma", "gamma_tilde", "big_gamma"):
            assert getattr(rt, name).tobytes() == getattr(one, name).tobytes()
        assert rt.quad_error == one.quad_error
        assert rt.weak_coupling_ok == one.weak_coupling_ok
    assert batch[1].quad_error == 0.0
    assert batch[0].times.size != batch[1].times.size


@pytest.mark.parametrize("n_times", [9, bath._BLOCK + 7])
def test_remainder_time_rows_match_single_calls(n_times):
    """Times given one row per bath give, byte for byte, each bath's call
    on its own row: nine probes, where baths share a block, and rows past
    one block, where each bath has blocks of its own."""
    specs = [CycleConfig(omega_c=wc, p_plus_hot=p, mu=mu).hot_bath
             for wc, p, mu in ((5.0, 0.99, 0.0), (30.0, 0.3, 0.0),
                               (15.0, 0.51, 10.0), (5.0, 0.99, 0.0))]
    t = np.stack([np.geomspace(1e-3, 0.5 * (i + 1), n_times)
                  for i in range(len(specs))])
    for res in (bath._BASE_RESOLUTION, bath._FINE_RESOLUTION):
        rows = bath._remainder(specs, EPS_HOT, t, *res)
        for spec, times, row in zip(specs, t, rows):
            one = bath._remainder([spec], EPS_HOT, times, *res)[0]
            assert row.tobytes() == one.tobytes()


def test_time_rows_must_match_the_baths(hot_bath):
    """2-D times hold one row per bath, counted before the baths at
    beta = 0 are set aside; probe times are always 2-D."""
    rows = np.linspace(0.1, 1.0, 18).reshape(2, 9)
    with pytest.raises(ValueError, match="2 time rows for 1 baths"):
        bath._remainder([hot_bath], EPS_HOT, rows, *bath._BASE_RESOLUTION)
    flat = replace(hot_bath, beta=0.0)
    for ts in (rows[:1], rows[0]):
        with pytest.raises(ValueError, match="need one row per bath"):
            quadrature_error_estimate([hot_bath, flat], EPS_HOT, ts,
                                      [np.zeros(9)] * 2)


def test_sweep_runs_two_remainder_passes(monkeypatch):
    """A 50-point population sweep evaluates the remainder twice: one base
    pass fills every table, one check pass tests them all."""
    calls = Counter()
    remainder = bath._remainder

    def counting(specs, eps, t, order, panel_div, range_scale, **kw):
        calls[order] += 1
        return remainder(specs, eps, t, order, panel_div, range_scale, **kw)

    monkeypatch.setattr(bath, "_remainder", counting)
    rows = sweep_population(CycleConfig(omega_c=15.0),
                            np.linspace(0.5, 0.99, 50), 0.27)
    assert len(rows) == 50 and not any(row.error for row in rows)
    assert calls == {bath._BASE_RESOLUTION[0]: 1,
                     bath._FINE_RESOLUTION[0]: 1}


def test_remainder_blocks_match_halves(hot_bath):
    """Times past one block give, bit for bit, what the two halves give
    on their own: the blocks change no value."""
    t = np.linspace(0.0, 2.0, bath._BLOCK + 101)
    m = t.size // 2
    res = bath._BASE_RESOLUTION
    whole = bath._remainder([hot_bath], EPS_HOT, t, *res)[0]
    halves = np.concatenate(
        [bath._remainder([hot_bath], EPS_HOT, t[:m], *res)[0],
         bath._remainder([hot_bath], EPS_HOT, t[m:], *res)[0]])
    assert whole.tobytes() == halves.tobytes()


def qawf_gamma(b: BathSpec, eps: float, t: float) -> float:
    """gamma(t) by adaptive quadrature: a smooth sinc piece on [0, 2e],
    scipy's QAWO rule on [2e, W] past the cutoff scale, and its QAWF
    Fourier rule for the 1/w^2 tail beyond W."""
    def g(w):
        return spectral_density(b, w) / (2 * math.pi)

    def tail(w):
        return g(w) / (w - eps)

    def fourier(lo, hi, **kw):
        # int tail(w) sin((w - e)t) dw from its sin(wt) and cos(wt) parts
        s_part = quad(tail, lo, hi, weight="sin", wvar=t, **kw)[0]
        c_part = quad(tail, lo, hi, weight="cos", wvar=t, **kw)[0]
        return math.cos(eps * t) * s_part - math.sin(eps * t) * c_part

    split = 20.0 * b.omega_c + 2.0 * eps
    near = quad(lambda w: g(w) * t * np.sinc((w - eps) * t / math.pi),
                0.0, 2.0 * eps, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    return (near
            + fourier(2.0 * eps, split, limit=2000, epsabs=1e-14,
                      epsrel=1e-13)
            + fourier(split, np.inf, epsabs=1e-14))


@pytest.mark.parametrize("omega_c", [5.0, 30.0, 100.0])
def test_closed_form_gamma_against_qawf(omega_c):
    """gamma against direct quadrature: the exponential-integral closed
    form before 37/omega_c and its endpoint series from there on, which
    at omega_c = 100 takes every time but the first."""
    b = BathSpec(alpha=0.6, omega_c=omega_c, beta=conftest.BETA_HOT)
    ts = np.array([0.013, 0.37, 2.1, 10.0])
    g, _, _ = rate_coefficients([b], conftest.EPS_HOT, ts)[0]
    for t, mine in zip(ts, g):
        assert mine == pytest.approx(qawf_gamma(b, conftest.EPS_HOT, t),
                                     abs=1e-12)


def test_scaled_exp_integrals_continuous_at_series_switch():
    x = oracles.ASYMPTOTIC_X * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    e1, ei = oracles.scaled_exp_integrals(x)
    assert e1[0] == pytest.approx(e1[1], rel=1e-14)
    assert ei[0] == pytest.approx(ei[1], rel=1e-14)


def test_closed_form_gamma_oracle_is_the_library_form():
    """Before 37/omega_c, where the library evaluates its closed form,
    the oracle that also reaches past it returns the same bits."""
    for omega_c in (2.0, 30.0, 100.0):
        b = BathSpec(alpha=0.6, omega_c=omega_c, beta=conftest.BETA_HOT)
        t = np.linspace(0.0, bath._TAIL_REACH / omega_c, 2002)[1:-1]
        si = sici(conftest.EPS_HOT * t)[0]
        assert (bath._gamma(b, conftest.EPS_HOT, t, si).tobytes()
                == oracles.closed_form_gamma(b, conftest.EPS_HOT, t).tobytes())


def _rate_cases():
    for omega_c in (2.0, 5.0, 11.0, 15.0, 25.0, 30.0, 60.0, 100.0):
        for mu in (0.0, 10.0):
            cfg = CycleConfig(omega_c=omega_c, mu=mu)
            yield f"cold-wc{omega_c:g}-mu{mu:g}", cfg.cold_bath, EPS_COLD
            for p in (0.5, 0.5001, 0.6, 0.8, 0.99):
                yield (f"p{p:g}-wc{omega_c:g}-mu{mu:g}",
                       replace(cfg, p_plus_hot=p).hot_bath, EPS_HOT)


def test_rates_match_two_envelope_engine():
    """Closed-form gamma plus the confined remainder reproduce the
    two-envelope quadrature with its tail expansion, for both reservoir
    signs and beta = 0 (p = 0.5)."""
    ts = np.concatenate(([0.0], np.geomspace(1e-4, 10.0, 40)))
    for label, spec, eps in _rate_cases():
        mine = rate_coefficients([spec], eps, ts)[0]
        ref = filon_rates(spec, eps, ts)
        for name, a, b in zip(("gamma", "gamma_tilde", "big_gamma"),
                              mine, ref):
            assert np.max(np.abs(a - b)) < 1e-9, (label, name)


def test_flat_occupation_has_equal_channels():
    flat = BathSpec(alpha=0.6, omega_c=30.0, beta=0.0)
    ts = np.geomspace(1e-3, 10.0, 7)
    g, gt, bg = rate_coefficients([flat], conftest.EPS_HOT, ts)[0]
    assert_array_equal(gt, g)
    assert_array_equal(bg, g)
    rt = build_rate_trajectory(flat, conftest.EPS_HOT, ts[-1])
    assert rt.quad_error == 0.0


def test_no_sliver_panel_at_transition_energy():
    """A walk between panel marks never ends on a sliver: the panel that
    ends at eps keeps at least 1 % of the width of the one after it, so
    no Gauss node crowds the removable singularity."""
    worst = math.inf
    for omega_c in np.linspace(0.5, 100.0, 200):
        for p in (0.51, 0.6, 0.8, 0.99):
            spec = CycleConfig(omega_c=float(omega_c), p_plus_hot=p).hot_bath
            for _, div, scale in (bath._BASE_RESOLUTION,
                                  bath._FINE_RESOLUTION):
                w_max = scale * (spec.mu + bath._REACH / abs(spec.beta))
                edges = bath._panel_edges(spec, EPS_HOT, div, w_max)
                i = int(np.flatnonzero(edges == EPS_HOT)[0])
                worst = min(worst, (edges[i] - edges[i - 1])
                            / (edges[i + 1] - edges[i]))
    assert worst >= 0.01


def test_quadrature_error_estimate_small(hot_bath):
    ts = np.geomspace(1e-3, 10.0, 9)
    held = rate_coefficients([hot_bath], conftest.EPS_HOT, ts)[0][2]
    assert quadrature_error_estimate([hot_bath], conftest.EPS_HOT, [ts],
                                     [held])[0] < 1e-8


def test_trajectory_grid_contract(rate_table):
    rt = rate_table(30.0)
    spacing = np.diff(rt.times)
    assert rt.times[0] == 0.0
    assert rt.times[-1] >= 10.0
    assert np.max(spacing) <= min(0.2 / conftest.EPS_HOT, 0.05 / 30.0) + 1e-12
    assert_allclose(rt.big_gamma, 2.0 * rt.gamma - rt.gamma_tilde, atol=0)
    assert np.min(rt.gamma_tilde) > -1e-12
    assert rt.quad_error < 1e-8


def test_trajectory_warns_when_tolerance_unreachable(hot_bath, monkeypatch):
    """An unconverged remainder quadrature (4 Legendre terms where the
    base has 22, estimate ~1e-4) is caught by the check."""
    monkeypatch.setattr(bath, "_BASE_RESOLUTION", (4, 1.0, 1.0))
    with pytest.warns(RuntimeWarning, match="convergence estimate"):
        build_rate_trajectory(hot_bath, conftest.EPS_HOT, 0.5)


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@pytest.mark.parametrize("beta", [conftest.BETA_HOT, conftest.BETA_COLD],
                         ids=["inverted", "positive"])
def test_trajectory_evaluates_each_remainder_once(monkeypatch, beta):
    """One base-resolution pass fills the table and the check reuses
    it; only the finer check remainder is evaluated besides."""
    calls = Counter()
    remainder = bath._remainder

    def counting(spec, eps, t, order, panel_div, range_scale, **kw):
        calls[order] += 1
        return remainder(spec, eps, t, order, panel_div, range_scale, **kw)

    monkeypatch.setattr(bath, "_remainder", counting)
    spec = BathSpec(alpha=0.6, omega_c=30.0, beta=beta)
    build_rate_trajectory(spec, conftest.EPS_HOT, 0.5)
    assert calls == {bath._BASE_RESOLUTION[0]: 1,
                     bath._FINE_RESOLUTION[0]: 1}


@pytest.mark.filterwarnings(conftest.MARGINAL_COUPLING)
@pytest.mark.parametrize("beta", [conftest.BETA_HOT, conftest.BETA_COLD],
                         ids=["inverted", "positive"])
def test_trajectory_check_reads_stored_values(monkeypatch, beta):
    """A table whose stored remainder is off by 1e-6 fails the check,
    although the quadrature itself is converged."""
    rates = bath.rate_coefficients

    def shifted(specs, eps, t):
        # the remainder is big_gamma below beta = 0, gamma_tilde above
        return [(g, gt, bg + 1e-6) if spec.beta < 0.0 else (g, gt + 1e-6, bg)
                for spec, (g, gt, bg) in zip(specs, rates(specs, eps, t))]

    monkeypatch.setattr(bath, "rate_coefficients", shifted)
    spec = BathSpec(alpha=0.6, omega_c=30.0, beta=beta)
    with pytest.warns(RuntimeWarning, match="convergence estimate"):
        rt = build_rate_trajectory(spec, conftest.EPS_HOT, 0.5)
    assert rt.quad_error == pytest.approx(1e-6, rel=1e-3)


def test_trajectory_size_is_bounded(hot_bath, monkeypatch):
    """A table longer than MAX_POINTS is refused before it is allocated:
    0.1 ms at spacing 0.05/30 ms needs 61 points."""
    monkeypatch.setattr(bath, "MAX_POINTS", 61)
    rt = build_rate_trajectory(hot_bath, conftest.EPS_HOT, 0.1)
    assert rt.times.size == 61
    assert bath.rate_table_size(hot_bath, conftest.EPS_HOT, 0.1) == 61
    monkeypatch.setattr(bath, "MAX_POINTS", 60)
    with pytest.raises(ConfigError, match="needs 61 points, more than 60"):
        build_rate_trajectory(hot_bath, conftest.EPS_HOT, 0.1)
    with pytest.raises(ConfigError, match="needs inf points"):
        build_rate_trajectory(replace(hot_bath, omega_c=1e308),
                              conftest.EPS_HOT, 0.1)


def test_trajectory_flags_marginal_coupling():
    cold = BathSpec(alpha=0.6, omega_c=30.0, beta=conftest.BETA_COLD)
    with pytest.warns(RuntimeWarning, match="weak-coupling"):
        rt = build_rate_trajectory(cold, conftest.EPS_COLD, 0.5)
    assert not rt.weak_coupling_ok


def test_trajectory_weak_coupling_at_baseline(rate_table):
    # hot-bath drive stays comfortably below the transition energy
    rt = rate_table(30.0)
    assert rt.weak_coupling_ok
    assert np.max(np.abs(rt.big_gamma)) < conftest.EPS_HOT / 5.0


def test_trajectory_rejects_bad_horizon(hot_bath):
    with pytest.raises(ValueError):
        build_rate_trajectory(hot_bath, conftest.EPS_HOT, 0.0)
