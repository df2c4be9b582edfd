"""Accuracy and cost of the confined rate remainder at candidate resolutions.

    PYTHONPATH=src python tests/resolution_scan.py [--orders 14,20,22,24]
                                                   [--divs 1,2,3]
    PYTHONPATH=src python tests/resolution_scan.py --tail [--terms 24,30]
                                   [--radii 0.6,0.7] [--reaches 33,37]
    PYTHONPATH=src python tests/resolution_scan.py --contact

For every candidate (Legendre order, panel divisor) at range scale 1, the
script prints the largest absolute deviation of `bath._remainder` from the
reference resolution `REFERENCE` (order 28 on panels a sixth of the width
the scale rule gives) on two grids of baths, the (panel x time) elements
the candidate evaluates on the first grid, and the best of three timings
of it there.  The library's `bath._BASE_RESOLUTION`, the previous base
resolution `PREVIOUS_BASE` and the check resolution
`bath._FINE_RESOLUTION` are always scanned as well.

* The workload grid holds the rate tables the benchmark builds at seed 0:
  the 29 `nonmarkov` cutoffs 2 ... 30 at p_plus_hot = 0.99 over 10 ms,
  the 50 `sweep-population` points 0.50 ... 0.99 at omega_c = 15 over
  0.32 ms, and the four studied cutoffs 5, 15, 25 and 30 over 10.05 ms,
  each at its table's own times.
* The wide grid holds omega_c in {2, 30, 100} x p_plus_hot in {0.3, 0.49,
  0.51, 0.6, 0.99} x mu in {0, 10} at `WIDE_TIMES`.

With `--tail` the script scans the endpoint series instead: for every
candidate (terms, radius fraction, reach) it sets `bath._TAIL_TERMS`,
`bath._TAIL_RADIUS` and `bath._TAIL_REACH`, and prints the largest
deviation past the switch times of the remainder series from the reference
on both grids and of the gamma series from `oracles.closed_form_gamma`,
the table times the series take over on the workload grid, and the best of
three timings of the series there.  The library's constants are always
scanned as well.

With `--contact` the script reports the nodes per step of the contact
stroke instead: for each contact stroke the seed-0 benchmark runs (a full
cycle at each studied cutoff and the 50-table population sweep batch) it
prints the largest population deviation of `dynamics.evolve_open`, whose
source sum is a 4-point Gauss-Lobatto rule, from `oracles.gauss_contact`
at 6 nodes (the rule it replaced) and at 10 nodes (the reference), the
largest move of k Lambda over one of its steps, its step count and the
best of three timings of it.

`test_bath.py` checks the library's base resolution and its series on both
grids, so this script re-derives the constants those tests hold.  Pytest
does not collect this file.
"""
from __future__ import annotations

import argparse
import time
from functools import cache

import numpy as np
from scipy.special import sici

import oracles
from qotto import bath, dynamics
from qotto.cycle import _TABLE_MARGIN, CycleConfig, _setup
from qotto.model import hamiltonian_hot, transition_energy

# the base resolution before (22, 1.0, 1.0): the oracle of the new one
PREVIOUS_BASE = (14, 3.0, 1.0)
# the converged reference both grids are measured against
REFERENCE = (28, 6.0, 1.0)

WIDE_TIMES = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 100),
                             np.linspace(0.0, 10.05, 1001)[1:]])


def _group(cfgs, t_max):
    """(baths, eps, times) of hot baths that share one rate table grid."""
    eps = transition_energy(hamiltonian_hot(cfgs[0].system))[0]
    # at beta = 0 no remainder is computed
    baths = [c.hot_bath for c in cfgs if c.hot_bath.beta != 0.0]
    times = np.linspace(0.0, t_max, bath.rate_table_size(baths[0], eps, t_max))
    return baths, eps, times


def workload_groups():
    """The seed-0 benchmark's rate tables, one group per grid."""
    groups = [_group([CycleConfig(omega_c=float(wc))], 10.0)
              for wc in range(2, 31)]
    groups.append(_group([CycleConfig(omega_c=15.0, p_plus_hot=p)
                          for p in np.round(np.linspace(0.5, 0.99, 50), 2)],
                         0.27 + _TABLE_MARGIN))
    groups += [_group([CycleConfig(omega_c=wc)], 10.0 + _TABLE_MARGIN)
               for wc in (5.0, 15.0, 25.0, 30.0)]
    return groups


def wide_groups():
    """Cutoffs, populations on both sides of 1/2 and chemical potentials
    beyond the workloads, one group per (omega_c, mu) at WIDE_TIMES."""
    groups = []
    for wc in (2.0, 30.0, 100.0):
        for mu in (0.0, 10.0):
            cfgs = [CycleConfig(omega_c=wc, mu=mu, p_plus_hot=p)
                    for p in (0.3, 0.49, 0.51, 0.6, 0.99)]
            groups.append(([c.hot_bath for c in cfgs],
                           transition_energy(
                               hamiltonian_hot(cfgs[0].system))[0],
                           WIDE_TIMES))
    return groups


def remainders(groups, resolution) -> list[np.ndarray]:
    """One (baths x times) remainder array per group."""
    return [bath._remainder(baths, eps, t, *resolution)
            for baths, eps, t in groups]


def deviation(groups, resolution, reference: list) -> float:
    """Largest |C - C_ref| over every bath and time of the groups, against
    the `remainders` of the groups at a reference resolution."""
    return max(float(np.max(np.abs(a - b))) for a, b in
               zip(remainders(groups, resolution), reference))


def elements(groups, panel_div: float, range_scale: float) -> int:
    """Panels times table times summed over the groups' baths."""
    total = 0
    for baths, eps, t in groups:
        for b in baths:
            w_max = range_scale * (b.mu + bath._REACH / abs(b.beta))
            total += (bath._panel_edges(b, eps, panel_div, w_max).size - 1) \
                * t.size
    return total


def carrier(eps: float, t: np.ndarray) -> tuple:
    """(t, Si(e t), cos(e t), sin(e t)), the arguments of both series."""
    return t, sici(eps * t)[0], np.cos(eps * t), np.sin(eps * t)


def switched_deviation(groups, reference: list) -> float:
    """Largest |C - C_ref| of the remainders `bath.rate_coefficients`
    stores, quadrature before each bath's switch time and series from it
    on, against the `remainders` of the groups at a reference resolution."""
    worst = 0.0
    for (baths, eps, t), ref in zip(groups, reference):
        for b, (_, gt, bg), r in zip(
                baths, bath.rate_coefficients(baths, eps, t), ref):
            worst = max(worst, float(np.max(np.abs(
                (bg if b.beta < 0.0 else gt) - r))))
    return worst


def tail_deviation(groups, reference: list) -> tuple[float, float, int]:
    """(C deviation, gamma deviation, late times): the endpoint series
    alone from each switch time on, the remainder's against the reference
    and gamma's against the closed form, and how many table times of the
    groups' baths the remainder series takes over."""
    worst_c = worst_g = 0.0
    late_times = 0
    for (baths, eps, t), ref in zip(groups, reference):
        late = t[t >= bath._TAIL_REACH / baths[0].omega_c]
        if late.size:
            args = carrier(eps, late)
            worst_g = max(worst_g, float(np.max(np.abs(
                bath._gamma_series(baths[0], eps, *args)
                - oracles.closed_form_gamma(baths[0], eps, late)))))
        for b, r in zip(baths, ref):
            late = t >= bath._switch_time(b)
            late_times += int(np.count_nonzero(late))
            if late.any():
                worst_c = max(worst_c, float(np.max(np.abs(
                    bath._remainder_series(b, eps, *carrier(eps, t[late]))
                    - r[late]))))
    return worst_c, worst_g, late_times


def series_seconds(groups) -> float:
    """Best of three timings of both series over the groups' late times."""
    secs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for baths, eps, t in groups:
            late = t[t >= bath._TAIL_REACH / baths[0].omega_c]
            if late.size:
                bath._gamma_series(baths[0], eps, *carrier(eps, late))
            for b in baths:
                late = t[t >= bath._switch_time(b)]
                if late.size:
                    bath._remainder_series(b, eps, *carrier(eps, late))
        secs.append(time.perf_counter() - t0)
    return min(secs)


def scan_tail(args) -> int:
    """The --tail report: one line per series candidate."""
    library = (bath._TAIL_TERMS, bath._TAIL_RADIUS, bath._TAIL_REACH)
    candidates = {(int(n), float(r), float(a)) for n in args.terms.split(",")
                  for r in args.radii.split(",")
                  for a in args.reaches.split(",")} | {library}
    work, wide = workload_groups(), wide_groups()
    ref_work, ref_wide = remainders(work, REFERENCE), remainders(wide, REFERENCE)
    print(f"reference {REFERENCE}; deviations are absolute, rad/ms, from "
          f"the switch times on")
    print(f"{'terms':>5} {'radius':>6} {'reach':>5} {'workload C':>10} "
          f"{'wide C':>9} {'workload g':>10} {'wide g':>9} {'late':>7} "
          f"{'time s':>7}")
    try:
        for cand in sorted(candidates):
            bath._TAIL_TERMS, bath._TAIL_RADIUS, bath._TAIL_REACH = cand
            c_work, g_work, late = tail_deviation(work, ref_work)
            c_wide, g_wide, _ = tail_deviation(wide, ref_wide)
            print(f"{cand[0]:5d} {cand[1]:6.2g} {cand[2]:5.3g} {c_work:10.2e} "
                  f"{c_wide:9.2e} {g_work:10.2e} {g_wide:9.2e} {late:7d} "
                  f"{series_seconds(work):7.3f}"
                  f"  {'library' if cand == library else ''}")
    finally:
        bath._TAIL_TERMS, bath._TAIL_RADIUS, bath._TAIL_REACH = library
    return 0


@cache
def contact_strokes() -> dict:
    """(frame, tables, grid) of each contact stroke the seed-0 benchmark
    runs, by label: a full cycle at each studied cutoff, and the population
    sweep's batch of 50 tables at omega_c = 15 up to t_tilde = 0.27 ms."""
    strokes = {}
    for wc in (5.0, 15.0, 25.0, 30.0):
        cfg = CycleConfig(omega_c=wc)
        su, grid = _setup(cfg), cfg.heating_grid()
        strokes[f"wc={wc:g}"] = (su, [bath.build_rate_trajectory(
            cfg.hot_bath, su.eps, grid[-1] + _TABLE_MARGIN)], grid)
    cfg = CycleConfig(omega_c=15.0)
    su = _setup(cfg)
    tables = bath.build_rate_trajectories(
        [cfg._reservoir(su.eps, round(0.5 + 0.01 * k, 2)) for k in range(50)],
        su.eps, 0.27 + _TABLE_MARGIN)
    strokes["sweep"] = (su, tables, np.array([0.0, 0.27]))
    return strokes


def contact_steps(frame, tables, grid) -> tuple:
    """(k Lambda, sources, Contact): the step terms `dynamics.evolve_open`
    hands its population sum, sub-steps included, and what it returns."""
    seen = []
    real = dynamics._populations

    def spy(*args):
        seen.append(args[1:])
        return real(*args)

    dynamics._populations = spy
    try:
        out = dynamics.evolve_open(frame, tables, grid)
    finally:
        dynamics._populations = real
    [(k_lam, sources)] = seen
    return k_lam, sources, out


def scan_contact() -> int:
    """The --contact report: one line per benchmark contact stroke."""
    print("population deviations are absolute; k dLam is the largest move "
          f"of k Lambda over one step (split above {dynamics._STEP_LAM})")
    print(f"{'stroke':>7} {'vs 6-pt':>9} {'vs 10-pt':>9} {'6 vs 10':>9} "
          f"{'k dLam':>8} {'steps':>6} {'time ms':>8}")
    for label, (su, tables, grid) in contact_strokes().items():
        lib = dynamics.evolve_open(su, tables, grid).p
        six = oracles.gauss_contact(su, tables, grid).p
        ten = oracles.gauss_contact(su, tables, grid, nodes=10).p
        k_lam = contact_steps(su, tables, grid)[0]
        secs = []
        for _ in range(3):
            t0 = time.perf_counter()
            dynamics.evolve_open(su, tables, grid)
            secs.append(time.perf_counter() - t0)
        print(f"{label:>7} {np.max(np.abs(lib - six)):9.2e} "
              f"{np.max(np.abs(lib - ten)):9.2e} "
              f"{np.max(np.abs(six - ten)):9.2e} "
              f"{np.max(np.abs(np.diff(k_lam))):8.4f} {k_lam.size - 1:6d} "
              f"{1e3 * min(secs):8.2f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--orders", default="14,18,20,22,24,26")
    ap.add_argument("--divs", default="1,1.5,2,3")
    ap.add_argument("--tail", action="store_true",
                    help="scan the endpoint series instead")
    ap.add_argument("--terms", default="24,30,36",
                    help="even series lengths for --tail")
    ap.add_argument("--radii", default="0.6,0.7,0.8",
                    help="FFT radii, as fractions of the pole distance")
    ap.add_argument("--reaches", default="33,37,41",
                    help="switch times, in units of the pole's inverse "
                         "imaginary part")
    ap.add_argument("--contact", action="store_true",
                    help="report the contact stroke's source rule instead")
    args = ap.parse_args(argv)
    if args.contact:
        return scan_contact()
    if args.tail:
        return scan_tail(args)
    candidates = {(int(k), float(d), 1.0)
                  for k in args.orders.split(",") for d in args.divs.split(",")}
    candidates |= {bath._BASE_RESOLUTION, bath._FINE_RESOLUTION, PREVIOUS_BASE}
    work, wide = workload_groups(), wide_groups()
    ref_work, ref_wide = remainders(work, REFERENCE), remainders(wide, REFERENCE)
    marks = {bath._BASE_RESOLUTION: "base", bath._FINE_RESOLUTION: "check",
             PREVIOUS_BASE: "previous base"}
    print(f"reference {REFERENCE}; deviations are absolute, rad/ms")
    print(f"{'order':>5} {'div':>5} {'range':>5} {'workload dev':>13} "
          f"{'wide dev':>10} {'elements':>10} {'time s':>7}")
    for res in sorted(candidates):
        remainders(work, res)             # warm the Gauss rule
        secs = []
        for _ in range(3):
            t0 = time.perf_counter()
            remainders(work, res)
            secs.append(time.perf_counter() - t0)
        print(f"{res[0]:5d} {res[1]:5.2g} {res[2]:5.2g} "
              f"{deviation(work, res, ref_work):13.2e} "
              f"{deviation(wide, res, ref_wide):10.2e} "
              f"{elements(work, res[1], res[2]):10d} {min(secs):7.3f}"
              f"  {marks.get(res, '')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
