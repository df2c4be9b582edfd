"""Workload inputs, one pass of each workload, and the output checks.

Inputs come from the seed alone and are plain JSON, so the pass process
receives only the generated inputs.  Seed 0 is the studied system.

Each workload is one closed loop inside one process: calls are issued
back to back and the next starts when the previous returned.

`run_pass` is the timed part.  `summarize` turns its raw results into
per-item scalars after the clock stops, and `check` judges those
scalars without touching the library, so a deliberately perturbed
summary can be fed through the same check.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = ("cutoff_scan", "population_sweep", "memory_scan")

# seed-0 inputs: the four studied cutoffs, the acceptance population grid
# and the integer cutoffs of the memory-quantifier scan
STUDIED_CUTOFFS = (5.0, 15.0, 25.0, 30.0)
CUTOFF_BANDS = ((5.0, 10.0), (10.0, 20.0), (20.0, 25.0), (25.0, 30.0))
P_GRID = tuple(round(0.5 + 0.01 * k, 2) for k in range(50))
P_CELL = 0.01
SWEEP_OMEGA_C = 15.0
# inside the first-peak window of acceptance criterion 4
SWEEP_T_TILDE = 0.27
MEMORY_CUTOFFS = tuple(float(k) for k in range(2, 31))

# first-peak window (us) of acceptance criterion 4
PEAK_WINDOW_US = (265.0, 282.0)

# seed-0 comparison against pinned references: loose enough for the
# validated method swaps (state agreement 7e-9, rates 1e-10), far inside
# the acceptance bounds (0.005 on efficiencies, a 17 us peak window)
REF_TOL = {"eta": 1e-5, "t_us": 0.05, "q": 1e-8}
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_seed0.json")


def _floor_to(x: float, digits: int) -> float:
    # rounding down keeps a draw inside its half-open band
    scale = 10.0 ** digits
    return math.floor(x * scale) / scale


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for one seed; the same seed gives the same
    inputs."""
    rng = random.Random(seed)
    if workload == "cutoff_scan":
        if seed == 0:
            cutoffs = list(STUDIED_CUTOFFS)
        else:
            # a cycle costs more the lower its cutoff, so bands 1 and 2,
            # and bands 3 and 4, take antithetic positions u and 1 - u:
            # the cutoffs change with the seed, the work of a pass barely
            u, v = rng.random(), rng.random()
            cutoffs = [_floor_to(lo + (hi - lo) * x, 4)
                       for (lo, hi), x in zip(CUTOFF_BANDS,
                                              (u, 1.0 - u, v, 1.0 - v))]
        return {"omega_c": cutoffs}
    if workload == "population_sweep":
        if seed == 0:
            points = list(P_GRID)
        else:
            points = [_floor_to(p + P_CELL * rng.random(), 5) for p in P_GRID]
        return {"omega_c": SWEEP_OMEGA_C, "t_tilde": SWEEP_T_TILDE,
                "p_plus_hot": points}
    if workload == "memory_scan":
        if seed == 0:
            cutoffs = list(MEMORY_CUTOFFS)
        else:
            cutoffs = [round(w - 0.5 + rng.random(), 4)
                       for w in MEMORY_CUTOFFS]
        return {"omega_c": cutoffs}
    raise ValueError(f"unknown workload {workload!r}")


def n_items(workload: str, inputs: dict) -> int:
    if workload == "population_sweep":
        return len(inputs["p_plus_hot"])
    return len(inputs["omega_c"])


# ---------------------------------------------------------------- passes

def run_pass(workload: str, inputs: dict, workdir: str):
    """One pass of the workload; returns its raw results."""
    from qotto import cli, cycle

    if workload == "cutoff_scan":
        results = []
        for wc in inputs["omega_c"]:
            try:
                results.append(cycle.run_cycle(cycle.build_config(omega_c=wc)))
            except Exception as exc:  # a failed item must not end the pass
                results.append(exc)
        return results
    if workload == "population_sweep":
        cfg = cycle.build_config(omega_c=inputs["omega_c"])
        # the library's default worker count: no workers argument
        return cycle.sweep_population(cfg, inputs["p_plus_hot"],
                                      inputs["t_tilde"])
    if workload == "memory_scan":
        wc_list = ",".join(repr(w) for w in inputs["omega_c"])
        return cli.main(["nonmarkov", "--set", f"omega_c_list={wc_list}",
                         "--out", workdir])
    raise ValueError(f"unknown workload {workload!r}")


def summarize(workload: str, inputs: dict, raw, workdir: str) -> dict:
    """Per-item scalars of one pass, taken after the timed region."""
    if workload == "cutoff_scan":
        items = []
        for wc, res in zip(inputs["omega_c"], raw):
            if isinstance(res, Exception):
                items.append({"omega_c": wc,
                              "error": f"{type(res).__name__}: {res}"})
                continue
            items.append({
                "omega_c": wc,
                "error": "",
                "first_peak_us": (res.peaks[0][0] * 1e3 if res.peaks
                                  else float("nan")),
                "eta_max": res.eta_max,
                "eta_sat": res.eta_sat,
                "eta_ift": res.eta_ift,
                "o_p": res.o_p,
                "q_total": res.nonmarkov.q_total,
                "max_trace_dev": res.diagnostics["max_trace_dev"],
            })
        return {"items": items}
    if workload == "population_sweep":
        from qotto import cycle

        cfg = cycle.build_config(omega_c=inputs["omega_c"])
        ift = cycle.ift_reference(cfg, inputs["p_plus_hot"])
        items = [{"p_plus_hot": r.p_plus_hot, "error": r.error,
                  "eta": r.eta, "valid": r.valid_engine, "ift_eta": ref.eta,
                  "ift_valid": ref.valid_engine}
                 for r, ref in zip(raw, ift)]
        return {"items": items}
    if workload == "memory_scan":
        return {"exit_code": raw,
                "q_rows": _read_csv(os.path.join(workdir, "nonmarkov_q.csv")),
                "witness_rows": len(_read_csv(
                    os.path.join(workdir, "witness.csv")))}
    raise ValueError(f"unknown workload {workload!r}")


def _read_csv(path: str) -> list[list[str]]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]   # drop the column names


# ---------------------------------------------------------------- checks

def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _close(a, b, tol) -> bool:
    return _finite(a, b) and abs(a - b) <= tol


def check(workload: str, inputs: dict, summary: dict, seed: int) -> list[str]:
    """One verdict per item: "" if it passed, else the reason it failed."""
    if workload == "cutoff_scan":
        return _check_cutoff(inputs, summary, seed)
    if workload == "population_sweep":
        return _check_population(inputs, summary, seed)
    if workload == "memory_scan":
        return _check_memory(inputs, summary, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _check_cutoff(inputs, summary, seed) -> list[str]:
    ref = _load_reference("cutoff_scan") if seed == 0 else None
    items = summary["items"]
    verdicts = []
    for k, wc in enumerate(inputs["omega_c"]):
        it = items[k] if k < len(items) else {"error": "missing result"}
        if it.get("error"):
            verdicts.append(it["error"])
            continue
        lo, hi = PEAK_WINDOW_US
        why = ""
        if not (_finite(it["first_peak_us"])
                and lo <= it["first_peak_us"] <= hi):
            why = f"first peak {it['first_peak_us']} us outside [{lo}, {hi}]"
        elif not abs(it["eta_sat"] - it["eta_ift"]) < 0.01:
            why = f"eta_sat {it['eta_sat']} vs eta_ift {it['eta_ift']}"
        elif not it["eta_max"] > it["eta_ift"]:
            why = f"eta_max {it['eta_max']} <= eta_ift {it['eta_ift']}"
        elif not it["max_trace_dev"] < 1e-8:
            why = f"trace deviation {it['max_trace_dev']}"
        elif ref is not None:
            r = ref[k]
            for key, tol in (("first_peak_us", REF_TOL["t_us"]),
                             ("eta_max", REF_TOL["eta"]),
                             ("eta_sat", REF_TOL["eta"]),
                             ("o_p", REF_TOL["eta"]),
                             ("q_total", REF_TOL["q"])):
                if not _close(it[key], r[key], tol):
                    why = f"{key} {it[key]} differs from reference {r[key]}"
                    break
        verdicts.append(why)
    return verdicts


def _onset(ps, flags) -> float:
    valid = [p for p, ok in zip(ps, flags) if ok]
    return min(valid) if valid else float("nan")


def _same_row(it, ref) -> bool:
    # eta of a point that does not operate is not compared: with next to
    # no heat taken in it is ill-conditioned
    if it["valid"] != ref["valid"]:
        return False
    return not it["valid"] or _close(it["eta"], ref["eta"], REF_TOL["eta"])


def _check_population(inputs, summary, seed) -> list[str]:
    ref = _load_reference("population_sweep") if seed == 0 else None
    points = inputs["p_plus_hot"]
    items = summary["items"]
    if len(items) != len(points):
        return ["missing result"] * len(points)
    verdicts = []
    for k, it in enumerate(items):
        why = ""
        if it["error"]:
            why = it["error"]
        elif it["p_plus_hot"] != points[k]:
            why = f"row order: {it['p_plus_hot']} at position of {points[k]}"
        elif it["valid"] and it["ift_valid"] and not it["eta"] >= it["ift_eta"]:
            why = f"eta {it['eta']} below ideal-contact {it['ift_eta']}"
        elif ref is not None and not _same_row(it, ref[k]):
            why = (f"eta {it['eta']} (valid {it['valid']}) differs from "
                   f"reference {ref[k]['eta']} (valid {ref[k]['valid']})")
        verdicts.append(why)
    # sweep-wide: truncated contact must switch the engine on earlier
    ft_onset = _onset(points, [it["valid"] for it in items])
    ift_onset = _onset(points, [it["ift_valid"] for it in items])
    if not ft_onset < ift_onset:
        k = points.index(ift_onset) if ift_onset in points else 0
        verdicts[k] = verdicts[k] or (
            f"onset {ft_onset} not below ideal-contact onset {ift_onset}")
    return verdicts


def _check_memory(inputs, summary, seed) -> list[str]:
    cutoffs = inputs["omega_c"]
    if summary["exit_code"] != 0:
        return [f"cli exit code {summary['exit_code']}"] * len(cutoffs)
    ref = _load_reference("memory_scan") if seed == 0 else None
    rows = summary["q_rows"]
    q = []
    verdicts = []
    for k, wc in enumerate(cutoffs):
        why = ""
        try:
            w_out, q_out = float(rows[k][0]), float(rows[k][1])
        except (IndexError, ValueError):
            w_out = q_out = float("nan")
        if not _close(w_out, wc, 1e-8 * wc):
            why = f"row {k}: cutoff {w_out} written for input {wc}"
        elif not q_out >= 0.0:
            why = f"Q = {q_out} is negative"
        elif wc <= 15.0 and not q_out > 0.0:
            why = f"Q = 0 at cutoff {wc} <= 15"
        elif wc >= 21.0 and q_out != 0.0:
            why = f"Q = {q_out} at cutoff {wc} >= 21"
        elif ref is not None and not _close(q_out, ref[k], REF_TOL["q"]):
            why = f"Q = {q_out} differs from reference {ref[k]}"
        q.append(q_out)
        verdicts.append(why)
    if len(rows) != len(cutoffs):
        verdicts[-1] = verdicts[-1] or f"{len(rows)} Q rows written"
    if summary["witness_rows"] < 2:
        verdicts[0] = verdicts[0] or "witness.csv is empty"
    finite = [(v, k) for k, v in enumerate(q) if _finite(v)]
    if finite:
        _, k_max = max(finite)
        if not 2.0 <= cutoffs[k_max] <= 8.0:
            verdicts[k_max] = verdicts[k_max] or (
                f"largest Q at cutoff {cutoffs[k_max]}, outside [2, 8]")
    return verdicts


def perturbed(workload: str, summary: dict) -> dict:
    """A copy of a summary with one item deliberately broken; the check
    must count that item as failed.  A summary without items is left as
    it is: the check already fails every item it lacks."""
    bad = json.loads(json.dumps(summary))
    if workload == "cutoff_scan" and bad["items"]:
        bad["items"][0]["first_peak_us"] = PEAK_WINDOW_US[1] + 10.0
    elif workload == "population_sweep" and bad["items"]:
        it = next((it for it in bad["items"]
                   if it["valid"] and it["ift_valid"]), bad["items"][0])
        it["valid"] = it["ift_valid"] = True
        it["eta"] = it["ift_eta"] - 0.1
    elif workload == "memory_scan" and bad["q_rows"]:
        bad["q_rows"][0][1] = "-1e-3"
    return bad


def make_reference(seed_summaries: dict) -> dict:
    """Pinned seed-0 scalars, in the layout `check` reads back."""
    out = {}
    if "cutoff_scan" in seed_summaries:
        out["cutoff_scan"] = [
            {k: it[k] for k in ("first_peak_us", "eta_max", "eta_sat",
                                "o_p", "q_total")}
            for it in seed_summaries["cutoff_scan"]["items"]]
    if "population_sweep" in seed_summaries:
        out["population_sweep"] = [
            {"eta": it["eta"], "valid": it["valid"]}
            for it in seed_summaries["population_sweep"]["items"]]
    if "memory_scan" in seed_summaries:
        out["memory_scan"] = [float(r[1]) for r in
                              seed_summaries["memory_scan"]["q_rows"]]
    return out
