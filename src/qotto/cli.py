"""Command-line front end.

Six commands reproduce the reference figures from deterministic CSV
files: `rates` (reservoir decay rates over time), `nonmarkov` (memory
witness and its integral versus cutoff), `simulate` (efficiency versus
truncation time plus a summary block), `sweep-cutoff`, and the
fixed-duration population scans `sweep-population` and `ift`.

Configuration is a flat `key = value` file plus `--set` overrides;
unknown keys are rejected.  The cycle keys and their defaults are the
fields of `cycle.CycleConfig`; only the five sweep keys live here.
This module only parses: each value rule lives in the library type that
owns the value, and the config is checked before any command runs.
Times inside the config are milliseconds, CSV time columns are
microseconds.  Each CSV file writes its rows through one `%` template:
floats with 9 significant digits, flags as 0 or 1, status as text.
Files carry the fully resolved config in `#` header lines, so identical
inputs give bytewise identical outputs.  A header config value that
9 digits would not read back exactly prints as its shortest exact repr,
so the `# key = value` lines, stripped of `# `, are a config file that
rebuilds the run.  The derived header lines read the gaps and both
reservoirs' betas from the config, which diagonalises each stroke
Hamiltonian once.

Exit codes: 0 success, 2 configuration error (a `qotto.ConfigError`,
the config file or `--out`), 3 numerical failure, 4 no engine operation.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import ConfigError, __version__
from .bath import BathSpec, build_rate_trajectories, build_rate_trajectory
from .cycle import (CycleConfig, ift_reference, population_onset, run_cycle,
                    sweep_cutoff, sweep_population)
from .measures import nonmarkov_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_ENGINE = 4

_CYCLE_DEFAULTS = {f.name: f.default for f in fields(CycleConfig)}

_DEFAULTS = {
    **_CYCLE_DEFAULTS,
    "omega_c_list": "5,15,25,30",
    "p_hot_min": 0.5,
    "p_hot_max": 0.99,
    "p_hot_step": 0.01,
    "t_tilde": "auto",
}

# population grids are built on an integer lattice of this resolution
_P_QUANTUM = 10 ** 12


def _convert(key: str, raw: str, where: str):
    # a key takes the type of its default: text or a float
    raw = raw.strip()
    if isinstance(_DEFAULTS[key], str):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: value for '{key}' is not a number: "
                          f"{raw!r}")


def parse_config(path: str | None, sets) -> dict:
    """Resolve defaults, an optional config file, then --set overrides."""
    items = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        items = [(f"line {n}", text) for n, text in enumerate(lines, start=1)
                 if text and not text.startswith("#")]
    cfg = dict(_DEFAULTS)
    for where, text in items + [("--set", item) for item in sets]:
        key, eq, value = text.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in cfg:
            raise ConfigError(f"{where}: unknown key '{key}'")
        cfg[key] = _convert(key, value, where)
    return cfg


def _cycle_config(cfg: dict) -> CycleConfig:
    return CycleConfig(**{k: cfg[k] for k in _CYCLE_DEFAULTS})


def _require_inversion(ccfg: CycleConfig):
    # engine-mode commands model an inverted-population reservoir
    if ccfg.p_plus_hot < 0.5:
        raise ConfigError("p_plus_hot must be >= 0.5: this command needs "
                          "the inverted-population (negative-temperature) "
                          "regime")


def _cutoff_baths(cfg: dict, ccfg: CycleConfig) -> list[BathSpec]:
    """The hot reservoir at each listed cutoff, checked by its own rule."""
    raw, hot = cfg["omega_c_list"], ccfg.hot_bath
    try:
        baths = [replace(hot, omega_c=float(x))
                 for x in raw.split(",") if x.strip()]
    except ConfigError as exc:
        raise ConfigError(f"omega_c_list: {exc}") from None
    except ValueError:
        raise ConfigError(f"omega_c_list is not a comma-separated float "
                          f"list: {raw!r}")
    if not baths:
        raise ConfigError("omega_c_list must not be empty")
    return baths


def _p_hot_points(cfg: dict) -> list[float]:
    lo, hi, step = cfg["p_hot_min"], cfg["p_hot_max"], cfg["p_hot_step"]
    if not (0.0 < lo <= hi < 1.0):
        raise ConfigError("need 0 < p_hot_min <= p_hot_max < 1")
    if not 1 / _P_QUANTUM <= step < 1.0:
        raise ConfigError(f"p_hot_step must lie in [{1 / _P_QUANTUM:g}, 1)")
    lo_q, hi_q, step_q = (round(x * _P_QUANTUM) for x in (lo, hi, step))
    # integer lattice points, never past p_hot_max; dividing the exact
    # integer by the quantum lands on the float nearest the decimal value
    return [(lo_q + k * step_q) / _P_QUANTUM
            for k in range((hi_q - lo_q) // step_q + 1)]


def _config_value(v) -> str:
    # a header line must read back as the very value that was run
    if not isinstance(v, float):
        return str(v)
    text = "%.9g" % v
    return text if float(text) == v else repr(v)


def _header(command: str, cfg: dict, ccfg: CycleConfig,
            extra=()) -> list[str]:
    sp = ccfg.system
    (eps_cold, *_), (eps_hot, *_) = ccfg.spectra
    derived = [("omega", sp.omega), ("omega_tilde", sp.omega_tilde),
               ("eps_cold", eps_cold), ("eps_hot", eps_hot),
               ("beta_cold", ccfg.cold_bath.beta),
               ("beta_hot", ccfg.hot_bath.beta)]
    lines = [f"# qotto {__version__}", f"# command = {command}",
             "# config times are ms, csv time columns are us"]
    lines.extend(f"# {key} = {_config_value(cfg[key])}" for key in sorted(cfg))
    lines.extend("# derived %s = %.9g" % item for item in derived)
    lines.extend(f"# {item}" for item in extra)
    return lines


def _write_csv(path: str, header: list[str], columns: list[str],
               template: str, rows):
    """The header lines, the column names, then `template % row` per row."""
    line = template + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(text + "\n" for text in [*header, ",".join(columns)])
        fh.writelines(line % row for row in rows)


def _status(row, no_engine: bool = False) -> str:
    if row.error:
        # error strings land in a CSV cell: strip separators and newlines
        return "error:" + row.error.replace(",", ";").replace("\n", " ")
    return "no-engine" if no_engine else "ok"


def cmd_rates(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    rates = build_rate_trajectory(ccfg.hot_bath, ccfg.spectra[1][0],
                                  ccfg.heat_t_max)
    _write_csv(os.path.join(outdir, "rates.csv"),
               _header("rates", cfg, ccfg, ["rates in rad/ms"]),
               ["t_us", "gamma", "gamma_tilde", "big_gamma"],
               "%.9g,%.9g,%.9g,%.9g",
               zip(rates.times * 1e3, rates.gamma, rates.gamma_tilde,
                   rates.big_gamma))
    return EXIT_OK


def cmd_nonmarkov(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    baths, hot = _cutoff_baths(cfg, ccfg), ccfg.hot_bath
    # the witness is the configured cutoff's: one more table if unlisted
    specs = baths if hot in baths else [*baths, hot]
    reports = [nonmarkov_report(rt) for rt in build_rate_trajectories(
        specs, ccfg.spectra[1][0], ccfg.heat_t_max)]
    witness = reports[specs.index(hot)]
    _write_csv(os.path.join(outdir, "witness.csv"),
               _header("nonmarkov", cfg, ccfg, ["witness f in rad/ms"]),
               ["t_us", "f"], "%.9g,%.9g",
               zip(witness.times * 1e3, witness.f))
    _write_csv(os.path.join(outdir, "nonmarkov_q.csv"),
               _header("nonmarkov", cfg, ccfg),
               ["omega_c", "Q"], "%.9g,%.9g",
               [(b.omega_c, r.q_total) for b, r in zip(baths, reports)])
    return EXIT_OK


def cmd_simulate(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    _require_inversion(ccfg)
    res = run_cycle(ccfg)
    _write_csv(os.path.join(outdir, "efficiency.csv"),
               _header("simulate", cfg, ccfg, ["energies in rad/ms"]),
               ["t_us", "eta", "w1", "w2", "q_hot", "valid"],
               "%.9g,%.9g,%.9g,%.9g,%.9g,%d",
               ((t, e, res.w1, w2, q, v) for t, e, w2, q, v in zip(
                   res.times * 1e3, res.eta, res.w2, res.q_hot, res.valid)))

    summary = [
        ("eta_max", res.eta_max),
        ("t_tilde_max_us", res.t_tilde_max * 1e3),
        ("window_lo_us", res.window[0] * 1e3),
        ("window_hi_us", res.window[1] * 1e3),
        ("eta_sat", res.eta_sat),
        ("t_eq_us", res.t_eq * 1e3),
        ("o_p", res.o_p),
        ("q_nonmarkov", res.nonmarkov.q_total),
        ("eta_ift", res.eta_ift),
        ("no_engine", int(res.no_engine)),
    ]
    for item in summary:
        print("%s = %.9g" % item)
    return EXIT_NO_ENGINE if res.no_engine else EXIT_OK


def cmd_sweep_cutoff(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    _require_inversion(ccfg)
    rows = sweep_cutoff(ccfg, [b.omega_c for b in _cutoff_baths(cfg, ccfg)])
    _write_csv(os.path.join(outdir, "cutoff_sweep.csv"),
               _header("sweep-cutoff", cfg, ccfg),
               ["omega_c", "eta_max", "t_tilde_max_us", "o_p",
                "q_nonmarkov", "eta_sat", "status"],
               "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s",
               [(r.omega_c, r.eta_max, r.t_tilde_max * 1e3, r.o_p,
                 r.q_nonmarkov, r.eta_sat, _status(r, r.no_engine))
                for r in rows])
    return EXIT_OK if any(not r.error for r in rows) else EXIT_NUMERIC


def _resolve_t_tilde(cfg: dict, ccfg: CycleConfig):
    raw = cfg["t_tilde"]
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        res = run_cycle(ccfg)
        if res.no_engine or not np.isfinite(res.t_tilde_max):
            raise RuntimeError("cannot auto-locate t_tilde: baseline run "
                               "shows no engine operation")
        return float(res.t_tilde_max), True
    try:
        return float(raw), False
    except ValueError:
        raise ConfigError(f"t_tilde must be 'auto' or a time in ms: {raw!r}")


def cmd_sweep_population(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    points = _p_hot_points(cfg)  # before an auto t_tilde runs its cycle
    t_tilde, was_auto = _resolve_t_tilde(cfg, ccfg)
    rows = sweep_population(ccfg, points, t_tilde)
    onset = population_onset(rows)
    extra = ["t_tilde_ms = %.9g" % t_tilde,
             f"t_tilde_source = {'auto' if was_auto else 'config'}",
             "onset_p_plus_hot = %.9g" % onset]
    _write_csv(os.path.join(outdir, "population_sweep.csv"),
               _header("sweep-population", cfg, ccfg, extra),
               ["p_plus_hot", "eta", "valid", "w", "q_hot", "status"],
               "%.9g,%.9g,%d,%.9g,%.9g,%s",
               [(r.p_plus_hot, r.eta, r.valid_engine, r.w, r.q_hot,
                 _status(r)) for r in rows])
    return EXIT_OK if any(not r.error for r in rows) else EXIT_NUMERIC


def cmd_ift(cfg: dict, ccfg: CycleConfig, outdir: str) -> int:
    rows = ift_reference(ccfg, _p_hot_points(cfg))
    onset = population_onset(rows)
    _write_csv(os.path.join(outdir, "ift_reference.csv"),
               _header("ift", cfg, ccfg, ["onset_p_plus_hot = %.9g" % onset]),
               ["p_plus_hot", "eta", "valid", "w", "q_hot"],
               "%.9g,%.9g,%d,%.9g,%.9g",
               [(r.p_plus_hot, r.eta, r.valid_engine, r.w, r.q_hot)
                for r in rows])
    return EXIT_OK


_COMMANDS = {
    "rates": (cmd_rates, "reservoir decay rates over time"),
    "nonmarkov": (cmd_nonmarkov, "memory witness and integrated quantifier"),
    "simulate": (cmd_simulate, "efficiency versus truncation time"),
    "sweep-cutoff": (cmd_sweep_cutoff, "summary numbers per bath cutoff"),
    "sweep-population": (cmd_sweep_population,
                         "fixed-duration scan over target populations"),
    "ift": (cmd_ift, "perfect-thermalization reference scan"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qotto",
        description="transient two-level engine simulator")
    parser.add_argument("--version", action="version",
                        version=f"qotto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="key = value file, one pair per line")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="sets",
                        help="override one config key (repeatable)")
        sp.add_argument("--out", default=".",
                        help="output directory for csv files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = _COMMANDS[args.command][0]
    try:
        cfg = parse_config(args.config, args.sets)
        ccfg = _cycle_config(cfg)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out!r}: {exc}")
        return fn(cfg, ccfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        # ValueError covers np.linalg.LinAlgError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
