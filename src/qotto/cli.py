"""Command-line front end.

Six commands reproduce the reference figures from deterministic CSV
files: `rates` (reservoir decay rates over time), `nonmarkov` (memory
witness and its integral versus cutoff), `simulate` (efficiency versus
truncation time plus a summary block), `sweep-cutoff`, and the
fixed-duration population scans `sweep-population` and `ift`.

Configuration is a flat `key = value` file plus `--set` overrides;
unknown keys are rejected.  Times inside the config are milliseconds,
CSV time columns are microseconds.  Floats print with 9 significant
digits and files carry the fully resolved config in `#` header lines,
so identical inputs give bytewise identical outputs.  A header config
value that 9 digits would not read back exactly prints as its shortest
exact repr, so the `# key = value` lines, stripped of `# `, are a
config file that rebuilds the run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 no engine operation.
"""
from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import __version__
from .bath import build_rate_trajectory
from .cycle import (CycleConfig, build_config, ift_reference,
                    population_onset, run_cycle, sweep_cutoff,
                    sweep_population)
from .measures import nonmarkov_report
from .model import (SystemParams, beta_from_population, hamiltonian_cold,
                    hamiltonian_hot, transition_energy)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_ENGINE = 4

# cycle knobs and their defaults come from the library: the scalar
# parameters of build_config (None marks "inherit from the hot side" for
# the cold-reservoir overrides) and the defaulted CycleConfig fields
_CYCLE_DEFAULTS = {
    **{name: par.default for name, par in
       inspect.signature(build_config).parameters.items()
       if par.kind is par.POSITIONAL_OR_KEYWORD},
    **{f.name: f.default for f in fields(CycleConfig)
       if f.default is not MISSING},
}

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


class ConfigError(Exception):
    pass


def _convert(key: str, raw: str, where: str):
    # a key takes the type of its default
    raw = raw.strip()
    default = _DEFAULTS[key]
    if isinstance(default, str):
        return raw
    if default is None and raw.lower() in ("none", "inherit"):
        return None
    is_int = isinstance(default, int)
    try:
        return int(raw) if is_int else float(raw)
    except ValueError:
        kind = "integer" if is_int else "number"
        raise ConfigError(f"{where}: value for '{key}' is not a {kind}: {raw!r}")


def parse_config(path: str | None, sets) -> dict:
    """Resolve defaults, an optional config file, then --set overrides."""
    cfg = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in cfg:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            cfg[key] = _convert(key, value, f"line {lineno}")
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in cfg:
            raise ConfigError(f"--set: unknown key '{key}'")
        cfg[key] = _convert(key, value, "--set")
    return cfg


def _cycle_config(cfg: dict):
    try:
        return build_config(**{k: cfg[k] for k in _CYCLE_DEFAULTS})
    except ValueError as exc:
        raise ConfigError(str(exc))


def _require_inversion(cfg: dict):
    # engine-mode commands model an inverted-population reservoir
    if cfg["p_plus_hot"] < 0.5:
        raise ConfigError("p_plus_hot must be >= 0.5: this command needs "
                          "the inverted-population (negative-temperature) "
                          "regime")


def _omega_c_points(cfg: dict) -> list[float]:
    raw = cfg["omega_c_list"]
    try:
        points = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"omega_c_list is not a comma-separated float "
                          f"list: {raw!r}")
    if not points:
        raise ConfigError("omega_c_list must not be empty")
    if any(w <= 0.0 for w in points):
        raise ConfigError("cutoff frequencies must be positive")
    return points


def _p_hot_points(cfg: dict) -> list[float]:
    lo, hi, step = cfg["p_hot_min"], cfg["p_hot_max"], cfg["p_hot_step"]
    if not (0.0 < lo <= hi < 1.0):
        raise ConfigError("need 0 < p_hot_min <= p_hot_max < 1")
    lo_q, hi_q, step_q = (round(x * _P_QUANTUM) for x in (lo, hi, step))
    if step_q < 1:
        raise ConfigError(f"p_hot_step must be at least {1 / _P_QUANTUM:g}")
    # integer lattice points, never past p_hot_max; dividing the exact
    # integer by the quantum lands on the float nearest the decimal value
    return [(lo_q + k * step_q) / _P_QUANTUM
            for k in range((hi_q - lo_q) // step_q + 1)]


def _g9(x) -> str:
    return format(float(x), ".9g")


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _g9(v)
    return str(v)


def _config_value(v) -> str:
    # a header line must read back as the very value that was run
    text = _fmt_value(v)
    return repr(v) if isinstance(v, float) and float(text) != v else text


def _derived_lines(cfg: dict) -> list[str]:
    sp = SystemParams(nu_cold=cfg["nu_cold"], nu_hot=cfg["nu_hot"],
                      tau=cfg["tau"], g=cfg["g"])
    h_cold = hamiltonian_cold(sp)
    h_hot = hamiltonian_hot(sp)
    eps_cold, _ = transition_energy(h_cold)
    eps_hot, _ = transition_energy(h_hot)
    out = [
        ("omega", sp.omega),
        ("omega_tilde", sp.omega_tilde),
        ("eps_cold", eps_cold),
        ("eps_hot", eps_hot),
        ("beta_cold", beta_from_population(h_cold, cfg["p_plus_cold"])),
        ("beta_hot", beta_from_population(h_hot, cfg["p_plus_hot"])),
    ]
    return [f"# derived {k} = {_g9(v)}" for k, v in out]


def _header(command: str, cfg: dict, extra=()) -> list[str]:
    lines = [f"# qotto {__version__}", f"# command = {command}",
             "# config times are ms, csv time columns are us"]
    for key in sorted(cfg):
        lines.append(f"# {key} = {_config_value(cfg[key])}")
    lines.extend(_derived_lines(cfg))
    for item in extra:
        lines.append(f"# {item}")
    return lines


def _write_csv(path: str, header: list[str], columns: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _out_path(outdir: str, name: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _safe(text: str) -> str:
    # error strings land in a CSV cell: strip separators and newlines
    return text.replace(",", ";").replace("\n", " ")


def cmd_rates(cfg: dict, outdir: str) -> int:
    ccfg = _cycle_config(cfg)
    eps_hot, _ = transition_energy(hamiltonian_hot(ccfg.system))
    rates = build_rate_trajectory(ccfg.hot_bath, eps_hot,
                                  cfg["heat_t_max"], quad_tol=cfg["quad_tol"])
    rows = ([_g9(t * 1e3), _g9(a), _g9(b), _g9(c)]
            for t, a, b, c in zip(rates.times, rates.gamma,
                                  rates.gamma_tilde, rates.big_gamma))
    _write_csv(_out_path(outdir, "rates.csv"),
               _header("rates", cfg, ["rates in rad/ms"]),
               ["t_us", "gamma", "gamma_tilde", "big_gamma"], rows)
    return EXIT_OK


def cmd_nonmarkov(cfg: dict, outdir: str) -> int:
    ccfg = _cycle_config(cfg)
    eps_hot, _ = transition_energy(hamiltonian_hot(ccfg.system))
    rates = build_rate_trajectory(ccfg.hot_bath, eps_hot,
                                  cfg["heat_t_max"], quad_tol=cfg["quad_tol"])
    report = nonmarkov_report(rates)
    _write_csv(_out_path(outdir, "witness.csv"),
               _header("nonmarkov", cfg, ["witness f in rad/ms"]),
               ["t_us", "f"],
               ([_g9(t * 1e3), _g9(f)]
                for t, f in zip(report.times, report.f)))

    q_rows = []
    for w in _omega_c_points(cfg):
        spec = replace(ccfg.hot_bath, omega_c=w)
        rt = build_rate_trajectory(spec, eps_hot, cfg["heat_t_max"],
                                   quad_tol=cfg["quad_tol"])
        q_rows.append([_g9(w), _g9(nonmarkov_report(rt).q_total)])
    _write_csv(_out_path(outdir, "nonmarkov_q.csv"),
               _header("nonmarkov", cfg),
               ["omega_c", "Q"], q_rows)
    return EXIT_OK


def cmd_simulate(cfg: dict, outdir: str) -> int:
    _require_inversion(cfg)
    res = run_cycle(_cycle_config(cfg))
    rows = ([_g9(t * 1e3), _g9(e), _g9(res.w1), _g9(w2), _g9(q),
             "1" if v else "0"]
            for t, e, w2, q, v in zip(res.times, res.eta, res.w2,
                                      res.q_hot, res.valid))
    _write_csv(_out_path(outdir, "efficiency.csv"),
               _header("simulate", cfg, ["energies in rad/ms"]),
               ["t_us", "eta", "w1", "w2", "q_hot", "valid"], rows)

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
        ("no_engine", 1 if res.no_engine else 0),
    ]
    for key, value in summary:
        print(f"{key} = {_fmt_value(value)}")
    return EXIT_NO_ENGINE if res.no_engine else EXIT_OK


def cmd_sweep_cutoff(cfg: dict, outdir: str) -> int:
    _require_inversion(cfg)
    rows = sweep_cutoff(_cycle_config(cfg), _omega_c_points(cfg))
    csv_rows = []
    for r in rows:
        status = ("error:" + _safe(r.error)) if r.error else \
            ("no-engine" if r.no_engine else "ok")
        csv_rows.append([_g9(r.omega_c), _g9(r.eta_max),
                         _g9(r.t_tilde_max * 1e3), _g9(r.o_p),
                         _g9(r.q_nonmarkov), _g9(r.eta_sat), status])
    _write_csv(_out_path(outdir, "cutoff_sweep.csv"),
               _header("sweep-cutoff", cfg),
               ["omega_c", "eta_max", "t_tilde_max_us", "o_p",
                "q_nonmarkov", "eta_sat", "status"], csv_rows)
    return EXIT_OK if any(not r.error for r in rows) else EXIT_NUMERIC


def _resolve_t_tilde(cfg: dict):
    raw = cfg["t_tilde"]
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        res = run_cycle(_cycle_config(cfg))
        if res.no_engine or not np.isfinite(res.t_tilde_max):
            raise RuntimeError("cannot auto-locate t_tilde: baseline run "
                               "shows no engine operation")
        return float(res.t_tilde_max), True
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"t_tilde must be 'auto' or a time in ms: {raw!r}")
    if not 0.0 < value <= cfg["heat_t_max"]:
        raise ConfigError("t_tilde must lie in (0, heat_t_max] ms")
    return value, False


def cmd_sweep_population(cfg: dict, outdir: str) -> int:
    t_tilde, was_auto = _resolve_t_tilde(cfg)
    rows = sweep_population(_cycle_config(cfg), _p_hot_points(cfg), t_tilde)
    onset = population_onset(rows)
    extra = [f"t_tilde_ms = {_g9(t_tilde)}",
             f"t_tilde_source = {'auto' if was_auto else 'config'}",
             f"onset_p_plus_hot = {_g9(onset)}"]
    csv_rows = [[_g9(r.p_plus_hot), _g9(r.eta), "1" if r.valid_engine else "0",
                 _g9(r.w), _g9(r.q_hot),
                 ("error:" + _safe(r.error)) if r.error else "ok"]
                for r in rows]
    _write_csv(_out_path(outdir, "population_sweep.csv"),
               _header("sweep-population", cfg, extra),
               ["p_plus_hot", "eta", "valid", "w", "q_hot", "status"],
               csv_rows)
    return EXIT_OK if any(not r.error for r in rows) else EXIT_NUMERIC


def cmd_ift(cfg: dict, outdir: str) -> int:
    rows = ift_reference(_cycle_config(cfg), _p_hot_points(cfg))
    onset = population_onset(rows)
    csv_rows = [[_g9(r.p_plus_hot), _g9(r.eta),
                 "1" if r.valid_engine else "0", _g9(r.w), _g9(r.q_hot)]
                for r in rows]
    _write_csv(_out_path(outdir, "ift_reference.csv"),
               _header("ift", cfg, [f"onset_p_plus_hot = {_g9(onset)}"]),
               ["p_plus_hot", "eta", "valid", "w", "q_hot"], csv_rows)
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
        return fn(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
