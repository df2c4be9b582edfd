"""Command-line interface: config handling, file outputs, exit codes.

Commands run in-process through main() so stdout and exit codes can be
asserted directly; every invocation shrinks the grids to keep this fast.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qotto
from qotto import bath, cli, cycle

FAST = ["--set", "heat_dt=0.0005", "--set", "heat_t_dense=0.6",
        "--set", "heat_t_max=2.0", "--set", "t_f=0.5"]
TINY = ["--set", "heat_t_dense=0.5", "--set", "heat_t_max=0.5",
        "--set", "t_f=0.5"]


def read_csv(path):
    header, columns, data = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            data.append(line.split(","))
    return header, columns, data


def config_file_from_header(header, path) -> str:
    """The `# key = value` config lines of a header, as a config file."""
    lines = []
    for line in header:
        key, sep, value = line[2:].partition(" = ")
        if sep and key in cli._DEFAULTS:
            lines.append(f"{key} = {value}\n")
    path.write_text("".join(lines))
    return str(path)


def summary_dict(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_defaults_without_config_file():
    cfg = cli.parse_config(None, [])
    assert cfg["nu_cold"] == 2.0
    assert cfg["omega_c"] == 30.0
    assert cfg["p_plus_hot"] == 0.99
    assert cfg["t_tilde"] == "auto"


def test_config_file_and_override(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment line\n\nomega_c = 15\np_plus_hot = 0.97\n")
    cfg = cli.parse_config(str(f), ["omega_c=25"])
    assert cfg["omega_c"] == 25.0        # --set wins over the file
    assert cfg["p_plus_hot"] == 0.97


def test_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("omega_c = 15\nnot_a_knob = 3\n")
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config(str(f), [])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(None, ["not_a_knob=3"])


def test_config_rejects_malformed_line(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("omega_c 15\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config(str(f), [])


def test_config_rejects_bad_number():
    with pytest.raises(cli.ConfigError):
        cli.parse_config(None, ["omega_c=strong"])


def test_removed_cold_keys_are_unknown(tmp_path, capsys):
    """Both reservoirs share one spectrum: no cold-side spectral keys."""
    code = cli.main(["rates", "--set", "cold_alpha=0.3",
                     "--out", str(tmp_path)] + TINY)
    assert code == cli.EXIT_CONFIG
    assert "unknown key 'cold_alpha'" in capsys.readouterr().err


def test_removed_quad_tol_is_unknown(tmp_path, capsys):
    """The quadrature tolerance is a library constant, not a key."""
    code = cli.main(["rates", "--set", "quad_tol=1e-9",
                     "--out", str(tmp_path)] + TINY)
    assert code == cli.EXIT_CONFIG
    assert "unknown key 'quad_tol'" in capsys.readouterr().err


def test_cycle_keys_are_the_config_fields():
    """CycleConfig is the one table of cycle defaults."""
    assert cli._CYCLE_DEFAULTS == {f.name: f.default
                                   for f in fields(cycle.CycleConfig)}


def test_bad_spectrum_is_config_error(tmp_path, capsys):
    code = cli.main(["rates", "--set", "alpha=-1",
                     "--out", str(tmp_path)] + TINY)
    assert code == cli.EXIT_CONFIG
    assert "alpha must be >= 0" in capsys.readouterr().err


def test_cli_raises_the_library_config_error():
    assert cli.ConfigError is qotto.ConfigError
    assert issubclass(qotto.ConfigError, ValueError)


def _assert_config_exit(capsys, argv, named):
    """Exit 2 with one `config error:` line that names the culprit."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err
    assert named in err


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


_FLOAT_KEYS = [f.name for f in fields(cycle.CycleConfig)
               if isinstance(f.default, float)]


@pytest.mark.parametrize("key", _FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_cycle_key_is_config_error(tmp_path, capsys, key, value):
    _assert_config_exit(capsys, ["rates", "--out", str(tmp_path)] + TINY
                        + ["--set", f"{key}={value}"], key)


@pytest.mark.parametrize("command", ["nonmarkov", "sweep-cutoff"])
@pytest.mark.parametrize("cutoffs", ["5,inf", "5,nan", "5,-1"])
def test_bad_cutoff_list_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, command, cutoffs):
    """The whole list passes the reservoir's cutoff rule before the
    first table is built."""
    monkeypatch.setattr(cli, "build_rate_trajectories", _no_work)
    monkeypatch.setattr(cli, "sweep_cutoff", _no_work)
    _assert_config_exit(capsys, [command, "--set", f"omega_c_list={cutoffs}",
                                 "--out", str(tmp_path)] + TINY,
                        "omega_c_list")


@pytest.mark.parametrize("command", ["ift", "sweep-population"])
@pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0", "1"])
def test_bad_population_step_is_config_error(tmp_path, capsys, command,
                                             step):
    _assert_config_exit(capsys, [command, "--set", f"p_hot_step={step}",
                                 "--out", str(tmp_path)] + TINY,
                        "p_hot_step")


def test_population_grid_is_checked_before_auto_t_tilde(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_cycle", _no_work)
    _assert_config_exit(capsys, ["sweep-population", "--set", "p_hot_min=0.9",
                                 "--set", "p_hot_max=0.5",
                                 "--out", str(tmp_path)], "p_hot_min")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "0.6"])
def test_t_tilde_outside_the_window_is_config_error(tmp_path, capsys, value):
    """The window is the library sweep's rule (TINY ends at 0.5 ms)."""
    _assert_config_exit(capsys, ["sweep-population", "--set",
                                 f"t_tilde={value}", "--out", str(tmp_path)]
                        + TINY, "t_tilde")


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("omega_c = 15 # \xb5s\n".encode("latin-1"))
    _assert_config_exit(capsys, ["rates", "--config", str(path),
                                 "--out", str(tmp_path)] + TINY, str(path))


def test_out_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch):
    """--out is created before the command runs, not after."""
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    monkeypatch.setattr(cli, "build_rate_trajectory", _no_work)
    _assert_config_exit(capsys, ["rates", "--out", str(target)] + TINY,
                        str(target))


def test_default_config_is_the_library_default():
    """The CLI resolves to exactly the config build_config() gives."""
    assert cli._cycle_config(cli.parse_config(None, [])) \
        == cycle.build_config()


def test_population_grid_is_exact():
    # the acceptance grid: hundredth steps from 0.50 to 0.99
    p_grid = [round(0.5 + 0.01 * k, 2) for k in range(50)]
    assert cli._p_hot_points(cli.parse_config(None, [])) == p_grid
    # a step that does not divide the range stops short of p_hot_max
    cfg = cli.parse_config(None, ["p_hot_min=0.5", "p_hot_max=0.85",
                                  "p_hot_step=0.2"])
    assert cli._p_hot_points(cfg) == [0.5, 0.7]


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = cli.main(["rates", "--config", str(tmp_path / "nope.cfg")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_simulate_requires_population_inversion(tmp_path, capsys):
    code = cli.main(["simulate", "--set", "p_plus_hot=0.4",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_inconsistent_grid_is_config_error(tmp_path, capsys):
    # t_f defaults to 1.0 which no longer fits the shrunk horizon
    code = cli.main(["rates", "--set", "heat_t_max=0.5",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("heat_dt=0.0007", "heat_dt = 0.0007 does not divide"),
    ("heat_t_max=1.004", "tail_dt = 0.01 does not divide"),
])
def test_grid_spacing_must_divide_its_span(tmp_path, capsys, setting,
                                           message):
    """No silent rounding: 0.7 us does not fit 1 ms, nor 10 us 4 us."""
    code = cli.main(["rates", "--set", setting, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_oversized_grids_are_config_errors(tmp_path, capsys, monkeypatch):
    """A heating grid or rate table past MAX_POINTS samples is an input
    error (exit 2), refused before numpy is asked to allocate it."""
    code = cli.main(["simulate", "--set", "heat_dt=1e-300",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "heating samples" in capsys.readouterr().err
    # the TINY table holds 301 points
    monkeypatch.setattr(bath, "MAX_POINTS", 300)
    code = cli.main(["rates", "--out", str(tmp_path)] + TINY)
    assert code == cli.EXIT_CONFIG
    assert "needs 301 points" in capsys.readouterr().err


def test_removed_n_steps_is_unknown(tmp_path, capsys):
    """The ramp picks its own step count: `n_steps` is not a key."""
    code = cli.main(["simulate", "--set", "n_steps=600",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "unknown key 'n_steps'" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_nonmarkov_checks_every_table_size_before_output(tmp_path, capsys):
    """A cutoff whose rate table would pass MAX_POINTS is refused before
    `witness.csv` or any other file is written."""
    code = cli.main(["nonmarkov", "--set", "omega_c_list=5,1e6",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "needs 200000001 points" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_rates_output(tmp_path):
    code = cli.main(["rates", "--out", str(tmp_path)] + TINY)
    assert code == cli.EXIT_OK
    header, columns, data = read_csv(tmp_path / "rates.csv")
    assert columns == ["t_us", "gamma", "gamma_tilde", "big_gamma"]
    assert any(line == "# omega_c = 30" for line in header)
    assert any(line.startswith("# derived eps_hot = 22.8365912")
               for line in header)
    assert any(line.startswith("# qotto ") for line in header)
    assert data[0] == ["0", "0", "0", "0"]
    g = np.array([float(r[1]) for r in data])
    assert np.all(np.isfinite(g))


def test_rates_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["rates", "--out", str(out_a)] + TINY) == 0
    assert cli.main(["rates", "--out", str(out_b)] + TINY) == 0
    assert (out_a / "rates.csv").read_bytes() \
        == (out_b / "rates.csv").read_bytes()


def test_simulate_summary_and_table(tmp_path, capsys):
    code = cli.main(["simulate", "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    summary = summary_dict(capsys.readouterr().out)
    assert float(summary["eta_max"]) == pytest.approx(0.71183, abs=1e-4)
    assert float(summary["t_tilde_max_us"]) == pytest.approx(271.9, abs=0.2)
    assert float(summary["eta_sat"]) == pytest.approx(0.6499, abs=1e-3)
    assert float(summary["eta_ift"]) == pytest.approx(0.64984, abs=1e-4)
    assert summary["no_engine"] == "0"

    header, columns, data = read_csv(tmp_path / "efficiency.csv")
    assert columns == ["t_us", "eta", "w1", "w2", "q_hot", "valid"]
    assert len(data) == 1341          # 1201 dense samples plus 140 tail
    assert {row[5] for row in data} == {"0", "1"}
    # eta column mixes numbers and nan markers; both must parse
    etas = [float(row[1]) for row in data]
    assert math.isnan(etas[0])
    assert max(e for e in etas if not math.isnan(e)) \
        == pytest.approx(float(summary["eta_max"]), abs=5e-4)


def test_simulate_flags_no_engine(tmp_path, capsys):
    code = cli.main(["simulate", "--set", "alpha=0",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_NO_ENGINE
    summary = summary_dict(capsys.readouterr().out)
    assert summary["no_engine"] == "1"
    assert summary["eta_max"] == "nan"
    assert summary["o_p"] == "0"


def test_nonmarkov_outputs(tmp_path):
    code = cli.main(["nonmarkov", "--set", "omega_c_list=5,25",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    _, columns, data = read_csv(tmp_path / "witness.csv")
    assert columns == ["t_us", "f"]
    f = np.array([float(r[1]) for r in data])
    assert np.all(f >= 0.0)

    _, q_cols, q_data = read_csv(tmp_path / "nonmarkov_q.csv")
    assert q_cols == ["omega_c", "Q"]
    table = {row[0]: row[1] for row in q_data}
    assert table["25"] == "0"         # sharp cutoff carries no memory
    assert float(table["5"]) > 0.0


@pytest.mark.parametrize("extra", [[], ["--set", "omega_c_list=" + ",".join(
    str(w) for w in range(2, 31))]])
def test_nonmarkov_builds_configs_independent_of_cutoffs(tmp_path,
                                                         monkeypatch, extra):
    """Each cutoff's reservoir is built from the hot one, never through a
    whole CycleConfig: 29 cutoffs build as many configs as the default
    list of four."""
    built = []
    post_init = cycle.CycleConfig.__post_init__

    def counting(self):
        built.append(self.omega_c)
        post_init(self)

    monkeypatch.setattr(cycle.CycleConfig, "__post_init__", counting)
    assert cli.main(["nonmarkov", "--out", str(tmp_path)]
                    + TINY + extra) == cli.EXIT_OK
    assert built == [30.0]


_CUTOFFS_2_TO_30 = ["--set", "omega_c_list=" + ",".join(
    str(w) for w in range(2, 31))]


def test_nonmarkov_checks_every_table_in_one_pass(tmp_path, monkeypatch):
    """29 cutoffs, the configured one among them: one build call over the
    29 reservoirs, and one fine-resolution remainder pass checks every
    table."""
    builds, orders = [], []
    build, remainder = cli.build_rate_trajectories, bath._remainder

    def counting_build(specs, *args):
        builds.append(len(specs))
        return build(specs, *args)

    def counting_remainder(specs, eps, t, order, *rest, **kw):
        orders.append(order)
        return remainder(specs, eps, t, order, *rest, **kw)

    monkeypatch.setattr(cli, "build_rate_trajectories", counting_build)
    monkeypatch.setattr(bath, "_remainder", counting_remainder)
    assert cli.main(["nonmarkov", "--out", str(tmp_path)]
                    + _CUTOFFS_2_TO_30) == cli.EXIT_OK
    assert builds == [29]
    assert orders.count(bath._FINE_RESOLUTION[0]) == 1


def test_nonmarkov_witness_without_the_configured_cutoff(tmp_path):
    """When the list lacks the configured cutoff (30), its table is built
    with the listed ones, and `witness.csv` holds, byte for byte, what a
    run that lists only 30, whose table is built alone, writes."""
    files = []
    for listed in ("2,5", "30"):
        out = tmp_path / listed
        assert cli.main(["nonmarkov", "--set", f"omega_c_list={listed}",
                         "--out", str(out)]) == cli.EXIT_OK
        files.append((out / "witness.csv").read_bytes().splitlines())
        _, _, q_data = read_csv(out / "nonmarkov_q.csv")
        assert [row[0] for row in q_data] == listed.split(",")
    apart, alone = files
    assert len(apart) == len(alone) > 1000
    changed = [a for a, b in zip(apart, alone) if a != b]
    assert changed == [b"# omega_c_list = 2,5"]


@pytest.mark.parametrize("argv", [
    ["nonmarkov"] + _CUTOFFS_2_TO_30 + TINY,
    ["simulate"] + FAST,
    ["rates"] + TINY,
    ["ift"] + FAST,
    ["sweep-cutoff"] + FAST,
    ["sweep-population", "--set", "p_hot_min=0.9", "--set", "p_hot_max=0.99",
     "--set", "p_hot_step=0.09"] + FAST,
], ids=lambda argv: argv[0])
def test_each_command_diagonalises_each_hamiltonian_once(tmp_path,
                                                         monkeypatch, argv):
    """The config diagonalises its cold and its hot Hamiltonian once each;
    the headers, the setup, the reservoirs and the rate tables of a
    command all read those two results, and sweep-cutoff's four cutoffs
    move only the reservoir."""
    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append(h)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 2
    assert not hasattr(cli, "transition_energy")


def test_sweep_cutoff_error_row(tmp_path, monkeypatch):
    """A cutoff whose run fails keeps its row: NaN numbers and the error
    text, its commas and newlines made safe for a CSV cell."""
    run = cycle._cycle

    def failing(cfg, su, hot):
        if hot.omega_c == 25.0:
            raise ValueError("a,b\nc")
        return run(cfg, su, hot)

    monkeypatch.setattr(cycle, "_cycle", failing)
    code = cli.main(["sweep-cutoff", "--set", "omega_c_list=25,30",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    lines = (tmp_path / "cutoff_sweep.csv").read_text().splitlines()
    assert lines[-2] == "25,nan,nan,nan,nan,nan,error:ValueError: a;b c"
    assert lines[-1].startswith("30,") and lines[-1].endswith(",ok")


def test_sweep_cutoff_no_engine_row(tmp_path):
    code = cli.main(["sweep-cutoff", "--set", "omega_c_list=30",
                     "--set", "alpha=0", "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    _, _, data = read_csv(tmp_path / "cutoff_sweep.csv")
    assert len(data) == 1
    assert data[0][:3] == ["30", "nan", "nan"]
    assert data[0][6] == "no-engine"


def test_sweep_population_error_row(tmp_path, monkeypatch):
    """A population whose rate table fails keeps its row, with NaN
    numbers, valid 0 and the error text; the other rows stay ok."""
    bad = replace(cycle.CycleConfig(), p_plus_hot=0.75).hot_bath
    build = cycle.build_rate_trajectories

    def failing(baths, *args):
        if bad in baths:
            raise ValueError("a,b\nc")
        return build(baths, *args)

    monkeypatch.setattr(cycle, "build_rate_trajectories", failing)
    code = cli.main(["sweep-population", "--set", "t_tilde=0.272",
                     "--set", "p_hot_min=0.55", "--set", "p_hot_max=0.95",
                     "--set", "p_hot_step=0.1",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    lines = (tmp_path / "population_sweep.csv").read_text().splitlines()
    rows = lines[-5:]
    assert rows[2] == "0.75,nan,0,nan,nan,error:ValueError: a;b c"
    assert [row.split(",")[0] for row in rows] == [
        "0.55", "0.65", "0.75", "0.85", "0.95"]
    assert all(row.endswith(",ok") for row in rows[:2] + rows[3:])


# default `simulate` summary, `nonmarkov` Q rows and `sweep-population`
# (eta, valid) rows as printed; a change that moves one on purpose re-pins
# it and says why
PINNED_SUMMARY = {
    "eta_max": 0.711829144, "t_tilde_max_us": 271.896493,
    "window_lo_us": 267.644485, "window_hi_us": 276.246715,
    "eta_sat": 0.649838764, "t_eq_us": 1270.0, "o_p": 0.561345486,
    "q_nonmarkov": 0.0, "eta_ift": 0.649838821, "no_engine": 0.0,
}
PINNED_Q = {"5": 0.00342187407, "15": 0.000558287443, "25": 0.0, "30": 0.0}
PINNED_SWEEP = {
    "0.5": (-1.28729243, 0), "0.51": (-0.874811842, 0),
    "0.52": (-0.593836385, 0), "0.53": (-0.390211943, 0),
    "0.54": (-0.23587771, 0), "0.55": (-0.114880265, 0),
    "0.56": (-0.017479563, 0), "0.57": (0.0626074768, 1),
    "0.58": (0.129615567, 1), "0.59": (0.18650281, 1), "0.6": (0.235398007, 1),
    "0.61": (0.277872208, 1), "0.62": (0.315110135, 1),
    "0.63": (0.348022047, 1), "0.64": (0.377318863, 1),
    "0.65": (0.403563901, 1), "0.66": (0.427209296, 1),
    "0.67": (0.448622147, 1), "0.68": (0.468103618, 1),
    "0.69": (0.485903114, 1), "0.7": (0.502228953, 1),
    "0.71": (0.517256506, 1), "0.72": (0.531134474, 1),
    "0.73": (0.543989785, 1), "0.74": (0.55593146, 1),
    "0.75": (0.567053677, 1), "0.76": (0.577438233, 1),
    "0.77": (0.587156541, 1), "0.78": (0.596271245, 1),
    "0.79": (0.604837559, 1), "0.8": (0.612904362, 1),
    "0.81": (0.620515122, 1), "0.82": (0.627708663, 1),
    "0.83": (0.634519816, 1), "0.84": (0.640979976, 1),
    "0.85": (0.647117586, 1), "0.86": (0.652958552, 1),
    "0.87": (0.658526629, 1), "0.88": (0.663843763, 1),
    "0.89": (0.668930431, 1), "0.9": (0.673805976, 1),
    "0.91": (0.678488985, 1), "0.92": (0.682997738, 1),
    "0.93": (0.687350807, 1), "0.94": (0.691567954, 1),
    "0.95": (0.69567162, 1), "0.96": (0.699689743, 1), "0.97": (0.70366189, 1),
    "0.98": (0.707655654, 1), "0.99": (0.711829137, 1),
}


def _matches_pin(text: str, pinned: float) -> bool:
    if pinned == 0.0:
        return float(text) == 0.0
    return float(text) == pytest.approx(pinned, rel=1e-8)


@pytest.fixture(scope="module")
def default_nonmarkov(tmp_path_factory):
    """A default `nonmarkov` run: exit code, output directory and the
    baths of the rate tables it built."""
    out = tmp_path_factory.mktemp("nonmarkov")
    build = cli.build_rate_trajectories
    baths = []

    def counting(specs, *args, **kwargs):
        baths.extend(specs)
        return build(specs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_rate_trajectories", counting)
        code = cli.main(["nonmarkov", "--out", str(out)])
    return code, out, baths


def test_nonmarkov_builds_each_cutoff_once(default_nonmarkov):
    """The configured cutoff (30) is also in the default list: its
    witness table serves its Q row."""
    code, _, baths = default_nonmarkov
    assert code == cli.EXIT_OK
    assert len(baths) == 4
    assert len(set(baths)) == 4


def test_default_nonmarkov_q_is_pinned(default_nonmarkov):
    _, out, _ = default_nonmarkov
    _, _, q_data = read_csv(out / "nonmarkov_q.csv")
    table = {row[0]: row[1] for row in q_data}
    assert table.keys() == PINNED_Q.keys()
    for w, pinned in PINNED_Q.items():
        assert _matches_pin(table[w], pinned), w


def test_default_simulate_summary_is_pinned(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == cli.EXIT_OK
    summary = summary_dict(capsys.readouterr().out)
    assert summary.keys() == PINNED_SUMMARY.keys()
    for key, pinned in PINNED_SUMMARY.items():
        assert _matches_pin(summary[key], pinned), key


def _assert_sweep_population_pinned(out):
    code = cli.main(["sweep-population", "--out", str(out)])
    assert code == cli.EXIT_OK
    _, _, data = read_csv(out / "population_sweep.csv")
    table = {row[0]: row for row in data}
    assert table.keys() == PINNED_SWEEP.keys()
    for p, (eta, valid) in PINNED_SWEEP.items():
        assert _matches_pin(table[p][1], eta), p
        assert table[p][2] == str(valid), p
        assert table[p][5] == "ok", p


def test_default_sweep_population_is_pinned(tmp_path):
    _assert_sweep_population_pinned(tmp_path)


def test_sweep_population_pins_hold_on_the_reference_ramp(tmp_path,
                                                          monkeypatch):
    """The pinned rows are those of the converged ramp: the default sweep
    with its ramp swapped for the 640,000-step midpoint product matches
    every pin too."""
    calls = []

    def reference(p):
        calls.append(p)
        return oracles.midpoint_unitary(p, oracles.REFERENCE_STEPS), 0.0

    monkeypatch.setattr(cycle, "propagate_unitary", reference)
    _assert_sweep_population_pinned(tmp_path)
    assert len(calls) > 0       # the swapped ramp is the one the sweep ran


def test_ift_scan(tmp_path):
    code = cli.main(["ift", "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    header, columns, data = read_csv(tmp_path / "ift_reference.csv")
    assert columns == ["p_plus_hot", "eta", "valid", "w", "q_hot"]
    assert len(data) == 50            # 0.50 to 0.99 in hundredth steps
    assert any(line == "# onset_p_plus_hot = 0.61" for line in header)
    last = data[-1]
    assert last[0] == "0.99" and last[2] == "1"
    assert float(last[1]) == pytest.approx(0.6498388, abs=1e-6)


def test_sweep_cutoff_table(tmp_path):
    code = cli.main(["sweep-cutoff", "--set", "omega_c_list=25,30",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    _, columns, data = read_csv(tmp_path / "cutoff_sweep.csv")
    assert columns == ["omega_c", "eta_max", "t_tilde_max_us", "o_p",
                       "q_nonmarkov", "eta_sat", "status"]
    assert [row[0] for row in data] == ["25", "30"]
    assert all(row[6] == "ok" for row in data)
    assert float(data[0][1]) > float(data[1][1])


def test_sweep_population_fixed_duration(tmp_path):
    code = cli.main(["sweep-population", "--set", "t_tilde=0.272",
                     "--set", "p_hot_min=0.55", "--set", "p_hot_max=0.95",
                     "--set", "p_hot_step=0.1",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    header, columns, data = read_csv(tmp_path / "population_sweep.csv")
    assert columns == ["p_plus_hot", "eta", "valid", "w", "q_hot", "status"]
    assert len(data) == 5
    assert any(line == "# t_tilde_source = config" for line in header)
    assert any(line == "# onset_p_plus_hot = 0.65" for line in header)
    assert data[0][2] == "0" and data[-1][2] == "1"


def test_sweep_population_auto_duration(tmp_path):
    code = cli.main(["sweep-population", "--set", "p_hot_min=0.9",
                     "--set", "p_hot_max=0.99", "--set", "p_hot_step=0.09",
                     "--out", str(tmp_path)] + FAST)
    assert code == cli.EXIT_OK
    header, _, data = read_csv(tmp_path / "population_sweep.csv")
    assert any(line == "# t_tilde_source = auto" for line in header)
    t_lines = [ln for ln in header if ln.startswith("# t_tilde_ms = ")]
    assert len(t_lines) == 1
    assert float(t_lines[0].split("=")[1]) == pytest.approx(0.2719, abs=1e-3)
    assert len(data) == 2


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "deep" / "er"
    assert cli.main(["rates", "--out", str(nested)] + TINY) == 0
    assert (nested / "rates.csv").exists()


def test_header_rebuilds_its_config(tmp_path):
    sets = ["p_plus_hot=0.991234567891"] + TINY[1::2]
    code = cli.main(["rates", "--out", str(tmp_path)]
                    + [a for item in sets for a in ("--set", item)])
    assert code == cli.EXIT_OK
    header, _, _ = read_csv(tmp_path / "rates.csv")
    assert "# p_plus_hot = 0.991234567891" in header
    # values that survive 9 significant digits keep that form
    assert "# heat_t_max = 0.5" in header and "# heat_dt = 0.00025" in header
    rebuilt = cli.parse_config(
        config_file_from_header(header, tmp_path / "run.cfg"), [])
    assert rebuilt == cli.parse_config(None, sets)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POPULATION = st.floats(1e-6, 1.0 - 1e-6)


@settings(max_examples=40, deadline=None)
@given(nu_cold=st.floats(0.1, 10.0), nu_gap=st.floats(0.1, 10.0),
       tau=st.floats(1e-3, 10.0), g=st.floats(0.0, 5.0),
       p_cold=_POPULATION, p_hot=_POPULATION,
       others=st.fixed_dictionaries({
           k: _FINITE for k in ("alpha", "omega_c", "mu", "heat_dt",
                                "heat_t_dense", "tail_dt", "heat_t_max",
                                "t_f", "p_hot_min",
                                "p_hot_max", "p_hot_step")}),
       omega_c_list=st.lists(_FINITE, min_size=1, max_size=4),
       t_tilde=st.none() | _FINITE)
def test_header_round_trip_property(tmp_path_factory, nu_cold, nu_gap, tau,
                                    g, p_cold, p_hot, others,
                                    omega_c_list, t_tilde):
    """header -> config file -> parse_config gives the same dict."""
    values = {"nu_cold": nu_cold, "nu_hot": nu_cold + nu_gap, "tau": tau,
              "g": g, "p_plus_cold": p_cold, "p_plus_hot": p_hot,
              **others,
              "omega_c_list": ",".join(map(repr, omega_c_list)),
              "t_tilde": "auto" if t_tilde is None else repr(t_tilde)}
    text = {k: v if isinstance(v, str) else repr(v)
            for k, v in values.items()}
    cfg = cli.parse_config(None, [f"{k}={v}" for k, v in text.items()])
    path = tmp_path_factory.mktemp("header") / "run.cfg"
    # the derived lines are not config keys and take no part here
    header = cli._header("simulate", cfg, cycle.CycleConfig())
    assert cli.parse_config(config_file_from_header(header, path), []) == cfg


def test_cli_drift_compares_cells_and_headers():
    """The drift report's comparison on two tiny outputs: changed cells,
    their largest relative change, rows only one side has, and changed
    header lines apart from cells."""
    import cli_drift

    old = ["# qotto 0.1.0", "# omega_c = 30", "p,eta,status",
           "0.5,0.123456789,ok", "0.6,nan,ok", "0.7,1,ok"]
    new = ["# qotto 0.1.0", "# omega_c = 25", "p,eta,status",
           "0.5,0.123456788,ok", "0.6,nan,error:x"]
    drift = cli_drift.compare(old, new)
    assert drift.cells == 12
    assert drift.changed == [(1, 1, "0.123456789", "0.123456788"),
                             (2, 2, "ok", "error:x"), (3, 0, "0.7", ""),
                             (3, 1, "1", ""), (3, 2, "ok", "")]
    assert drift.max_rel == math.inf
    assert drift.header_removed == ["# omega_c = 30"]
    assert drift.header_added == ["# omega_c = 25"]
    same = cli_drift.compare(old, old)
    assert (same.cells, same.changed, same.max_rel) == (12, [], 0.0)
    assert cli_drift.compare(old[:4], new[:4]).max_rel == pytest.approx(
        1e-9 / 0.123456789, rel=1e-6)


def test_cli_drift_reports_byte_identity(tmp_path, monkeypatch, capsys):
    """Files whose cells all agree but whose bytes do not, here by their
    line endings, read 0 changed cells and `differ`; equal files read
    `same`."""
    import cli_drift

    trees = {}
    for side, end in (("old", "\n"), ("new", "\r\n")):
        (tmp_path / side).mkdir()
        trees[side] = {}
        for name, text in (("a.csv", "# h\nx,y\n1,2\n"),
                           ("b.csv", "# h\nx\n3\n")):
            path = tmp_path / side / name
            body = text if name == "b.csv" else text.replace("\n", end)
            path.write_bytes(body.encode())
            trees[side][name] = str(path)
    monkeypatch.setattr(cli_drift, "run_defaults",
                        lambda src, outdir: trees[src])
    assert cli_drift.main(["old", "new"]) == 0
    report = {line.split()[0]: line.split()[1:]
              for line in capsys.readouterr().out.splitlines()[1:]}
    assert report == {"a.csv": ["4", "0", "differ", "0"],
                      "b.csv": ["2", "0", "same", "0"]}
