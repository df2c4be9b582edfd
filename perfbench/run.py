"""qotto benchmark: seeded workloads, end-to-end costs, traced layers.

    python3 perfbench/run.py --workload cutoff_scan --seed 0 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Every timed pass runs in a fresh interpreter, so the rate
engine's in-process cache starts empty as it does for a user.  Pass
processes start back to back, at least three of them, while another
fits into `--seconds`; the end-to-end metrics are medians over the
passes of the run.  Set-up time is the median over interpreters that
only import the library, launched back to back before the first pass,
so that no workload pass runs just before one of them.

With `--trace 1` the untraced passes fill half the time, then one pass
runs with every layer function wrapped (see tracer.py) and the per-layer
metrics come from it.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it are a readable
report.  Without a checkout around it (no `src/qotto`) the benchmark
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "dynamics.evolve_s": "s", "dynamics.rhs_calls": "count",
    "dynamics.evolve_samples": "count", "dynamics.unitary_s": "s",
    "dynamics.unitary_calls": "count", "dynamics.unitary_reuse": "ratio",
    "bath.rates_s": "s", "bath.rate_points": "count",
    "bath.us_per_point": "us", "bath.rates_cpu_ratio": "ratio",
    "bath.check_s": "s", "bath.tables": "count",
    "bath.distinct_baths": "count", "measures.s": "s", "model.s": "s",
    "cycle.self_s": "s", "cycle.slowest_item_s": "s",
    "cycle.pool_workers": "count", "cycle.pool_busy_ratio": "ratio",
    "cycle.pool_wait_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MIN_PASSES = 3
# set-up-only interpreters per run, for the median of setup_s
SETUP_LAUNCHES = 9
# every run must end within 180 s
RUN_LIMIT_S = 165.0


class PassFailed(Exception):
    pass


def launch(spec: dict, env: dict, timeout: float) -> dict:
    """Start one pass interpreter, wait for it and every process it
    started, and return its JSON result."""
    spec = dict(spec, launch=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"pass exceeded {timeout:.0f} s"
    finally:
        # the pass leads its own process group: end anything left in it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise PassFailed(f"pass exited with {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def pass_env(work: Path) -> dict:
    """Environment of the pass interpreters: the checkout's sources
    first, temporary files inside the checkout, BLAS thread variables
    as the caller left them."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(path))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def context_lines() -> list[str]:
    import numpy
    import scipy
    threads = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
    return [
        f"context: python {platform.python_version()}, numpy "
        f"{numpy.__version__}, scipy {scipy.__version__}, "
        f"os.cpu_count() {os.cpu_count()}",
        "context: thread environment " + ", ".join(
            f"{k}={v}" for k, v in threads.items()),
        f"context: src/ line count {src_lines()} (not gated)",
    ]


def judge(workload, inputs, seed, summary) -> list[str]:
    try:
        return workloads.check(workload, inputs, summary, seed)
    except Exception as exc:  # a malformed summary fails every item
        return [f"check raised {type(exc).__name__}: {exc}"] * \
            workloads.n_items(workload, inputs)


def run(args) -> int:
    if not (SRC / "qotto" / "__init__.py").is_file():
        print(f"no qotto sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    n_items = workloads.n_items(args.workload, inputs)
    work = WORK / f"run-{os.getpid()}"
    env = pass_env(work)
    report = [f"workload {args.workload}, seed {args.seed}, "
              f"seconds {args.seconds}, trace {args.trace}",
              f"inputs: {json.dumps(inputs)}"] + context_lines()
    base = {"workload": args.workload, "inputs": inputs}
    started = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    passes, verdicts, selftest, setups = [], [], [], []
    traced = None
    try:
        # the first launch compiles the byte code, so no timed set-up
        # pays for it
        try:
            for _ in range(1 + SETUP_LAUNCHES):
                setups.append(launch(dict(base, mode="setup"), env,
                                     remaining())["setup_s"])
        except PassFailed as exc:
            print("\n".join(report + [f"set-up: {exc}"]), file=sys.stderr)
            return 1
        setups = setups[1:]
        report.append("set-up launches: " + ", ".join(
            f"{v:.3f}" for v in setups) + " s")
        budget = args.seconds / 2.0 if args.trace else args.seconds
        min_passes = 1 if args.trace else MIN_PASSES
        n = 0
        while True:
            elapsed = time.perf_counter() - started
            # a pass costs its set-up, its work and the launch around them
            typical = statistics.median(p["cost_s"] for p in passes) \
                if passes else 0.0
            if len(passes) >= min_passes and elapsed + typical > budget:
                break
            if passes and elapsed + 2.0 * typical > RUN_LIMIT_S:
                break
            n += 1
            workdir = work / f"pass-{n}"
            workdir.mkdir()
            try:
                t0 = time.perf_counter()
                res = launch(dict(base, mode="pass", workdir=str(workdir)),
                             env, remaining())
                res["cost_s"] = time.perf_counter() - t0
            except PassFailed as exc:
                verdicts.extend([str(exc)] * n_items)
                report.append(f"pass {n}: {exc}")
                break
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            passes.append(res)
            verdicts.extend(judge(args.workload, inputs, args.seed,
                                  res["summary"]))
            selftest.append(any(judge(args.workload, inputs, args.seed,
                                      workloads.perturbed(args.workload,
                                                          res["summary"]))))
            report.append(
                f"pass {n}: wall {res['wall_s']:.3f} s, cpu "
                f"{res['cpu_s']:.3f} s, peak rss {res['peak_rss_mb']:.1f} "
                f"MB, involuntary context switches {res['nivcsw']}")
        if args.trace and passes:
            workdir = work / "trace"
            workdir.mkdir()
            try:
                traced = launch(dict(base, mode="trace",
                                     workdir=str(workdir)), env, remaining())
            except PassFailed as exc:
                verdicts.extend([str(exc)] * n_items)
                report.append(f"traced pass: {exc}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if traced is not None:
                verdicts.extend(judge(args.workload, inputs, args.seed,
                                      traced["summary"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if not passes:
        print("\n".join(report), file=sys.stderr)
        print("no pass completed: nothing was measured", file=sys.stderr)
        return 1
    failed = sum(1 for v in verdicts if v)
    for v in sorted(set(v for v in verdicts if v)):
        report.append(f"failed item: {v}")
    ok = failed == 0 and all(selftest)
    if not all(selftest):
        report.append("self-test: a perturbed result passed the check")

    metrics = {}
    samples = {"wall_s": [p["wall_s"] for p in passes],
               "cpu_s": [p["cpu_s"] for p in passes],
               "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(samples[name])
        report.append(f"{name} = {med:.6g} {unit} (median of "
                      f"{len(samples[name])}; quartiles {q1:.6g} to "
                      f"{q3:.6g})")
        if not args.trace:
            metrics[name] = {"value": med, "unit": unit}
    report.append(f"failed_ratio = {failed}/{len(verdicts)} = "
                  f"{failed / max(1, len(verdicts)):.6g}")
    if args.trace:
        if traced is None:
            ok = False
        else:
            layers = dict(traced["layers"])
            layers["cli.bytes_written"] = traced["bytes_written"]
            overhead = traced["wall_s"] - statistics.median(
                p["wall_s"] for p in passes)
            layers["trace.overhead_s"] = overhead
            # time of the pass process that no layer span covers.  Host
            # noise can make the overhead read negative or large, so the
            # tolerance is its size, and at most 1 % of the traced wall
            gap = traced["wall_s"] - traced["layer_self_s"]
            tol = min(abs(overhead), 0.01 * traced["wall_s"])
            report.append(f"traced wall {traced['wall_s']:.6g} s; layer "
                          f"self times of the pass process sum to "
                          f"{traced['layer_self_s']:.6g} s (gap {gap:.3g} s, "
                          f"tolerance {tol:.3g} s)")
            if abs(gap) > tol:
                ok = False
                report.append("self-test: layer self times miss the traced "
                              "wall by more than the tolerance")
            for name, unit in PER_LAYER_UNITS.items():
                metrics[name] = {"value": layers[name], "unit": unit}
                report.append(f"{name} = {layers[name]:.6g} {unit}")
    for line in report:
        print(line)
    print(json.dumps({"correct": ok, "attempted": max(1, len(verdicts)),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
