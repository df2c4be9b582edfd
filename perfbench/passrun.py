"""One timed pass of one workload in a fresh interpreter.

    python3 perfbench/passrun.py '<json spec>'

The spec gives the workload, its inputs, the launch time stamp taken by
the parent just before it started this interpreter, a work directory
and the mode: "setup" only imports the library, "pass" runs the
workload once, "trace" runs it once under the tracer.  The last line of
standard output is one JSON object with the measurements and the
per-item summary.
"""
import json
import sys
import time

SPEC = json.loads(sys.argv[1])

# set-up as every CLI call pays it: the library and the scipy parts it
# pulls in
import qotto.cli  # noqa: E402
import qotto.cycle  # noqa: E402
import scipy.integrate  # noqa: E402,F401
import scipy.interpolate  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

SETUP_S = time.time() - SPEC["launch"]

import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me, kids


def _bytes_in(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main() -> dict:
    out = {"setup_s": SETUP_S}
    if SPEC["mode"] == "setup":
        return out
    workload, inputs = SPEC["workload"], SPEC["inputs"]
    workdir = SPEC["workdir"]
    outdir = os.path.join(workdir, "out")
    tracer = None
    if SPEC["mode"] == "trace":
        from tracer import Tracer, layer_metrics, layer_self_total
        tracer = Tracer(workdir)
        tracer.install()

    me0, kids0 = _usage()
    t0 = time.perf_counter()
    if tracer is None:
        raw = workloads.run_pass(workload, inputs, outdir)
    else:
        with tracer.span("bench.pass"):
            raw = workloads.run_pass(workload, inputs, outdir)
    wall = time.perf_counter() - t0
    me1, kids1 = _usage()

    out.update({
        "wall_s": wall,
        "cpu_s": (me1.ru_utime - me0.ru_utime + me1.ru_stime - me0.ru_stime
                  + kids1.ru_utime - kids0.ru_utime
                  + kids1.ru_stime - kids0.ru_stime),
        # ru_maxrss is in KiB on Linux; workers are children of this process
        "peak_rss_mb": max(me1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "nivcsw": (me1.ru_nivcsw - me0.ru_nivcsw
                   + kids1.ru_nivcsw - kids0.ru_nivcsw),
        "bytes_written": _bytes_in(outdir) if os.path.isdir(outdir) else 0,
    })
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.all_spans()
        out["layers"] = layer_metrics(spans, tracer.main_pid, wall)
        out["layer_self_s"] = layer_self_total(spans, tracer.main_pid)
    out["summary"] = workloads.summarize(workload, inputs, raw, outdir)
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
