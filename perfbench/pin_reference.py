"""Re-pin the seed-0 reference scalars that the checks compare against.

    python3 perfbench/pin_reference.py

Runs one seed-0 pass of every workload, checks it against the seed-free
invariants, and writes reference_seed0.json.  Re-pin only for a change
that is meant to move the results, and say why in the change.
"""
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    work = run.WORK / "pin"
    env = run.pass_env(work)
    summaries = {}
    try:
        for name in workloads.WORKLOADS:
            inputs = workloads.make_inputs(name, 0)
            workdir = work / name
            workdir.mkdir()
            res = run.launch({"workload": name, "inputs": inputs,
                              "mode": "pass", "workdir": str(workdir)},
                             env, run.RUN_LIMIT_S)
            # seed 1 skips the reference comparison, keeps the invariants
            bad = [v for v in workloads.check(name, inputs, res["summary"], 1)
                   if v]
            if bad:
                print(f"{name}: {bad}", file=sys.stderr)
                return 1
            summaries[name] = res["summary"]
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(workloads.make_reference(summaries), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
