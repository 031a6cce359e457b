"""Record the reference answers that run.py compares against.

    python3 perfbench/record_reference.py

Runs one untraced pass per workload for seeds 1 (the default) and 2 (held
out) from the current sources and
writes `perfbench/reference/<workload>-seed<seed>.json`.  Refuses to write
if any job of the pass failed its own checks.  Re-record only when a change
is meant to alter answers, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = (1, 2)


def main():
    os.makedirs(run.REFERENCE, exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            res = run.run_child(workload, seed, "record")
            bad = [j["id"] for j in res["jobs"] if j["failures"]]
            if bad:
                print(f"{workload} seed {seed}: failing jobs {bad}",
                      file=sys.stderr)
                return 1
            path = os.path.join(run.REFERENCE, f"{workload}-seed{seed}.json")
            lines = [f"{json.dumps(j['id'])}: "
                     f"{json.dumps(j['answer'], sort_keys=True)}"
                     for j in res["jobs"]]
            with open(path, "w") as fh:
                fh.write(f'{{"workload": "{workload}", "seed": {seed}, '
                         '"answers": {\n' + ",\n".join(lines) + "\n}}\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
