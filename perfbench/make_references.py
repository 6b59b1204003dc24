#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the package in src/.

    python3 perfbench/make_references.py

Reference answers exist for the default seed and one held-out seed. Run
this only when a change is meant to alter the answers, and say so: every
benchmark op is checked against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = (1, 2027)  # default seed, held-out seed
EXPERIMENT_TRIALS = 200
PLAN_OPS = 12


def main() -> int:
    run.import_package()
    import workloads

    refs: dict = {name: {} for name in run.WORKLOADS}
    workdir = os.path.join(run.OUT, "references")
    os.makedirs(workdir, exist_ok=True)
    try:
        for seed in SEEDS:
            w = workloads.setup("experiment-paper", seed, workdir)
            refs["experiment-paper"][str(seed)] = {
                "rows": [workloads.trial_row(w.op(i)) for i in range(EXPERIMENT_TRIALS)]}
            w = workloads.setup("plan-large", seed, workdir)
            refs["plan-large"][str(seed)] = {
                "ops": [workloads.plan_answer(w.op(i)) for i in range(PLAN_OPS)]}
            w = workloads.setup("revalidate-io", seed, workdir)
            triples = {}
            for i in range(len(w.state["triples"]) * workloads.TAMPER_EVERY):
                triples[workloads.revalidate_input(w, i)[1]] = workloads.revalidate_answer(w.op(i))
            refs["revalidate-io"][str(seed)] = {"triples": triples}
            for name in run.WORKLOADS:
                w = workloads.setup(name, seed, workdir, refs)
                problems = [p for i in range(3) for p in w.check(i, w.op(i))]
                if problems:
                    raise SystemExit(f"{name} seed {seed} fails its own checks: {problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
