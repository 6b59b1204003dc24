"""The pins of a traced benchmark run: it is correct, reports every per-layer
metric that BENCHMARK.json lists, and keeps the deterministic counters of its
seed-1 ops.

    python3 perfbench/run.py --workload revalidate-io --seconds 2 --trace 1 > bench-trace.out
    python3 tests/bench_pins.py revalidate-io bench-trace.out

The last line of the result file is the run's JSON result. The script prints
the missing metrics and the moved counters, and exits 1 unless the run is
correct and nothing is missing or moved.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# deterministic counters of the seed-1 ops; a change that moves the
# pivot path or the counts on purpose updates them and says so in CHANGES.md.
# lp.solves and formulations.solve_calls also pin that every LP still
# passes through the formulations.solve boundary the harness wraps;
# generator.generate_calls pins one fresh tree per trial or op, so
# variants share the index of a tree only within that tree; experiment-paper's
# scheduler.calls pins the placements its trials carry over to other chain
# budgets, and validator.calls that every setting is still judged
PINNED = {
    "experiment-paper": {
        "lp.pivots": 4847, "lp.phase1_pivots": 4000, "scheduler.calls": 443,
        "scheduler.placed_ratio": 1.0, "validator.calls": 600, "validator.violations": 0,
        "lp.solves": 200, "formulations.solve_calls": 800,
        "lp.tableau_cells": 1740800, "generator.generate_calls": 100,
    },
    "plan-large": {
        "lp.pivots": 824, "lp.phase1_pivots": 800, "lp.tableau_cells": 3388096,
        "lp.solves": 4, "formulations.solve_calls": 6,
        "generator.generate_calls": 2,
    },
    "revalidate-io": {"validator.calls": 120, "validator.violations": 150},
}


def main(workload: str, result_file: str) -> int:
    result = json.loads(Path(result_file).read_text().splitlines()[-1])
    wanted = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    print(workload, "missing per-layer metrics:", missing)
    pinned = PINNED[workload]
    moved = {name: result["metrics"].get(name, {}).get("value") for name in pinned}
    moved = {name: got for name, got in moved.items() if got != pinned[name]}
    print(workload, "pinned counters that moved:", moved)
    return 0 if result["correct"] is True and not missing and not moved else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
