"""Batch simulation: many random topologies, every setting, three objectives.

A trial draws one topology per seed and reuses it across all six settings
(pairs stripped for MI; chain counts rewritten only for LR(k), as generated
trees already carry the ER counts), so the settings are compared on identical
trees; the variants share the tree's index and verdict. The objectives reuse
the reference regime's topology and equal-demand optimum.

Within an interference variant, an LR setting whose fractions equal (==)
those of a setting placed before it, and whose chain budgets the schedule
fits (scheduler.carries_over: no budget above the one it was placed under,
no piece on a chain past the new budget), takes that schedule instead of
placing its own; where the LR chain budget does not bind, that is ER's.
Every setting's schedule is still validated against its own topology.
Outputs are CSV files that the same seed reproduces byte for byte.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

from backhaulopt.errors import NonPositiveInput, PlacementFailure
from backhaulopt.formulations import (
    Interference,
    Objective,
    jain_index,
    min_radio_chains,
    parse_setting,
    solve_equal_demand,
    solve_objective,
)
from backhaulopt.generator import (
    GeneratorConfig,
    adapt_topology,
    generate_topology,
    strip_interference,
)
from backhaulopt.model import float_sum
from backhaulopt.scheduler import build_schedule, carries_over
from backhaulopt.validator import validate_schedule

SETTING_NAMES = ("MI-ER", "LI-ER", "MI-LR(1)", "LI-LR(1)", "MI-LR(2)", "LI-LR(2)")
# objective comparison runs under the most constrained regime
REFERENCE_SETTING = "LI-LR(2)"
OBJECTIVE_NAMES = tuple(o.value for o in Objective)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    trials: int = 50
    num_small_bs: int = GeneratorConfig.num_small_bs
    macro_degree: int = GeneratorConfig.macro_degree
    max_small_children: int = GeneratorConfig.max_small_children
    interference_pair_budget: int = 6
    phy_rate_gbps: float = GeneratorConfig.phy_rate_gbps


@dataclass
class TrialResult:
    trial: int
    seed: int
    d_b: dict[str, float] = field(default_factory=dict)
    realized: dict[str, bool] = field(default_factory=dict)
    aggregate: dict[str, float] = field(default_factory=dict)
    jain: dict[str, float] = field(default_factory=dict)
    macro_chains_needed: int = 0
    max_small_chains_needed: int = 0


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    seed = config.seed + trial
    base = generate_topology(
        GeneratorConfig(
            seed=seed,
            num_small_bs=config.num_small_bs,
            macro_degree=config.macro_degree,
            max_small_children=config.max_small_children,
            interference_pair_budget=config.interference_pair_budget,
            phy_rate_gbps=config.phy_rate_gbps,
        )
    )
    bare = strip_interference(base)
    result = TrialResult(trial=trial, seed=seed)
    placed = {variant: [] for variant in Interference}

    for name in SETTING_NAMES:
        setting, macro_chains = parse_setting(name)
        topo = bare if setting.interference is Interference.MINIMAL else base
        if macro_chains is not None:
            topo = adapt_topology(topo, setting, macro_chains=macro_chains)
        sol = solve_equal_demand(topo, setting)
        result.d_b[name] = sol.d_b_gbps
        result.realized[name] = _realizes(topo, sol, placed[setting.interference])
        if name == "MI-ER":
            chains = min_radio_chains(topo, sol.p_first)
            result.macro_chains_needed = chains[topo.macro.id]
            small = [chains[b] for b in topo.small_bs_ids()]
            result.max_small_chains_needed = max(small) if small else 0
        if name == REFERENCE_SETTING:
            for best in (
                sol,
                solve_objective(topo, setting, Objective.AGGREGATE),
                solve_objective(topo, setting, Objective.AGGREGATE_FAIR, fair_floor=sol.d_b_gbps),
            ):
                result.aggregate[best.objective.value] = best.aggregate_gbps
                result.jain[best.objective.value] = jain_index(best.per_bs)
    return result


def _realizes(topo, sol, placed: list) -> bool:
    """Whether sol's fractions place on topo and the schedule validates there.

    placed holds (p_first, topology, schedule) for the schedules placed so
    far on the same tree and pair list; one placed for equal fractions that
    carries over to topo's chain budgets is judged again, not placed again.
    """
    for p_first, source, schedule in placed:
        if p_first == sol.p_first and carries_over(schedule, source, topo):
            break
    else:
        try:
            schedule = build_schedule(topo, sol.p_first)
        except PlacementFailure:
            return False
        placed.append((sol.p_first, topo, schedule))
    return validate_schedule(topo, schedule, p_first=sol.p_first, demands=sol.per_bs).ok


def run_experiment(config: ExperimentConfig) -> list[TrialResult]:
    if type(config.trials) is not int or config.trials < 1:
        raise NonPositiveInput(f"an experiment needs at least one trial, got {config.trials!r}")
    return [run_trial(config, t) for t in range(config.trials)]


def _fmt(x: float) -> str:
    return f"{x:.9f}"


# (per-trial table or None, summary label, TrialResult field, keys): the table
# holds one %.9f column per key, and summary.csv one mean per key, in this order
_LAYOUT = (
    ("max_demand_by_setting.csv", "mean_d_b", "d_b", SETTING_NAMES),
    (None, "realized_rate", "realized", SETTING_NAMES),
    ("aggregate_by_objective.csv", "mean_aggregate", "aggregate", OBJECTIVE_NAMES),
    ("jain_by_objective.csv", "mean_jain", "jain", OBJECTIVE_NAMES),
)


def write_results(results: list[TrialResult], out_dir: str) -> list[str]:
    """Emit the four per-trial tables plus a summary; returns the paths."""
    if not results:
        raise NonPositiveInput("no trial results to write")
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def table(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)

    summary_rows = []
    for name, label, attr, keys in _LAYOUT:
        per_trial = [getattr(r, attr) for r in results]
        if name is not None:
            rows = [[r.trial, r.seed, *(_fmt(c[k]) for k in keys)]
                    for r, c in zip(results, per_trial)]
            table(name, ["trial", "seed", *keys], rows)
        summary_rows += [
            [f"{label}[{k}]", _fmt(float_sum(c[k] for c in per_trial) / len(results))] for k in keys
        ]
    table(
        "min_radio_chains_hist.csv",
        ["trial", "seed", "macro_chains", "max_small_chains"],
        [
            [r.trial, r.seed, r.macro_chains_needed, r.max_small_chains_needed]
            for r in results
        ],
    )
    for count in sorted({r.macro_chains_needed for r in results}):
        hits = sum(1 for r in results if r.macro_chains_needed == count)
        summary_rows.append([f"macro_chains={count}", str(hits)])
    table("summary.csv", ["metric", "value"], summary_rows)
    return paths
