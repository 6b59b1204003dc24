"""Command line front end.

Exit codes: 0 success, 1 a validated schedule has violations, 2 the problem
is infeasible or unrealizable as posed, 3 usage, file, input or solver
errors, and any internal error (printed with its traceback). Every file is
read and written by model.read_json and model.write_json.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback

from backhaulopt.errors import BackhaulError, InconsistentInput, Infeasible
from backhaulopt.experiment import ExperimentConfig, run_experiment, write_results
from backhaulopt.formulations import (
    Objective,
    parse_setting,
    solution_from_dict,
    solution_to_dict,
    solve_objective,
)
from backhaulopt.generator import GeneratorConfig, adapt_topology, generate_topology
from backhaulopt.model import load_topology, read_json, topology_to_dict, write_json
from backhaulopt.scheduler import build_schedule, schedule_from_dict, schedule_to_dict
from backhaulopt.validator import derived_field_violations, validate_schedule

SEED_ENV = "BACKHAUL_OPT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; reserve 2 for infeasibility instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _seed_for(args) -> int:
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InconsistentInput(f"{SEED_ENV}={env!r} is not an integer") from None
    return args.seed


# each size flag's dest, the config field it sets, its type and its help
_SIZE_FLAGS = (
    ("small_bs", "num_small_bs", int, "number of small BSs"),
    ("macro_degree", "macro_degree", int, "children of the macro BS"),
    ("max_children", "max_small_children", int, "children per small BS"),
    ("pairs", "interference_pair_budget", int, "interference pairs to draw (default %(default)s)"),
    ("phy_rate", "phy_rate_gbps", float, "physical link rate in Gbps"),
)


def _config(cls, args, **fields):
    """A GeneratorConfig or ExperimentConfig from --seed, the size flags and fields."""
    sizes = {field: getattr(args, dest) for dest, field, _, _ in _SIZE_FLAGS}
    return cls(seed=_seed_for(args), **sizes, **fields)


def cmd_generate(args) -> int:
    write_json(topology_to_dict(generate_topology(_config(GeneratorConfig, args))), args.out)
    return 0


def cmd_solve(args) -> int:
    topology = load_topology(args.topology)
    setting, macro_chains = parse_setting(args.setting)
    if macro_chains is not None:
        # LR(k) pins the chain counts; plain LR and ER use the file's counts
        topology = adapt_topology(topology, setting, macro_chains=macro_chains)
    solution = solve_objective(
        topology, setting, Objective(args.objective), fair_floor=args.fair_floor
    )
    write_json(solution_to_dict(topology, solution), args.out)
    if solution.d_b_gbps is not None:
        print(f"per-BS demand: {solution.d_b_gbps:.9f} Gbps", file=sys.stderr)
    print(f"aggregate demand: {solution.aggregate_gbps:.9f} Gbps", file=sys.stderr)
    return 0


def cmd_schedule(args) -> int:
    topology = load_topology(args.topology)
    solution = solution_from_dict(read_json(args.solution, "solution"))
    schedule = build_schedule(topology, solution.p_first)
    write_json(schedule_to_dict(schedule), args.out)
    return 0


def cmd_validate(args) -> int:
    topology = load_topology(args.topology)
    data = read_json(args.solution, "solution")
    solution = solution_from_dict(data)
    schedule = schedule_from_dict(read_json(args.schedule, "schedule"))
    report = validate_schedule(
        topology, schedule, p_first=solution.p_first, demands=solution.per_bs
    )
    report.violations += derived_field_violations(topology, solution, data)
    for violation in report.violations:
        print(violation)
    print(f"realized equal demand: {report.realized_equal_demand:.9f} Gbps")
    if report.ok:
        print("schedule OK")
        return 0
    print(f"{len(report.violations)} violation(s)")
    return 1


def cmd_experiment(args) -> int:
    results = run_experiment(_config(ExperimentConfig, args, trials=args.trials))
    for path in write_results(results, args.out_dir):
        print(path)
    return 0


def _add_size_flags(sub, defaults) -> None:
    """The size flags, defaulting to the fields of a config instance."""
    for dest, field, kind, text in _SIZE_FLAGS:
        sub.add_argument("--" + dest.replace("_", "-"), type=kind,
                         default=getattr(defaults, field), help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="backhaulopt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen_defaults = GeneratorConfig()
    gen = subs.add_parser("generate", help="draw a random tree topology")
    gen.add_argument("--seed", type=int, default=gen_defaults.seed,
                     help=f"rng seed ({SEED_ENV} overrides when set)")
    _add_size_flags(gen, gen_defaults)
    gen.add_argument("--out", default="-", help="topology JSON path, - for stdout")
    gen.set_defaults(func=cmd_generate)

    slv = subs.add_parser("solve", help="maximize demand for a topology")
    slv.add_argument("topology", help="topology JSON path")
    slv.add_argument("--setting", required=True,
                     help="MI-ER, LI-ER, MI-LR, LI-LR, or e.g. LI-LR(2)")
    slv.add_argument("--objective", default=Objective.EQUAL_DEMAND.value,
                     choices=[o.value for o in Objective])
    slv.add_argument("--fair-floor", type=float, default=None,
                     help="explicit per-BS floor for aggregate_fair")
    slv.add_argument("--out", default="-", help="solution JSON path, - for stdout")
    slv.set_defaults(func=cmd_solve)

    sch = subs.add_parser("schedule", help="realize a solution as a frame schedule")
    sch.add_argument("topology")
    sch.add_argument("solution")
    sch.add_argument("--out", default="-", help="schedule JSON path, - for stdout")
    sch.set_defaults(func=cmd_schedule)

    val = subs.add_parser("validate", help="check a schedule against a solution")
    val.add_argument("topology")
    val.add_argument("solution")
    val.add_argument("schedule")
    val.set_defaults(func=cmd_validate)

    exp_defaults = ExperimentConfig()
    exp = subs.add_parser("experiment", help="run the batch simulation")
    exp.add_argument("--seed", type=int, default=exp_defaults.seed,
                     help=f"base seed ({SEED_ENV} overrides when set)")
    exp.add_argument("--trials", type=int, default=exp_defaults.trials)
    # the paper's batch draws interference pairs; with none, LI equals MI
    _add_size_flags(exp, exp_defaults)
    exp.add_argument("--out-dir", default="results", help="directory for the CSV files")
    exp.set_defaults(func=cmd_experiment)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, on the first call of main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (BackhaulError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # a defect, not a verdict: never let it read as exit 1 (violations)
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
