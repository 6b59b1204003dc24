"""The three benchmark workloads: inputs from a seed, one op, answer checks.

Each workload is a closed loop driven by run.py: op i starts only after op
i - 1 returned. The package is reached only through its public API, and
only through the names imported below, because tracing.py wraps these very
module attributes to record the per-layer spans.

A check returns a list of mismatch messages. An empty list means the op's
answer agreed with the reference answer (for the seeds that have one) and
passed every independent check (for any seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

from backhaulopt import (
    GeneratorConfig,
    Objective,
    adapt_topology,
    build_schedule,
    generate_topology,
    parse_setting,
    save_topology,
    solve_objective,
    validate_schedule,
)
from backhaulopt import cli
from backhaulopt.errors import PlacementFailure
from backhaulopt.experiment import OBJECTIVE_NAMES, SETTING_NAMES, ExperimentConfig, run_trial

# plan-large and revalidate-io share one large-tree shape: n = 200 small BSs
# under LI-LR(2) with n/3 interference pairs. n = 400 is left out because one
# op then takes about 25 s with the pure-Python kernel, too few for a median.
LARGE_TREE = {"num_small_bs": 200, "macro_degree": 8, "max_small_children": 2,
              "interference_pair_budget": 66}
LARGE_SETTING = "LI-LR(2)"
REVALIDATE_SEEDS = 3  # stored triples, one per seed S, S+1, S+2
TAMPER_EVERY = 4  # every fourth revalidate op reads the tampered schedule

TOL_REL = 1e-9  # reference comparison of plan-large demands
TOL_ORDER = 1e-9  # orderings that hold exactly up to LP round-off
TOL_RATE = 1e-6  # realized demand may fall short of d_b by this, in Gbps


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL_REL * max(1.0, abs(a), abs(b))


def _large_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, **LARGE_TREE)


@dataclass
class Workload:
    """One workload's inputs for one seed, and the state its ops need."""

    name: str
    seed: int
    params: dict
    refs: dict | None = None  # reference answers when the seed has them
    state: dict = field(default_factory=dict)

    def op(self, i: int):
        return _OPS[self.name](self, i)

    def check(self, i: int, answer) -> list[str]:
        return _CHECKS[self.name](self, i, answer)


def setup(name: str, seed: int, workdir: str, references: dict | None = None) -> Workload:
    """Build the workload's inputs; revalidate-io writes its triples to workdir."""
    refs = (references or {}).get(name, {}).get(str(seed))
    if name == "experiment-paper":
        config = ExperimentConfig(seed=seed)
        params = {"num_small_bs": config.num_small_bs, "macro_degree": config.macro_degree,
                  "max_small_children": config.max_small_children,
                  "interference_pair_budget": config.interference_pair_budget,
                  "settings": list(SETTING_NAMES), "objectives": list(OBJECTIVE_NAMES)}
        return Workload(name, seed, params, refs, {"config": config})
    if name == "plan-large":
        params = {**LARGE_TREE, "setting": LARGE_SETTING,
                  "objectives": list(OBJECTIVE_NAMES)}
        return Workload(name, seed, params, refs)
    if name == "revalidate-io":
        params = {**LARGE_TREE, "setting": LARGE_SETTING, "objective": "equal_demand",
                  "seeds": REVALIDATE_SEEDS, "tamper_every": TAMPER_EVERY}
        triples = [_write_triple(seed + k, workdir) for k in range(REVALIDATE_SEEDS)]
        return Workload(name, seed, params, refs, {"triples": triples})
    raise ValueError(f"unknown workload {name!r}")


# -- experiment-paper ----------------------------------------------------------


def _experiment_op(w: Workload, i: int):
    return run_trial(w.state["config"], i)


def trial_row(result) -> str:
    """The trial's cells as write_results formats them, in one line.

    Columns: trial, seed, d_b per setting, aggregate and Jain index per
    objective (all %.9f), the two chain counts, then one realized flag per
    setting.
    """
    cells = [str(result.trial), str(result.seed)]
    cells += [f"{result.d_b[s]:.9f}" for s in SETTING_NAMES]
    cells += [f"{result.aggregate[o]:.9f}" for o in OBJECTIVE_NAMES]
    cells += [f"{result.jain[o]:.9f}" for o in OBJECTIVE_NAMES]
    cells += [str(result.macro_chains_needed), str(result.max_small_chains_needed)]
    cells += ["1" if result.realized[s] else "0" for s in SETTING_NAMES]
    return ",".join(cells)


def _experiment_check(w: Workload, i: int, r) -> list[str]:
    bad = []
    rows = (w.refs or {}).get("rows", [])
    if i < len(rows) and trial_row(r) != rows[i]:
        bad.append(f"trial {i}: row {trial_row(r)!r} != reference {rows[i]!r}")
    d = r.d_b
    if not all(math.isfinite(v) and v > 0.0 for v in d.values()):
        bad.append(f"trial {i}: d_b not finite and positive: {d}")
    # each extra constraint family only shrinks the feasible set
    for hi, lo in (("MI-ER", "LI-ER"), ("MI-ER", "MI-LR(2)"), ("MI-LR(2)", "MI-LR(1)"),
                   ("LI-LR(2)", "LI-LR(1)"), ("LI-ER", "LI-LR(2)")):
        if d[hi] < d[lo] - TOL_ORDER:
            bad.append(f"trial {i}: d_b[{hi}] {d[hi]!r} < d_b[{lo}] {d[lo]!r}")
    for name in ("MI-ER", "LI-ER"):
        if not r.realized[name]:
            bad.append(f"trial {i}: {name} optimum not realized by a valid schedule")
    agg = r.aggregate
    n_small = w.params["num_small_bs"]
    if not _close(agg["equal_demand"], n_small * d["LI-LR(2)"]):
        bad.append(f"trial {i}: equal-demand aggregate {agg['equal_demand']!r} "
                   f"!= {n_small} x d_b[LI-LR(2)]")
    if not agg["aggregate"] >= agg["aggregate_fair"] - TOL_ORDER >= agg["equal_demand"] - 2 * TOL_ORDER:
        bad.append(f"trial {i}: aggregate >= fair >= equal violated: {agg}")
    if r.jain["equal_demand"] != 1.0 or not all(0.0 < v <= 1.0 + TOL_ORDER for v in r.jain.values()):
        bad.append(f"trial {i}: Jain index out of range: {r.jain}")
    if r.macro_chains_needed < 1 or r.max_small_chains_needed < 1:
        bad.append(f"trial {i}: radio chain counts below 1")
    return bad


# -- plan-large ----------------------------------------------------------------


def _plan_op(w: Workload, i: int) -> dict:
    """One sweep point: generate, adapt, three solves, schedule and validate each."""
    setting, macro_chains = parse_setting(LARGE_SETTING)
    base = generate_topology(_large_config(w.seed + i))
    topo = adapt_topology(base, setting, macro_chains=macro_chains)
    out = {"n_small": len(topo.small_bs_ids())}
    for objective in Objective:
        sol = solve_objective(topo, setting, objective)
        try:
            schedule = build_schedule(topo, sol.p_first)
        except PlacementFailure:
            report = None
        else:
            report = validate_schedule(topo, schedule, p_first=sol.p_first, demands=sol.per_bs)
        out[objective.value] = (sol, report)
    return out


def plan_answer(out: dict) -> dict:
    """The reference-checked numbers of one plan-large op."""
    return {
        "d_b": out["equal_demand"][0].d_b_gbps,
        "aggregate": out["aggregate"][0].aggregate_gbps,
        "aggregate_fair": out["aggregate_fair"][0].aggregate_gbps,
    }


def _plan_check(w: Workload, i: int, out: dict) -> list[str]:
    bad = []
    got = plan_answer(out)
    ops = (w.refs or {}).get("ops", [])
    if i < len(ops):
        for key, want in ops[i].items():
            if not _close(got[key], want):
                bad.append(f"op {i}: {key} {got[key]!r} != reference {want!r}")
    d_b = got["d_b"]
    if not (math.isfinite(d_b) and d_b > 0.0):
        bad.append(f"op {i}: d_b {d_b!r} not finite and positive")
    if not got["aggregate"] >= got["aggregate_fair"] - TOL_ORDER >= out["n_small"] * d_b - 2 * TOL_ORDER:
        bad.append(f"op {i}: aggregate >= fair >= n * d_b violated: {got}")
    for objective in OBJECTIVE_NAMES:
        report = out[objective][1]
        if report is None:
            continue  # a PlacementFailure is an answer under LR
        if not report.ok:
            bad.append(f"op {i}: {objective} schedule has violations: "
                       f"{[str(v) for v in report.violations[:3]]}")
        if objective != "aggregate" and report.realized_equal_demand < d_b - TOL_RATE:
            bad.append(f"op {i}: {objective} realizes {report.realized_equal_demand!r} "
                       f"< d_b {d_b!r}")
    if out["equal_demand"][1] is None:
        bad.append(f"op {i}: equal-demand schedule could not be placed")
    return bad


# -- revalidate-io -------------------------------------------------------------


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def tamper(schedule: dict, pair: tuple[int, int]) -> dict:
    """Copy of a schedule dict in which link b's footprint is link a's."""
    a, b = (str(x) for x in pair)
    bad = json.loads(json.dumps(schedule))
    bad["links"][b]["footprint"] = [list(iv) for iv in bad["links"][a]["footprint"]]
    return bad


def _write_triple(seed: int, workdir: str) -> dict:
    """Topology, equal-demand solution and schedule files, plus a tampered copy."""
    setting, macro_chains = parse_setting(LARGE_SETTING)
    topo = adapt_topology(generate_topology(_large_config(seed)), setting,
                          macro_chains=macro_chains)
    paths = {k: os.path.join(workdir, f"{k}-{seed}.json")
             for k in ("topology", "solution", "schedule", "tampered")}
    save_topology(topo, paths["topology"])
    for argv in (["solve", paths["topology"], "--setting", LARGE_SETTING,
                  "--out", paths["solution"]],
                 ["schedule", paths["topology"], paths["solution"],
                  "--out", paths["schedule"]]):
        code, _ = _quiet_main(argv)
        if code != 0:
            raise RuntimeError(f"setup step {argv[0]} exited {code} for seed {seed}")
    with open(paths["schedule"]) as fh:
        schedule = json.load(fh)
    with open(paths["tampered"], "w") as fh:
        json.dump(tamper(schedule, topo.interference_pairs[0]), fh)
    with open(paths["solution"]) as fh:
        d_b = json.load(fh)["d_b_gbps"]
    return {"seed": seed, "d_b": d_b, **paths}


def revalidate_input(w: Workload, i: int) -> tuple[list[str], str]:
    """CLI arguments of op i and its reference key, such as "2/tampered"."""
    k = i % len(w.state["triples"])
    tampered = i % TAMPER_EVERY == TAMPER_EVERY - 1
    triple = w.state["triples"][k]
    argv = ["validate", triple["topology"], triple["solution"],
            triple["tampered" if tampered else "schedule"]]
    return argv, f"{k}/{'tampered' if tampered else 'clean'}"


def _revalidate_op(w: Workload, i: int) -> tuple[int, str]:
    return _quiet_main(revalidate_input(w, i)[0])


REALIZED_PREFIX = "realized equal demand: "


def _revalidate_check(w: Workload, i: int, answer: tuple[int, str]) -> list[str]:
    code, text = answer
    _, key = revalidate_input(w, i)
    tampered = key.endswith("tampered")
    triple = w.state["triples"][i % len(w.state["triples"])]
    lines = [ln for ln in text.splitlines() if ln.startswith(REALIZED_PREFIX)]
    bad = []
    if code != (1 if tampered else 0):
        bad.append(f"op {i}: exit {code}, tampered={tampered}")
    if len(lines) != 1:
        return bad + [f"op {i}: expected one realized-demand line, got {len(lines)}"]
    ref = (w.refs or {}).get("triples", {}).get(key)
    if ref is not None and [code, lines[0]] != ref:
        bad.append(f"op {i}: {[code, lines[0]]!r} != reference {ref!r}")
    if not tampered:
        realized = float(lines[0][len(REALIZED_PREFIX):].split()[0])
        if realized < triple["d_b"] - TOL_RATE:
            bad.append(f"op {i}: realized {realized!r} < d_b {triple['d_b']!r}")
    return bad


def revalidate_answer(answer: tuple[int, str]) -> list:
    code, text = answer
    return [code, next(ln for ln in text.splitlines() if ln.startswith(REALIZED_PREFIX))]


_OPS = {"experiment-paper": _experiment_op, "plan-large": _plan_op,
        "revalidate-io": _revalidate_op}
_CHECKS = {"experiment-paper": _experiment_check, "plan-large": _plan_check,
           "revalidate-io": _revalidate_check}
