"""Acceptance suite: eight numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every criterion carries its own tolerance and a wall-clock budget;
both are asserted, not just reported. Shared trial sets are built once and
cached so the scheduler round-trip criterion replays exactly the runs the
earlier criteria measured.
"""

import random
import statistics
import time
from functools import lru_cache

from backhaulopt import (
    GeneratorConfig,
    adapt_topology,
    build_schedule,
    generate_topology,
    jain_index,
    link_profile,
    min_radio_chains,
    parse_setting,
    physical_rate,
    solve_equal_demand,
    solve_objective,
    validate_schedule,
)
from backhaulopt.errors import PlacementFailure
from backhaulopt.formulations import Objective
from backhaulopt.generator import strip_interference
from backhaulopt.lp.problem import LinearProgram, Relation
from backhaulopt.lp.simplex import solve
from backhaulopt.model import subtree_bs_set
from helpers import random_small
from oracles import aggregate_bound, enumerate_max, equal_demand_bound, lp_rows

TRIALS = 50
SETTING_ORDER = ("MI-ER", "LI-ER", "MI-LR(1)", "LI-LR(1)", "MI-LR(2)", "LI-LR(2)")


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    message = f"{verdict} criterion {num}: {detail}"
    print(message)
    return message


def _prepared(base, bare, name):
    setting, macro_chains = parse_setting(name)
    src = bare if name.startswith("MI") else base
    return setting, adapt_topology(src, setting, macro_chains=macro_chains)


@lru_cache(maxsize=1)
def _monotonicity_trials():
    """One full-size topology per trial, solved under all six settings."""
    trials = []
    for t in range(TRIALS):
        base = generate_topology(
            GeneratorConfig(
                seed=100 + t,
                num_small_bs=20,
                macro_degree=8,
                max_small_children=2,
                interference_pair_budget=6,
            )
        )
        bare = strip_interference(base)
        runs = {}
        for name in SETTING_ORDER:
            setting, topo = _prepared(base, bare, name)
            runs[name] = (topo, solve_equal_demand(topo, setting),
                          equal_demand_bound(topo, setting))
        trials.append(runs)
    return trials


@lru_cache(maxsize=1)
def _chain_trials():
    """MI-ER trials with macro degree 8 and every link multi-hop."""
    trials = []
    for t in range(TRIALS):
        base = generate_topology(
            GeneratorConfig(
                seed=500 + t,
                num_small_bs=20,
                macro_degree=8,
                max_small_children=2,
                interference_pair_budget=0,
                hop_distribution={2: 0.5, 3: 0.5},
            )
        )
        setting, topo = _prepared(base, base, "MI-ER")
        trials.append((topo, solve_equal_demand(topo, setting)))
    return trials


@lru_cache(maxsize=1)
def _fairness_runs():
    """All three objectives on the monotonicity topologies, two settings."""
    runs = []
    for t in range(TRIALS):
        base = generate_topology(
            GeneratorConfig(
                seed=100 + t,
                num_small_bs=20,
                macro_degree=8,
                max_small_children=2,
                interference_pair_budget=6,
            )
        )
        bare = strip_interference(base)
        for name in ("MI-ER", "LI-LR(2)"):
            setting, topo = _prepared(base, bare, name)
            sols = {obj: solve_objective(topo, setting, obj) for obj in Objective}
            runs.append((name, topo, sols))
    return runs


def test_criterion_1_physical_rate():
    start = time.perf_counter()
    rate = physical_rate(4.16, 6912, 8)
    single = link_profile(1, rate)
    relayed = [link_profile(h, rate) for h in (2, 3, 5)]
    elapsed = time.perf_counter() - start
    ok = (
        13.29 <= rate <= 13.30
        and single.capacity_gbps == rate
        and all(p.capacity_gbps == rate / 2 for p in relayed)
        and elapsed < 1.0
    )
    message = _line(1, ok, f"rate={rate:.12f} Gbps, multi-hop capacity exactly "
                           f"rate/2 ({elapsed:.3f}s)")
    assert ok, message


def test_criterion_2_closed_form_equal_demand():
    start = time.perf_counter()
    setting, _ = parse_setting("MI-ER")
    worst = 0.0
    for seed in range(200):
        size = 3 + seed % 18
        topo = adapt_topology(
            generate_topology(
                GeneratorConfig(
                    seed=seed,
                    num_small_bs=size,
                    macro_degree=min(2 + seed % 7, size),
                    max_small_children=2,
                    interference_pair_budget=0,
                )
            ),
            setting,
        )
        got = solve_equal_demand(topo, setting).d_b_gbps
        want = min(
            l.capacity_gbps / len(subtree_bs_set(topo, l.child)) for l in topo.links
        )
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    message = _line(2, ok, f"200 topologies, worst |LP - min_i C_i/|B_i|| = "
                           f"{worst:.2e} ({elapsed:.2f}s)")
    assert ok, message


def test_criterion_3_lp_matches_enumeration():
    start = time.perf_counter()
    names = ("MI-ER", "LI-ER", "MI-LR(1)", "LI-LR(2)")
    worst = 0.0
    for seed in range(100):
        base = random_small(seed)
        name = names[seed % 4]
        setting, macro_chains = parse_setting(name)
        src = strip_interference(base) if name.startswith("MI") else base
        topo = adapt_topology(src, setting, macro_chains=macro_chains)

        equal = solve_equal_demand(topo, setting).d_b_gbps
        worst = max(worst, abs(equal - equal_demand_bound(topo, setting)))

        agg = solve_objective(topo, setting, Objective.AGGREGATE).aggregate_gbps
        worst = max(worst, abs(agg - aggregate_bound(topo, setting)[0]))

        fair = solve_objective(topo, setting, Objective.AGGREGATE_FAIR)
        floor = equal_demand_bound(topo, setting)
        floors = {b: floor for b in topo.small_bs_ids()}
        worst = max(worst, abs(fair.fair_floor_gbps - floor))
        worst = max(worst, abs(fair.aggregate_gbps
                               - aggregate_bound(topo, setting, floors)[0]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    message = _line(3, ok, f"100 small topologies x 3 objectives vs enumeration, "
                           f"worst gap {worst:.2e} ({elapsed:.2f}s)")
    assert ok, message


def test_criterion_4_setting_monotonicity():
    start = time.perf_counter()
    trials = _monotonicity_trials()
    solver = {name: [] for name in SETTING_ORDER}
    oracle = {name: [] for name in SETTING_ORDER}
    worst_tie = 0.0
    for runs in trials:
        o = {}
        for name, (_, sol, bound) in runs.items():
            solver[name].append(sol.d_b_gbps)
            oracle[name].append(bound)
            worst_tie = max(worst_tie, abs(sol.d_b_gbps - bound))
            o[name] = bound
        # each extra constraint family only shrinks the candidate set the
        # closed form minimizes over, so these orderings are exact, not
        # approximate
        assert o["MI-ER"] >= o["LI-ER"]
        assert o["MI-ER"] >= o["MI-LR(2)"] >= o["MI-LR(1)"]
        assert o["LI-LR(2)"] >= o["LI-LR(1)"]
    means = {name: statistics.mean(vals) for name, vals in solver.items()}
    gaps = {
        "MI,k=1": statistics.mean(oracle["MI-ER"]) - statistics.mean(oracle["MI-LR(1)"]),
        "MI,k=2": statistics.mean(oracle["MI-ER"]) - statistics.mean(oracle["MI-LR(2)"]),
        "LI,k=1": statistics.mean(oracle["LI-ER"]) - statistics.mean(oracle["LI-LR(1)"]),
        "LI,k=2": statistics.mean(oracle["LI-ER"]) - statistics.mean(oracle["LI-LR(2)"]),
    }
    elapsed = time.perf_counter() - start
    ok = (
        worst_tie <= 1e-9
        and means["MI-ER"] >= means["LI-ER"] - 1e-9
        and means["MI-ER"] >= means["MI-LR(2)"] - 1e-9
        and means["MI-LR(2)"] >= means["MI-LR(1)"] - 1e-9
        and means["LI-LR(2)"] >= means["LI-LR(1)"] - 1e-9
        and all(g > 0.0 for g in gaps.values())
        and elapsed < 30.0
    )
    gap_text = " ".join(f"{k}:{v:.3f}" for k, v in gaps.items())
    message = _line(4, ok, f"{TRIALS} trials ordered per-trial exactly, solver-vs-"
                           f"closed-form {worst_tie:.2e}, mean ER-LR gaps {gap_text} "
                           f"({elapsed:.2f}s)")
    assert ok, message


def test_criterion_5_min_radio_chains():
    start = time.perf_counter()
    macro = []
    small = []
    for topo, sol in _chain_trials():
        chains = min_radio_chains(topo, sol.p_first)
        macro.append(chains[topo.macro.id])
        small.append(max(chains[b] for b in topo.small_bs_ids()))
    at_most_3 = sum(m <= 3 for m in macro)
    elapsed = time.perf_counter() - start
    ok = (
        max(macro) <= 4
        and at_most_3 >= 0.8 * len(macro)
        and max(small) <= 2
        and elapsed < 30.0
    )
    message = _line(5, ok, f"{TRIALS} all-multi-hop trials: macro max {max(macro)}, "
                           f"<=3 in {at_most_3}/{len(macro)}, small max {max(small)} "
                           f"({elapsed:.2f}s)")
    assert ok, message


def test_criterion_6_fairness_suite():
    start = time.perf_counter()
    fair_wins = 0
    runs = _fairness_runs()
    for name, topo, sols in runs:
        eq = sols[Objective.EQUAL_DEMAND]
        ag = sols[Objective.AGGREGATE]
        fa = sols[Objective.AGGREGATE_FAIR]
        n_small = len(topo.small_bs_ids())
        assert ag.aggregate_gbps >= fa.aggregate_gbps - 1e-9, name
        assert fa.aggregate_gbps >= n_small * eq.d_b_gbps - 1e-9, name
        assert jain_index(eq.per_bs) == 1.0, name
        fair_wins += jain_index(fa.per_bs) >= jain_index(ag.per_bs) - 1e-12
    elapsed = time.perf_counter() - start
    ok = fair_wins >= 0.9 * len(runs) and elapsed < 60.0
    message = _line(6, ok, f"{len(runs)} runs: aggregate >= fair >= N*equal in all, "
                           f"jain(equal)=1 exact, fair beats aggregate jain in "
                           f"{fair_wins}/{len(runs)} ({elapsed:.2f}s)")
    assert ok, message


def test_criterion_7_scheduler_round_trip():
    start = time.perf_counter()
    attempts = []
    for runs in _monotonicity_trials():
        for name, (topo, sol, _) in runs.items():
            attempts.append((name, topo, sol, True))
    for topo, sol in _chain_trials():
        attempts.append(("MI-ER", topo, sol, True))
    for name, topo, sols in _fairness_runs():
        for obj, sol in sols.items():
            attempts.append((name, topo, sol, obj is Objective.EQUAL_DEMAND))

    placed = 0
    placed_mi = attempts_mi = 0
    worst = 0.0
    for name, topo, sol, is_equal in attempts:
        attempts_mi += name == "MI-ER"
        try:
            schedule = build_schedule(topo, sol.p_first)
        except PlacementFailure:
            continue
        placed += 1
        placed_mi += name == "MI-ER"
        report = validate_schedule(
            topo, schedule, p_first=sol.p_first, demands=sol.per_bs
        )
        assert report.ok, (name, [v.kind for v in report.violations][:3])
        if is_equal:
            gap = abs(report.realized_equal_demand - sol.d_b_gbps)
            worst = max(worst, gap)
            assert gap <= 1e-6, (name, gap)
    elapsed = time.perf_counter() - start
    rate = placed / len(attempts)
    ok = (
        placed_mi == attempts_mi
        and worst <= 1e-6
        and elapsed < 60.0
    )
    message = _line(7, ok, f"realizability {placed}/{len(attempts)} "
                           f"({100 * rate:.1f}%), MI-ER {placed_mi}/{attempts_mi} "
                           f"(100% required), zero violations, worst realized-vs-LP "
                           f"gap {worst:.2e} ({elapsed:.2f}s)")
    assert ok, message


def _sized_lp(rng):
    """Random LP kept small enough for the vertex-enumeration reference."""
    n = rng.randint(1, 12)
    m_max, u_max = (8, 3) if n <= 7 else (4, 2) if n == 8 else (2, 1)
    lp = LinearProgram(n)
    lp.set_objective([float(rng.randint(-5, 5)) for _ in range(n)])
    rows = []
    for _ in range(rng.randint(1, m_max)):
        rel = (Relation.LE, Relation.LE, Relation.GE, Relation.GE, Relation.EQ)[
            rng.randrange(5)
        ]
        rows.append(
            ([float(rng.randint(-4, 4)) for _ in range(n)], rel, float(rng.randint(0, 7)))
        )
    if rng.random() < 0.45:
        rows.append(([1.0] * n, Relation.LE, float(rng.randint(3, 9))))
    degenerate = rng.random() < 0.3
    if degenerate:
        rows.append(rows[rng.randrange(len(rows))])
    if rng.random() < 0.12:
        # contradiction pair with a gap far above the feasibility slack, so
        # the reference cannot misread it as a marginal vertex
        coefs = [float(rng.randint(-4, 4)) for _ in range(n)]
        b = float(rng.randint(-3, 3))
        rows.append((coefs, Relation.LE, b))
        rows.append((coefs, Relation.GE, b + 2.0))
    for coefs, rel, b in rows:
        lp.add_constraint(coefs, rel, b)
    uppers = 0
    for j in range(n):
        if uppers < u_max and rng.random() < 0.25:
            lp.set_bounds(j, upper=float(rng.randint(1, 5)))
            uppers += 1
    return lp, degenerate


def test_criterion_8_simplex_robustness():
    start = time.perf_counter()
    rng = random.Random(20240)
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    degenerates = 0
    max_iterations = 0
    worst = 0.0
    for _ in range(1000):
        lp, degenerate = _sized_lp(rng)
        sol = solve(lp)  # raises on iteration-limit, which counts as cycling
        c, A, b = lp_rows(lp)
        status, value, _ = enumerate_max(c, A, b)
        assert sol.status.value == status
        if status == "optimal":
            worst = max(worst, abs(sol.objective_value - value) / max(1.0, abs(value)))
        counts[status] += 1
        degenerates += degenerate
        max_iterations = max(max_iterations, sol.iterations)
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-6
        and counts["optimal"] >= 200
        and counts["infeasible"] >= 200
        and counts["unbounded"] >= 100
        and degenerates >= 200
        and max_iterations <= 2000
        and elapsed < 60.0
    )
    message = _line(8, ok, f"1000 LPs {counts}, {degenerates} degenerate, statuses "
                           f"all agree, worst rel err {worst:.2e}, max pivots "
                           f"{max_iterations} ({elapsed:.2f}s)")
    assert ok, message
