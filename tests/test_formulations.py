"""Demand maximization programs against closed forms and enumeration."""

import copy
import hashlib
import inspect
import random

import pytest

import helpers
import oracles
from backhaulopt import formulations
from backhaulopt.errors import (
    InconsistentInput,
    InfeasibleFloor,
    InterferenceNotMinimal,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
)
from backhaulopt.experiment import SETTING_NAMES
from backhaulopt.formulations import (
    DemandSolution,
    Interference,
    Objective,
    RadioChains,
    Setting,
    _decode,
    build_aggregate_lp,
    build_equal_demand_lp,
    min_radio_chains,
    parse_setting,
    solution_from_dict,
    solution_to_dict,
    solve_equal_demand,
    solve_objective,
)
from backhaulopt.generator import (
    GeneratorConfig,
    adapt_topology,
    generate_topology,
    strip_interference,
)
from backhaulopt.lp import LpStatus, _kernel_py, simplex, solve
from backhaulopt.model import NetworkTopology, make_link

MI_ER = Setting(Interference.MINIMAL, RadioChains.ENOUGH)
LI_ER = Setting(Interference.LIMITED, RadioChains.ENOUGH)
MI_LR = Setting(Interference.MINIMAL, RadioChains.LIMITED)
LI_LR = Setting(Interference.LIMITED, RadioChains.LIMITED)


def test_parse_setting_names():
    assert parse_setting("MI-ER") == (MI_ER, None)
    assert parse_setting("LI-LR") == (LI_LR, None)
    assert parse_setting("MI-LR(3)") == (MI_LR, 3)
    assert parse_setting(" LI-ER ") == (LI_ER, None)
    with pytest.raises(InconsistentInput):
        parse_setting("XX-ER")
    with pytest.raises(InconsistentInput):
        parse_setting("MI-ER(2)")  # chain count only makes sense for LR
    # a name that is no string is an unknown one, not an AttributeError
    for name in (None, 3):
        with pytest.raises(InconsistentInput, match="unknown setting name"):
            parse_setting(name)


def test_setting_names_round_trip():
    assert MI_ER.name == "MI-ER"
    assert LI_LR.name == "LI-LR"


# -- frozen desk examples (rate 13.3, so multi-hop capacity is 6.65) --------


def test_chain_equal_demand_frozen():
    # M -> B1 -> B2, both links relayed: C = 6.65 each, |B_1| = 2, |B_2| = 1
    # binding bound is link 1 at 6.65 / 2 = 3.325
    topo = helpers.chain(hops=(2, 3))
    sol = solve_equal_demand(topo, MI_ER)
    assert sol.d_b_gbps == pytest.approx(3.325, abs=1e-9)
    assert sol.per_bs == {1: pytest.approx(3.325), 2: pytest.approx(3.325)}
    # cheapest fractions: p_i = P_i^f |B_i| D / C_i
    assert sol.p_first[1] == pytest.approx(0.5, abs=1e-9)
    assert sol.p_first[2] == pytest.approx(0.25, abs=1e-9)
    assert sol.p_last[1] == pytest.approx(0.5, abs=1e-9)


def test_chain_equal_demand_interference_pair_frozen():
    # footprints s_1 + s_2 <= 1 with s_i = |B_i| D / C_i: D = 6.65 / 3
    topo = helpers.chain(hops=(2, 3), pairs=[(1, 2)])
    sol = solve_equal_demand(topo, LI_ER)
    assert sol.d_b_gbps == pytest.approx(6.65 / 3, abs=1e-9)


def test_star_single_macro_chain_frozen():
    # two single-hop links share one macro radio chain: p_1 + p_2 <= 1
    topo = helpers.star(2, hop=1, chains={0: 1})
    sol = solve_equal_demand(topo, MI_LR)
    assert sol.d_b_gbps == pytest.approx(6.65, abs=1e-9)
    assert sol.p_first[1] == pytest.approx(0.5, abs=1e-9)


def test_small_bs_chain_budget_frozen():
    # single-hop chain with one radio chain at B1: inbound last-link time
    # plus the child's first-link time share one chain: 3 D / 13.3 <= 1
    topo = helpers.chain(hops=(1, 1), chains={0: 1, 1: 1, 2: 1})
    sol = solve_equal_demand(topo, MI_LR)
    assert sol.d_b_gbps == pytest.approx(13.3 / 3, abs=1e-9)


def test_chain_aggregate_frozen():
    # all demand rides link 1: D_1 + D_2 <= 6.65
    topo = helpers.chain(hops=(2, 3))
    sol = solve_objective(topo, MI_ER, Objective.AGGREGATE)
    assert sol.aggregate_gbps == pytest.approx(6.65, abs=1e-9)


def test_fair_star_frozen():
    # uncoupled single-hop star: fair changes nothing, both BSs get 13.3
    topo = helpers.star(2, hop=1)
    fair = solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR)
    assert fair.fair_floor_gbps == pytest.approx(13.3, abs=1e-9)
    assert fair.aggregate_gbps == pytest.approx(26.6, abs=1e-9)


def test_fair_splits_shared_chain_evenly():
    # one macro chain couples the two links: aggregate alone may starve one
    # BS; the floor forces the 6.65/6.65 split, same total
    topo = helpers.star(2, hop=1, chains={0: 1})
    plain = solve_objective(topo, MI_LR, Objective.AGGREGATE)
    fair = solve_objective(topo, MI_LR, Objective.AGGREGATE_FAIR)
    assert plain.aggregate_gbps == pytest.approx(13.3, abs=1e-9)
    assert fair.aggregate_gbps == pytest.approx(13.3, abs=1e-9)
    assert fair.per_bs[1] == pytest.approx(6.65, abs=1e-9)
    assert fair.per_bs[2] == pytest.approx(6.65, abs=1e-9)


def test_explicit_unreachable_floor_raises():
    topo = helpers.star(2, hop=1)
    with pytest.raises(InfeasibleFloor):
        solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR, fair_floor=100.0)


def test_min_radio_chains_frozen():
    topo = helpers.chain(hops=(2, 3))
    sol = solve_equal_demand(topo, MI_ER)
    assert min_radio_chains(topo, sol.p_first) == {0: 1, 1: 1, 2: 1}
    star = helpers.star(3, hop=1)
    full = solve_equal_demand(star, MI_ER)  # every link saturated, p = 1
    assert min_radio_chains(star, full.p_first) == {0: 3, 1: 1, 2: 1, 3: 1}


def test_min_radio_chains_needs_every_link_and_a_finite_time():
    star = helpers.star(2, hop=1)
    with pytest.raises(MissingLink):
        min_radio_chains(star, {1: 0.5})
    # the macro's chain time of 2e308 leaves the float range: no count covers it
    for p_first in ({1: 1e308, 2: 1e308}, {1: float("nan"), 2: 0.5}):
        with pytest.raises(NonFiniteInput):
            min_radio_chains(star, p_first)


def test_chain_time_sums_each_station_in_link_order():
    # inbound last-link time first, then each child link's first-link time,
    # the order in which the LR bound of the closed form summed them
    for seed in range(40):
        topo = helpers.random_small(seed)
        rng = random.Random(seed)
        share = {l.id: rng.random() for l in topo.links}
        want = {}
        for s in topo.stations:
            inbound = topo.inbound_link(s.id)
            total = 0.0 if inbound is None else inbound.p_last_max * share[inbound.id]
            for child in topo.child_links(s.id):
                total += child.p_first_max * share[child.id]
            want[s.id] = total
        assert formulations.chain_time(topo, share) == want, seed


def test_setting_preconditions():
    paired = helpers.star(2, hop=1, pairs=[(1, 2)])
    with pytest.raises(InterferenceNotMinimal):
        solve_equal_demand(paired, MI_ER)
    starved = helpers.star(3, hop=1, chains={0: 1})
    with pytest.raises(InvalidTopology):
        solve_equal_demand(starved, MI_ER)  # ER demands a chain per link
    # B1 has an inbound and a child link: one chain starves it, two suffice
    relay = helpers.chain(hops=(1, 1), chains={1: 1})
    with pytest.raises(InvalidTopology, match="B1 has fewer radio chains"):
        solve_equal_demand(relay, MI_ER)
    assert solve_equal_demand(helpers.chain(hops=(1, 1), chains={1: 2}), MI_ER).d_b_gbps > 0
    empty = helpers.topology([])
    with pytest.raises(InvalidTopology):
        solve_equal_demand(empty, MI_ER)


def test_matches_closed_form_across_settings():
    for seed in range(40):
        base = helpers.random_small(seed, max_links=6)
        bare = strip_interference(base)
        for name in ("MI-ER", "LI-ER", "MI-LR(2)", "LI-LR(1)"):
            setting, k = parse_setting(name)
            src = bare if setting.interference is Interference.MINIMAL else base
            topo = adapt_topology(src, setting, macro_chains=k)
            want = oracles.equal_demand_bound(topo, setting)
            got = solve_equal_demand(topo, setting).d_b_gbps
            assert got == pytest.approx(want, abs=1e-9), (seed, name)


def test_matches_enumeration_for_aggregate_objectives():
    for seed in range(12):
        base = helpers.random_small(seed, max_links=5)
        bare = strip_interference(base)
        for name in ("MI-ER", "LI-LR(2)"):
            setting, k = parse_setting(name)
            src = bare if setting.interference is Interference.MINIMAL else base
            topo = adapt_topology(src, setting, macro_chains=k)
            want, _ = oracles.aggregate_bound(topo, setting)
            got = solve_objective(topo, setting, Objective.AGGREGATE)
            assert got.aggregate_gbps == pytest.approx(want, abs=1e-6), (seed, name)
            floor = oracles.equal_demand_bound(topo, setting)
            want_fair, _ = oracles.aggregate_bound(
                topo, setting, floors=dict.fromkeys(topo.small_bs_ids(), floor)
            )
            fair = solve_objective(topo, setting, Objective.AGGREGATE_FAIR)
            assert fair.aggregate_gbps == pytest.approx(want_fair, abs=1e-6), (seed, name)
            assert min(fair.per_bs.values()) >= floor - 1e-9


def test_fair_floor_defaults_to_equal_demand_optimum():
    topo = helpers.chain(hops=(2, 1))
    equal = solve_equal_demand(topo, MI_ER)
    fair = solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR)
    assert fair.fair_floor_gbps == pytest.approx(equal.d_b_gbps, abs=1e-12)
    assert min(fair.per_bs.values()) >= equal.d_b_gbps - 1e-9


def test_aggregate_is_summed_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16 at each step; a compensated sum gives 1e16 + 2
    sol = DemandSolution(Objective.AGGREGATE, {1: 1e16, 2: 1.0, 3: 1.0}, {}, {})
    assert sol.aggregate_gbps == 1e16


def test_solution_dict_round_trip():
    topo = helpers.chain(hops=(2, 3))
    sol = solve_equal_demand(topo, MI_ER)
    data = solution_to_dict(topo, sol)
    assert data["objective"] == "equal_demand"
    assert data["jain_index"] == 1.0
    assert data["min_radio_chains"] == {"0": 1, "1": 1, "2": 1}
    back = solution_from_dict(data)
    assert back.per_bs == sol.per_bs
    assert back.p_first == sol.p_first
    with pytest.raises(InconsistentInput):
        solution_from_dict({"objective": "equal_demand"})


def test_solution_from_dict_rejects_non_finite_numbers():
    topo = helpers.chain(hops=(2, 3))
    data = solution_to_dict(topo, solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR))
    for field in ("per_bs", "p_first", "p_last", "d_b_gbps", "fair_floor_gbps"):
        for value in (float("nan"), float("inf"), -float("inf")):
            bad = copy.deepcopy(data)
            if isinstance(bad[field], dict):
                bad[field]["1"] = value
            else:
                bad[field] = value
            with pytest.raises(NonFiniteInput, match=field):
                solution_from_dict(bad)


def test_solution_from_dict_rejects_negative_numbers():
    topo = helpers.chain(hops=(2, 3))
    data = solution_to_dict(topo, solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR))
    for field in ("per_bs", "p_first", "p_last", "d_b_gbps", "fair_floor_gbps"):
        bad = copy.deepcopy(data)
        if isinstance(bad[field], dict):
            bad[field]["1"] = -5.0
        else:
            bad[field] = -5.0
        with pytest.raises(InconsistentInput, match=f"{field}.*negative"):
            solution_from_dict(bad)
    data["per_bs"]["1"] = -0.0  # what max(x, 0.0) can leave behind
    assert solution_from_dict(data).per_bs[1] == 0.0


def test_explicit_fair_floor_must_be_a_nonnegative_number():
    topo = helpers.star(2, hop=1)
    with pytest.raises(InconsistentInput, match="negative"):
        solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR, fair_floor=-1.0)
    with pytest.raises(NonFiniteInput):
        solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR, fair_floor=float("nan"))
    zero = solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR, fair_floor=0.0)
    assert zero.fair_floor_gbps == 0.0


def test_fair_floor_needs_the_fair_objective():
    # a floor that the objective would drop is refused, never silently ignored
    topo = helpers.star(2, hop=1)
    for objective in (Objective.EQUAL_DEMAND, Objective.AGGREGATE):
        with pytest.raises(InconsistentInput, match="aggregate_fair"):
            solve_objective(topo, MI_ER, objective, fair_floor=1.0)
    fair = solve_objective(topo, MI_ER, Objective.AGGREGATE_FAIR, fair_floor=1.0)
    assert fair.fair_floor_gbps == 1.0


# -- frozen LPs and decodes --------------------------------------------------

_FREEZE_TREES = [  # (seed, small BSs, macro degree, interference pair budget)
    (1, 1, 1, 0),
    (4, 2, 1, 1),
    (5, 5, 2, 2),
    (7, 12, 3, 4),
    (2027, 20, 8, 6),
]


def _setting_cases(base):
    """(topology, setting) for one tree under all six settings."""
    bare = strip_interference(base)
    for name in SETTING_NAMES:
        setting, k = parse_setting(name)
        src = bare if setting.interference is Interference.MINIMAL else base
        yield adapt_topology(src, setting, macro_chains=k), setting


def _freeze_cases():
    """(topology, setting) for every freeze tree under all six settings."""
    for seed, n, degree, pairs in _FREEZE_TREES:
        base = generate_topology(
            GeneratorConfig(
                seed=seed,
                num_small_bs=n,
                macro_degree=degree,
                interference_pair_budget=pairs,
            )
        )
        yield from _setting_cases(base)


def _hash_lp(digest, lp):
    digest.update("|".join(lp.names).encode())
    for array in (lp.objective, lp.lower, lp.upper):
        digest.update(array.tobytes())
    for con in lp.constraints:
        digest.update(con.coeffs.tobytes())
        digest.update(f"{con.relation.value}{con.rhs.hex()}".encode())


def _hash_values(digest, label, values):
    text = ",".join(f"{k}:{float(v).hex()}" for k, v in sorted(values.items()))
    digest.update(f"{label}[{text}]".encode())


def test_demand_lps_and_decodes_frozen():
    # builds of both programs (with and without floors) and the decoded
    # aggregate optimum, byte for byte; recorded before equal demand moved
    # to its closed form, whose decodes test_closed_form_matches_the_lp_route
    # checks against the LP instead
    digest = hashlib.sha256()
    for topo, setting in _freeze_cases():
        _hash_lp(digest, build_equal_demand_lp(topo, setting)[0])
        _hash_lp(digest, build_aggregate_lp(topo, setting)[0])
        small = topo.small_bs_ids()
        floors = {b: 0.25 * (1 + i % 3) for i, b in enumerate(small)}
        _hash_lp(digest, build_aggregate_lp(topo, setting, floors)[0])
        sol = solve_objective(topo, setting, Objective.AGGREGATE)
        _hash_values(digest, "per_bs", sol.per_bs)
        _hash_values(digest, "p_first", sol.p_first)
    assert digest.hexdigest() == (
        "1b06daf9237928ac29e08216251e22e1a7092333cf6af8d536c080cc5f0467d9"
    )


# -- the array builder against the row-by-row reference ----------------------

_BUILDER_SIZES = (1, 2, 5, 20, 80, 200)
_BUILDER_SEEDS = (1, 2, 3)


def _lp_image(lp):
    """Everything a build decides, as bytes and exact hex."""
    return (
        lp.names,
        [array.tobytes() for array in (lp.objective, lp.lower, lp.upper)],
        [con.coeffs.tobytes() for con in lp.constraints],
        [con.relation for con in lp.constraints],
        [con.rhs.hex() for con in lp.constraints],
    )


def _fraction_hex(topo, carried, assignment):
    """p_first of each link from the reference's carried counts, as exact hex."""
    out = {}
    for link in topo.links:
        load = sum(count * assignment[c] for c, count in carried[link.id].items())
        p = link.p_first_max * load / link.capacity_gbps
        out[link.id] = min(max(p, 0.0), link.p_first_max).hex()
    return out


def _builds(topo, setting):
    """(package build, reference build) of equal demand and of aggregate
    demand without and with floors, some of them zero."""
    small = topo.small_bs_ids()
    names = [f"D[{b}]" for b in small]
    cols = {b: i for i, b in enumerate(small)}
    floors = {b: 0.25 * (i % 3) for i, b in enumerate(small)}
    reference = oracles.reference_demand_lp
    yield (
        build_equal_demand_lp(topo, setting),
        reference(topo, setting, ["D_B"], dict.fromkeys(small, 0)),
    )
    yield build_aggregate_lp(topo, setting), reference(topo, setting, names, cols)
    yield (
        build_aggregate_lp(topo, setting, floors),
        reference(topo, setting, names, cols, floors),
    )


@pytest.mark.parametrize("n", _BUILDER_SIZES)
def test_array_builder_matches_the_row_builder(n):
    for seed in _BUILDER_SEEDS:
        base = generate_topology(
            GeneratorConfig(
                seed=seed,
                num_small_bs=n,
                macro_degree=min(n, 4),
                interference_pair_budget=n // 3,
            )
        )
        # generated links have P_l = P_f; the redrawn profiles do not
        for tree in (base, _random_profiles(base, random.Random(seed))):
            for topo, setting in _setting_cases(tree):
                for (got, cols), (want, carried) in _builds(topo, setting):
                    label = (n, seed, setting.name, got.names[0])
                    assert _lp_image(got) == _lp_image(want), label
                    if setting == MI_ER:
                        # the decode counts each link's carried demand itself
                        x = [0.01 / (3 + c) for c in range(got.num_vars)]
                        sol = _decode(topo, cols, x, Objective.AGGREGATE)
                        got_hex = {i: p.hex() for i, p in sol.p_first.items()}
                        assert got_hex == _fraction_hex(topo, carried, x), label


# -- the closed form against the LP route ------------------------------------

_ROUTE_TREES = 180  # generated trees beyond the freeze trees, x 6 settings
_PROFILE_TREES = 40  # trees whose links get random capacities and duty limits


def _random_tree(seed, max_small):
    rng = random.Random(seed)
    n = 1 + seed % max_small
    degree = rng.randint(1, min(n, 8))
    tree = generate_topology(
        GeneratorConfig(
            seed=seed,
            num_small_bs=n,
            macro_degree=degree,
            max_small_children=rng.randint(1 if n > degree else 0, 3),
            interference_pair_budget=rng.randint(0, n),
        )
    )
    return tree, rng


def _random_profiles(topo, rng):
    """The same tree with every link's capacity, P_f and P_l redrawn.

    Generated links always have P_l = P_f; these do not, so a bound that
    mixes the two up shows.
    """
    links = [
        make_link(
            l.id, l.parent, l.child, l.hop_count,
            capacity_gbps=rng.uniform(0.5, 20.0),
            p_first_max=rng.uniform(0.2, 1.0),
            p_last_max=rng.uniform(0.2, 1.0),
        )
        for l in topo.links
    ]
    return NetworkTopology(topo.stations, links, topo.interference_pairs)


def _lp_route(topo, setting):
    lp, cols = build_equal_demand_lp(topo, setting)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    return _decode(topo, cols, sol.assignment, Objective.EQUAL_DEMAND)


def _assert_matches_lp_route(topo, setting):
    """Closed form against the LP route; returns the LP route's decode."""
    got = solve_equal_demand(topo, setting)
    want = _lp_route(topo, setting)
    label = (setting.name, len(topo.links), topo.interference_pairs[:1])
    assert got.lp_iterations == 0
    assert got.d_b_gbps == pytest.approx(want.d_b_gbps, rel=1e-15, abs=0.0), label
    assert got.per_bs.keys() == want.per_bs.keys()
    for b, value in want.per_bs.items():
        assert got.per_bs[b] == pytest.approx(value, rel=1e-15, abs=0.0), (label, b)
    for field in ("p_first", "p_last"):
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine.keys() == theirs.keys()
        for i, value in theirs.items():
            assert mine[i] == pytest.approx(value, rel=0.0, abs=1e-15), (label, field, i)
    for link in topo.links:
        assert 0.0 <= got.p_first[link.id] <= link.p_first_max, (label, link.id)
    return want


def test_closed_form_matches_the_lp_route():
    cases = [*_freeze_cases()]
    for seed in range(_ROUTE_TREES):
        cases += _setting_cases(_random_tree(seed, 80)[0])
    assert len(cases) >= 1000
    for topo, setting in cases:
        want = _assert_matches_lp_route(topo, setting)
        fair = solve_objective(topo, setting, Objective.AGGREGATE_FAIR)
        fair_lp = solve_objective(topo, setting, Objective.AGGREGATE_FAIR, fair_floor=want.d_b_gbps)
        assert fair.aggregate_gbps == pytest.approx(
            fair_lp.aggregate_gbps, rel=1e-15, abs=0.0
        ), (setting.name, len(topo.links))


def test_closed_form_matches_the_lp_route_with_unequal_duty_limits():
    # no fair-aggregate comparison here: with these profiles the fair LP
    # alone moves by up to about 1.1e-15 (relative) when its floor moves by
    # one ulp, which says nothing about the closed form
    for seed in range(_PROFILE_TREES):
        tree, rng = _random_tree(seed, 30)
        for topo, setting in _setting_cases(_random_profiles(tree, rng)):
            _assert_matches_lp_route(topo, setting)


def test_saturated_fraction_is_clamped_to_the_duty_limit():
    # D = 3.1 / 3 on link 1, and 3 * D rounds to 3.1000000000000005, so the
    # cheapest fraction P_f * 3 * D / C lands one ulp above P_f = 1
    topo = helpers.chain(hops=(1, 1, 1), rate=3.1)
    sol = solve_equal_demand(topo, MI_ER)
    assert sol.d_b_gbps == 3.1 / 3
    assert sol.p_first[1] == 1.0
    assert sol.p_last[1] == 1.0


def test_formulations_solve_passes_its_kernel_to_the_simplex():
    # the benchmark's tracer wraps formulations.solve and hands it a kernel
    # that times each phase, but only while this parameter exists
    assert "kernel" in inspect.signature(formulations.solve).parameters
    topo = generate_topology(GeneratorConfig(seed=4, interference_pair_budget=2))
    topo = adapt_topology(topo, LI_LR, macro_chains=2)
    floor = solve_equal_demand(topo, LI_LR).d_b_gbps
    lp, _ = build_aggregate_lp(topo, LI_LR, dict.fromkeys(topo.small_bs_ids(), floor))
    phases = []

    class Recording:
        def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
            phases.append(1 if ncols_enter < tableau.shape[1] - 1 else 2)
            return _kernel_py.run_pivots(tableau, basis, ncols_enter, tol, max_iter)

    got = formulations.solve(lp, kernel=Recording())
    want = simplex.solve(lp)
    assert phases == [1, 2]
    assert got.status is want.status is LpStatus.OPTIMAL
    assert got.iterations == want.iterations
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.objective_value.hex() == want.objective_value.hex()
    assert got.residual.hex() == want.residual.hex()
