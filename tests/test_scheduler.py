"""Frame schedule construction: frozen placements and feasibility sweeps."""

import hashlib
import itertools
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from backhaulopt import scheduler
from backhaulopt.errors import (
    InconsistentInput,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    PlacementFailure,
)
from backhaulopt.experiment import SETTING_NAMES
from backhaulopt.formulations import (
    Interference,
    Objective,
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
from backhaulopt.model import BaseStation, NetworkTopology, make_link
from backhaulopt.scheduler import build_schedule, schedule_from_dict, schedule_to_dict
from backhaulopt.validator import TOL_INTERVAL, validate_schedule


def test_two_links_share_one_chain_frozen():
    # two saturated single-hop links on one macro chain take turns:
    # [0, 0.5) then [0.5, 1.0), both on chain 0
    topo = helpers.star(2, hop=1, chains={0: 1})
    sched = build_schedule(topo, {1: 0.5, 2: 0.5})
    assert sched.links[1].parent_side == [(0, 0.0, 0.5)]
    assert sched.links[2].parent_side == [(0, 0.5, 1.0)]
    assert sched.links[1].footprint == [(0.0, 0.5)]
    assert sched.links[2].footprint == [(0.5, 1.0)]
    # single hop: the child radio listens exactly when the parent transmits
    assert sched.links[1].child_side == [(0, 0.0, 0.5)]


def test_relayed_link_splits_footprint_frozen():
    # one relayed link at full duty: footprint fills the frame, first link
    # sends in the leading half, last link delivers in the trailing half
    topo = helpers.chain(hops=(2,))
    sched = build_schedule(topo, {1: 0.5})
    assert sched.links[1].footprint == [(0.0, 1.0)]
    assert sched.links[1].parent_side == [(0, 0.0, 0.5)]
    assert sched.links[1].child_side == [(0, 0.5, 1.0)]


def test_pause_consumes_no_chain():
    # the relayed inbound pauses during [0.5, 1); B1's own child link can
    # transmit then even though B1 has a single chain for its child links
    topo = helpers.chain(hops=(2, 1), chains={0: 1, 1: 2, 2: 1})
    sched = build_schedule(topo, {1: 0.5, 2: 0.5})
    report = validate_schedule(topo, sched, p_first={1: 0.5, 2: 0.5})
    assert report.ok, [str(v) for v in report.violations]


def test_interfering_footprints_stay_disjoint():
    topo = helpers.star(2, hop=2, pairs=[(1, 2)])
    sched = build_schedule(topo, {1: 0.25, 2: 0.25})
    f1, f2 = sched.links[1].footprint, sched.links[2].footprint
    assert sum(e - s for s, e in f1) == pytest.approx(0.5, abs=1e-9)
    for s1, e1 in f1:
        for s2, e2 in f2:
            assert min(e1, e2) <= max(s1, s2) + 1e-12


def test_inbound_partner_child_dodges_footprint():
    # pair (1, 2) shares B1; link 2 is placed at B1 against the inbound's
    # whole footprint and fits the rest of the frame on B1's chain 0, the
    # chain that holds the inbound's child side
    topo = helpers.chain(hops=(2, 2), pairs=[(1, 2)])
    sol = solve_equal_demand(topo, parse_setting("LI-ER")[0])
    sched = build_schedule(topo, sol.p_first)
    assert {chain for chain, _, _ in sched.links[2].parent_side} == {0}
    report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok, [str(v) for v in report.violations]


def test_achieved_rates_scale_with_duty():
    topo = helpers.chain(hops=(2, 1))
    rates = validate_schedule(topo, build_schedule(topo, {1: 0.5, 2: 0.25})).realized_rates
    assert rates[1] == pytest.approx(6.65, abs=1e-6)  # full duty on C = 6.65
    assert rates[2] == pytest.approx(13.3 * 0.25, abs=1e-6)


def test_awkward_fractions_stay_on_grid():
    topo = helpers.star(3, hop=1)
    p = {1: 1 / 3, 2: 1 / 7, 3: 2 / 3}
    sched = build_schedule(topo, p)
    for lid, want in p.items():
        parent = [(s, e) for _, s, e in sched.links[lid].parent_side]
        assert oracles.interval_total(parent) == pytest.approx(want, abs=1e-9)
        assert oracles.interval_total(sched.links[lid].footprint) == pytest.approx(want, abs=1e-9)


def test_overfull_chain_is_a_placement_failure():
    topo = helpers.star(2, hop=1, chains={0: 1})
    with pytest.raises(PlacementFailure):
        build_schedule(topo, {1: 0.75, 2: 0.75})


def test_relayed_link_whose_hops_outlast_the_footprint_fails():
    # P_f + P_l > 1: at p = P_f the footprint is the whole frame, and the last
    # hop needs 0.6 of it after the 0.8 of actives; trimming it to 0.2 would
    # leave a schedule that realizes a third of the link's capacity
    link = make_link(1, 0, 1, 2, capacity_gbps=5.0, p_first_max=0.8, p_last_max=0.6)
    topo = helpers.topology([link])
    for p in (0.8, 0.4, 1e-6):
        with pytest.raises(PlacementFailure, match="child-side time"):
            build_schedule(topo, {1: p})
    assert build_schedule(topo, {1: 0.0}).links[1].child_side == []


def test_a_one_hop_link_follows_its_first_link_duty_limit():
    # a 1-hop link's footprint is its active time over P_f, as a relayed
    # link's is; its one transmission is both its first and its last link,
    # so it cannot meet two different duty limits
    link = make_link(1, 0, 1, 1, capacity_gbps=5.0, p_first_max=0.5, p_last_max=0.5)
    topo = helpers.topology([link])
    sol = solve_equal_demand(topo, parse_setting("MI-ER")[0])
    assert sol.p_first == {1: 0.5}
    sched = build_schedule(topo, sol.p_first)
    assert sched.links[1].footprint == [(0.0, 1.0)]
    report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok, [str(v) for v in report.violations]
    link = make_link(1, 0, 1, 1, capacity_gbps=5.0, p_first_max=0.8, p_last_max=0.6)
    topo = helpers.topology([link])
    for p in (0.8, 0.4, 1e-6):
        with pytest.raises(PlacementFailure, match="p_first_max=0.8 and p_last_max=0.6"):
            build_schedule(topo, {1: p})
    # no time, or too little for the two limits to part by the validator's
    # tolerance, places and validates
    for p in (0.0, 1e-9):
        report = validate_schedule(topo, build_schedule(topo, {1: p}), p_first={1: p})
        assert report.ok, (p, [str(v) for v in report.violations])


def test_duty_limits_finer_than_the_grid_place_only_what_validates():
    # below P ~ 1e-3 the grid's rounding of the active time, magnified by
    # 1/P_f in the validator's share checks, can exceed its tolerance; the
    # scheduler refuses those fractions instead of writing schedules that
    # the validator refuses
    rng = random.Random(5)
    refused = 0
    for duty in (1e-6, 1e-4, 1e-3, 0.5):
        link = make_link(1, 0, 1, 2, capacity_gbps=5.0, p_first_max=duty, p_last_max=duty)
        topo = helpers.topology([link])
        for p in [duty, 0.0] + [rng.uniform(0.0, duty) for _ in range(50)]:
            try:
                sched = build_schedule(topo, {1: p})
            except PlacementFailure as err:
                assert "frame grid" in str(err) and duty < 1e-3, (duty, p)
                refused += 1
                continue
            report = validate_schedule(topo, sched, p_first={1: p}, demands={1: p / duty * 5.0})
            assert report.ok, (duty, p, [str(v) for v in report.violations])
    assert refused > 50


def test_the_frame_grid_check_refuses_what_validate_refuses(monkeypatch):
    # one 2-hop link with P_f = P_l: the check asks of the grid's times what
    # the validator asks of the schedule, at the validator's tolerances
    assert scheduler.TOL_GRID / scheduler.GRID == TOL_INTERVAL
    for duty, refusals in ((5e-4, 1), (1e-4, 154)):
        link = make_link(1, 0, 1, 2, capacity_gbps=5.0, p_first_max=duty, p_last_max=duty)
        topo = helpers.topology([link])
        rng = random.Random(0)
        refused = 0
        for p in [rng.uniform(0.0, duty) for _ in range(200)]:
            try:
                sched = build_schedule(topo, {1: p})
            except PlacementFailure as err:
                assert "frame grid" in str(err)
                refused += 1
                with monkeypatch.context() as unchecked:
                    unchecked.setattr(scheduler, "TOL_GRID", float("inf"))
                    sched = build_schedule(topo, {1: p})
                expected = False
            else:
                expected = True
            report = validate_schedule(topo, sched, p_first={1: p}, demands={1: p / duty * 5.0})
            assert report.ok is expected, (duty, p, [str(v) for v in report.violations])
        assert refused == refusals


def test_input_validation():
    topo = helpers.star(2, hop=1)
    with pytest.raises(MissingLink):
        build_schedule(topo, {1: 0.5})
    with pytest.raises(InconsistentInput):
        build_schedule(topo, {1: 1.5, 2: 0.5})
    multi = helpers.chain(hops=(2,))
    with pytest.raises(InconsistentInput):
        build_schedule(multi, {1: 0.75})  # exceeds P^f = 0.5


def test_declared_chain_count_costs_nothing():
    # a station may declare far more chains than placement can ever fill;
    # the schedule is the one for a count that is merely enough
    base = generate_topology(
        GeneratorConfig(seed=3, num_small_bs=20, interference_pair_budget=6)
    )
    setting, _ = parse_setting("LI-LR")
    enough = adapt_topology(base, setting, macro_chains=8)
    huge = adapt_topology(base, setting, macro_chains=2**70)
    p_first = solve_equal_demand(enough, setting).p_first
    start = time.perf_counter()
    sched = build_schedule(huge, p_first)
    assert time.perf_counter() - start < 1.0
    assert schedule_to_dict(sched) == schedule_to_dict(build_schedule(enough, p_first))
    assert validate_schedule(huge, sched, p_first=p_first).ok


def test_non_finite_p_first_rejected():
    topo = helpers.star(2, hop=1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteInput):
            build_schedule(topo, {1: value, 2: 0.5})


def test_too_many_partners_raises_invalid_topology():
    # link 2 has two partners at the macro BS; pairwise placement needs one
    topo = helpers.star(3, hop=1, pairs=[(1, 2), (2, 3)])
    with pytest.raises(InvalidTopology, match="TooManyPartnersAtBS"):
        build_schedule(topo, {1: 0.3, 2: 0.3, 3: 0.3})


def test_empty_demand_schedules_cleanly():
    topo = helpers.star(2, hop=1)
    sched = build_schedule(topo, {1: 0.0, 2: 0.0})
    assert sched.links[1].footprint == []
    report = validate_schedule(topo, sched, p_first={1: 0.0, 2: 0.0})
    assert report.ok


def test_schedule_json_round_trip():
    topo = helpers.chain(hops=(2, 1), pairs=[(1, 2)])
    sol = solve_equal_demand(topo, parse_setting("LI-ER")[0])
    sched = build_schedule(topo, sol.p_first)
    data = schedule_to_dict(sched)
    assert data.keys() == {"links"}
    back = schedule_from_dict(data)
    assert schedule_to_dict(back) == data
    report = validate_schedule(topo, back, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok
    # the chains view and meta of older files are ignored, whatever they claim
    forged = {"chains": [{"bs": 0, "chain": 0, "intervals": [[0, 1]]}],
              "meta": {"overflow": [1, 2, 3]}}
    for extra in (forged, {"chains": "x", "meta": []}):
        old = schedule_from_dict({**data, **extra})
        assert old == back
        assert validate_schedule(topo, old, p_first=sol.p_first, demands=sol.per_bs) == report
    with pytest.raises(InconsistentInput):
        schedule_from_dict({"links": {"1": {"footprint": "zap"}}})


def test_round_trip_across_settings_and_seeds():
    for seed in range(25):
        base = helpers.random_small(seed, max_links=6, max_pairs=2)
        bare = strip_interference(base)
        for name in ("MI-ER", "LI-ER", "MI-LR(2)", "LI-LR(2)"):
            setting, k = parse_setting(name)
            src = bare if setting.interference is Interference.MINIMAL else base
            topo = adapt_topology(src, setting, macro_chains=k)
            sol = solve_equal_demand(topo, setting)
            try:
                sched = build_schedule(topo, sol.p_first)
            except PlacementFailure:
                continue  # legitimate in limited-chain settings
            report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
            assert report.ok, (seed, name, [str(v) for v in report.violations])
            assert report.realized_equal_demand == pytest.approx(sol.d_b_gbps, abs=1e-6)


# -- chain occupancy ------------------------------------------------------------

# small endpoints, so adjacent, nested, duplicate, empty and reversed pieces
# come up often
PIECES = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(placements=st.lists(st.tuples(st.integers(0, 2), PIECES), max_size=12))
def test_occupy_keeps_busy_lists_merged(placements):
    # every busy list equals the whole list merged again from scratch after
    # every placement, and so does the union of the chains in use; placement
    # occupies a chain in use or the first free one, so a drawn index past
    # that is moved down to it, and a chain joins with its first piece
    state = scheduler._State(helpers.chain(hops=(1,), chains={1: 3}))
    chains = []
    for drawn, pieces in placements:
        chain = min(drawn, len(chains))
        state.occupy(1, chain, pieces)
        busy = oracles.occupancy_after(chains[chain] if chain < len(chains) else [], pieces)
        if chain < len(chains):
            chains[chain] = busy
        elif busy:
            chains.append(busy)
        assert state.chains[1] == chains
        assert state.chains_in_use(1) == range(min(len(chains) + 1, 3))
        assert state.all_busy(1) == oracles.merged([p for busy in chains for p in busy])


MERGED = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=5).map(
    oracles.merged
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    blocked=MERGED,
    covered=MERGED,
    amount=st.one_of(st.integers(0, 16), st.just(scheduler.GRID)),
)
def test_take_free_takes_the_leftmost_free_time(blocked, covered, amount):
    # amount = GRID takes every gap, the complement of the list
    grid = scheduler.GRID
    assert scheduler._take_free(blocked, amount) == oracles.leftmost_free(blocked, amount, grid)
    # reuse-first: with the gaps of covered blocked as well, what is left free
    # is covered time outside blocked, taken from the left
    gaps, _ = scheduler._take_free(covered, grid)
    assert scheduler._take_free(scheduler._merge(blocked + gaps), amount) == (
        oracles.leftmost_free(blocked, amount, grid, within=covered)
    )


def test_occupy_never_merges_from_scratch(monkeypatch):
    calls = []
    merge = scheduler._merge
    monkeypatch.setattr(scheduler, "_merge", lambda intervals: calls.append(1) or merge(intervals))
    state = scheduler._State(helpers.chain(hops=(1,)))
    for pieces in ([(4, 6)], [(0, 2), (6, 8)], [(2, 4), (1, 9)], [(3, 3), (12, 10)], []):
        state.occupy(1, 0, pieces)
    assert state.chains[1] == [[(0, 9)]]
    assert calls == []
    # placement still merges what it has to, so the patch is on the live path
    build_schedule(helpers.star(2, pairs=[(1, 2)]), {1: 0.3, 2: 0.3})
    assert calls


# -- frozen schedules and validation reports ---------------------------------

_FROZEN_SIZES = {1: (1, 2, 3, 4), 5: (1, 2, 3, 4), 20: (1, 2, 3), 80: (1, 2), 200: (1, 2)}


def _frozen_cases():
    """(topology, solution) for every size and seed, setting and objective."""
    for n, seeds in _FROZEN_SIZES.items():
        for seed in seeds:
            base = generate_topology(
                GeneratorConfig(
                    seed=seed,
                    num_small_bs=n,
                    macro_degree=min(n, 8),
                    interference_pair_budget=n // 3 + 1,
                )
            )
            bare = strip_interference(base)
            for name in SETTING_NAMES:
                setting, k = parse_setting(name)
                src = bare if setting.interference is Interference.MINIMAL else base
                topo = adapt_topology(src, setting, macro_chains=k)
                for objective in Objective:
                    yield topo, solve_objective(topo, setting, objective)


def _report_text(topo, schedule, sol):
    report = validate_schedule(topo, schedule, p_first=sol.p_first, demands=sol.per_bs)
    rates = ",".join(f"{k}:{v.hex()}" for k, v in sorted(report.realized_rates.items()))
    lines = [str(v) for v in report.violations]
    return "|".join([*lines, rates, report.realized_equal_demand.hex()])


def _hash_case(digest, topo, sol) -> None:
    """Add one case's schedule JSON and reports to digest. The schedule is
    validated as built and with one link's footprint replaced by its
    interference partner's (or, without pairs, by the next link's), which
    pins the violation text."""
    try:
        schedule = build_schedule(topo, sol.p_first)
    except PlacementFailure:
        digest.update(b"placement failure")
        return
    data = schedule_to_dict(schedule)
    digest.update(json.dumps(data, sort_keys=True).encode())
    digest.update(_report_text(topo, schedule, sol).encode())
    ids = [l.id for l in topo.links]
    pair = topo.interference_pairs[0] if topo.interference_pairs else ids[:2]
    if len(pair) == 2:
        a, b = (str(x) for x in pair)
        data["links"][b]["footprint"] = [list(iv) for iv in data["links"][a]["footprint"]]
        tampered = schedule_from_dict(data)
        digest.update(_report_text(topo, tampered, sol).encode())


def test_schedules_and_reports_frozen():
    # schedule JSON and validation reports, byte for byte, for generated
    # trees up to 200 BSs
    digest = hashlib.sha256()
    for topo, sol in _frozen_cases():
        _hash_case(digest, topo, sol)
    assert digest.hexdigest() == (
        "0705c2a8594eddb1efe980f27226f999778ed876d07682d706b8cb8a6100ef3b"
    )


def test_placement_occupies_a_chain_in_use_or_the_first_free_one(monkeypatch):
    # the contract the chain lists of _State rest on, on every frozen case
    occupy = scheduler._State.occupy
    chains = []

    def checked(state, bs, chain, pieces):
        assert chain <= len(state.chains[bs]) and chain < state.budget[bs], (bs, chain)
        chains.append(chain)
        occupy(state, bs, chain, pieces)

    monkeypatch.setattr(scheduler._State, "occupy", checked)
    for topo, sol in _frozen_cases():
        try:
            build_schedule(topo, sol.p_first)
        except PlacementFailure:
            pass
    assert max(chains) > 0  # some BS placed on more than one chain


def test_large_schedules_and_reports_frozen():
    # the same pin at 400 small BSs with 133 pairs under LI-LR(2), twice the
    # largest tree above
    base = generate_topology(
        GeneratorConfig(seed=1, num_small_bs=400, interference_pair_budget=400 // 3)
    )
    setting, k = parse_setting("LI-LR(2)")
    topo = adapt_topology(base, setting, macro_chains=k)
    digest = hashlib.sha256()
    for objective in Objective:
        _hash_case(digest, topo, solve_objective(topo, setting, objective))
    assert digest.hexdigest() == (
        "538273bef704e8738ae0ae812f84da93f0d36b41c222478e7060a55356e2cb52"
    )


# -- placements carried over to other chain budgets ---------------------------


def _budget_variants(interference, topo, rng):
    """(label, topology, setting) for ER, LR(1), LR(2) and LR under ER's
    counts lowered at random, all on topo's tree and pair list."""
    out = []
    for name in ("ER", "LR(1)", "LR(2)"):
        setting, k = parse_setting(f"{interference}-{name}")
        out.append((name, adapt_topology(topo, setting, macro_chains=k), setting))
    er = out[0][1]
    lowered = [BaseStation(s.id, s.kind, rng.randint(1, s.radio_chains)) for s in er.stations]
    out.append(("lowered", NetworkTopology(lowered, er.links, er.interference_pairs),
                parse_setting(f"{interference}-LR")[0]))
    return out


def test_a_placement_carries_over_only_where_first_fit_places_it_again():
    # the first-fit invariant carries_over states: on generated trees, for
    # every setting's closed-form fractions and every ordered pair of budgets
    # B, b among ER, LR(1), LR(2) and ER lowered at random, a schedule placed
    # under B that carries over to b is the one b places
    rng = random.Random(36)
    seen = Counter()
    for seed in range(40):
        n = rng.randint(1, 80)
        degree = rng.choice((1, rng.randint(1, n)))
        base = generate_topology(GeneratorConfig(
            seed=seed, num_small_bs=n, macro_degree=degree,
            max_small_children=rng.randint(0 if degree == n else 1, 3),
            interference_pair_budget=rng.randint(0, n // 3),
        ))
        for interference, topo in (("MI", strip_interference(base)), ("LI", base)):
            budgets = _budget_variants(interference, topo, rng)
            for _, under, setting in budgets:
                p_first = solve_equal_demand(under, setting).p_first
                placed = {}
                for label, budget, _ in budgets:
                    try:
                        placed[label] = build_schedule(budget, p_first)
                    except PlacementFailure:
                        placed[label] = None
                for (was, source, _), (now, target, _) in itertools.permutations(budgets, 2):
                    schedule = placed[was]
                    if schedule is None:
                        continue
                    accepted = scheduler.carries_over(schedule, source, target)
                    if accepted:
                        assert placed[now] is not None, (seed, was, now)
                        assert schedule_to_dict(placed[now]) == schedule_to_dict(schedule), (
                            seed, was, now)
                    seen[accepted] += 1
                    # at macro_degree 1, ER gives the macro one chain and LR(2) two
                    seen["macro_degree 1", was, now] += not accepted and degree == 1
    assert seen[True] and seen[False] and seen["macro_degree 1", "ER", "LR(2)"], seen
