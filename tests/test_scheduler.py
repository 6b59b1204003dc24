"""Frame schedule construction: frozen placements and feasibility sweeps."""

import pytest

import helpers
from backhaulopt.errors import (
    InconsistentInput,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    PlacementFailure,
)
from backhaulopt.formulations import Interference, parse_setting, solve_equal_demand
from backhaulopt.generator import adapt_topology, strip_interference
from backhaulopt.scheduler import (
    achieved_rates,
    build_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from backhaulopt.validator import validate_schedule


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
    # whole footprint and must fit the remaining frame on chain 1
    topo = helpers.chain(hops=(2, 2), pairs=[(1, 2)])
    sol = solve_equal_demand(topo, parse_setting("LI-ER")[0])
    sched = build_schedule(topo, sol.p_first)
    assert sched.meta["line12_overflow"] == []
    report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok, [str(v) for v in report.violations]


def test_achieved_rates_scale_with_duty():
    topo = helpers.chain(hops=(2, 1))
    rates = achieved_rates(topo, build_schedule(topo, {1: 0.5, 2: 0.25}))
    assert rates[1] == pytest.approx(6.65, abs=1e-6)  # full duty on C = 6.65
    assert rates[2] == pytest.approx(13.3 * 0.25, abs=1e-6)


def test_awkward_fractions_stay_on_grid():
    topo = helpers.star(3, hop=1)
    p = {1: 1 / 3, 2: 1 / 7, 3: 2 / 3}
    sched = build_schedule(topo, p)
    for lid, want in p.items():
        assert sched.links[lid].parent_total() == pytest.approx(want, abs=1e-9)
        assert sched.links[lid].footprint_total() == pytest.approx(want, abs=1e-9)


def test_overfull_chain_is_a_placement_failure():
    topo = helpers.star(2, hop=1, chains={0: 1})
    with pytest.raises(PlacementFailure):
        build_schedule(topo, {1: 0.75, 2: 0.75})


def test_input_validation():
    topo = helpers.star(2, hop=1)
    with pytest.raises(MissingLink):
        build_schedule(topo, {1: 0.5})
    with pytest.raises(InconsistentInput):
        build_schedule(topo, {1: 1.5, 2: 0.5})
    multi = helpers.chain(hops=(2,))
    with pytest.raises(InconsistentInput):
        build_schedule(multi, {1: 0.75})  # exceeds P^f = 0.5


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
    back = schedule_from_dict(data)
    assert schedule_to_dict(back) == data
    report = validate_schedule(topo, back, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok
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
