"""Topology data model, validators, and JSON round-trips."""

import json

import pytest

import helpers
from backhaulopt import model
from backhaulopt.errors import BackhaulError, InconsistentInput, NonFiniteInput, UnknownBS
from backhaulopt.experiment import ExperimentConfig, run_trial
from backhaulopt.generator import GeneratorConfig, generate_topology
from backhaulopt.model import (
    MACRO,
    SMALL,
    BaseStation,
    NetworkTopology,
    TrafficDemand,
    attached_links,
    load_topology,
    make_link,
    save_topology,
    subtree_bs_set,
    topology_from_dict,
    topology_to_dict,
    validate_interference_model,
    validate_tree,
)


def kinds(violations):
    return sorted(v.kind for v in violations)


_STATIONS = [BaseStation(0, MACRO, 2), BaseStation(1, SMALL, 1), BaseStation(2, SMALL, 1)]


def malformed():
    """Topologies that are not valid trees, by the defect they carry."""
    return {
        "NoMacro": NetworkTopology([BaseStation(1, SMALL, 1)], []),
        "DuplicateMacro": NetworkTopology(
            [BaseStation(0, MACRO, 1), BaseStation(1, MACRO, 1)], [make_link(1, 0, 1, 1)]
        ),
        # link id must equal the child id
        "LinkIdMismatch": NetworkTopology(
            _STATIONS, [make_link(5, 0, 1, 1), make_link(2, 0, 2, 1)]
        ),
        # nobody feeds B2
        "MissingInbound": NetworkTopology(_STATIONS, [make_link(1, 0, 1, 1)]),
        # 1 and 2 feed each other, detached from the macro
        "NotATree": NetworkTopology(_STATIONS, [make_link(1, 2, 1, 1), make_link(2, 1, 2, 1)]),
        # a link into the macro is never legal; here it closes a cycle through it
        "MacroInbound": NetworkTopology(
            _STATIONS, [make_link(0, 1, 0, 1), make_link(1, 0, 1, 1), make_link(2, 0, 2, 1)]
        ),
        "BadRadioChains": NetworkTopology(
            [BaseStation(0, MACRO, 0), BaseStation(1, SMALL, 1)],
            [make_link(1, 0, 1, 1, capacity_gbps=-1.0)],
        ),
        "SelfPair": helpers.chain(hops=(1, 1), pairs=[(1, 1)]),
        "UnknownLink": helpers.chain(hops=(1, 1), pairs=[(1, 9)]),
        # links 1 and 3 share no BS on a three-link chain
        "NoSharedBS": helpers.chain(hops=(1, 1, 1), pairs=[(1, 3)]),
        # two partners for link 2 at the same shared BS
        "TooManyPartnersAtBS": helpers.star(3, pairs=[(1, 2), (2, 3)]),
    }


def test_make_link_derives_profile_from_hop_count():
    single = make_link(1, 0, 1, 1, phy_rate_gbps=13.3)
    assert (single.capacity_gbps, single.p_first_max, single.p_last_max) == (13.3, 1.0, 1.0)
    multi = make_link(2, 1, 2, 3, phy_rate_gbps=13.3)
    assert (multi.capacity_gbps, multi.p_first_max, multi.p_last_max) == (6.65, 0.5, 0.5)


def test_make_link_overrides_win():
    link = make_link(1, 0, 1, 2, phy_rate_gbps=13.3, capacity_gbps=5.0, p_first_max=0.4)
    assert link.capacity_gbps == 5.0
    assert link.p_first_max == 0.4
    assert link.p_last_max == 0.5  # not overridden, derived


def test_make_link_rejects_non_finite_numbers():
    for value in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteInput):
            make_link(1, 0, 1, 1, phy_rate_gbps=value)
        with pytest.raises(NonFiniteInput):
            make_link(1, 0, 1, 2, phy_rate_gbps=13.3, capacity_gbps=value)
        with pytest.raises(NonFiniteInput):
            make_link(1, 0, 1, 2, phy_rate_gbps=13.3, p_last_max=value)
    assert issubclass(NonFiniteInput, BackhaulError)


def test_accessors_and_sorted_views():
    topo = helpers.chain(hops=(2, 1, 3))
    assert [s.id for s in topo.stations] == [0, 1, 2, 3]
    assert [l.id for l in topo.links] == [1, 2, 3]
    assert topo.macro.kind == MACRO
    assert topo.inbound_link(0) is None
    assert topo.inbound_link(2).id == 2
    assert [l.id for l in topo.child_links(1)] == [2]
    assert [l.id for l in attached_links(topo, 1)] == [1, 2]
    with pytest.raises(UnknownBS):
        topo.station(99)


def test_interference_pairs_dedupe_and_sort():
    topo = helpers.chain(hops=(1, 1), pairs=[(2, 1), (1, 2)])
    assert topo.interference_pairs == ((1, 2),)
    assert topo.partners(1) == [2]
    assert topo.partners(2) == [1]


def test_subtree_sets():
    # 0 -> 1 -> {2, 3}, 0 -> 4
    links = [
        make_link(1, 0, 1, 1),
        make_link(2, 1, 2, 1),
        make_link(3, 1, 3, 2),
        make_link(4, 0, 4, 1),
    ]
    topo = helpers.topology(links)
    assert subtree_bs_set(topo, 1) == frozenset({1, 2, 3})
    assert subtree_bs_set(topo, 4) == frozenset({4})
    assert subtree_bs_set(topo, 0) == frozenset({0, 1, 2, 3, 4})


def test_validate_tree_clean():
    assert validate_tree(helpers.chain()) == []
    assert validate_tree(helpers.star(5)) == []


def test_validate_tree_missing_macro():
    assert "NoMacro" in kinds(validate_tree(malformed()["NoMacro"]))


def test_validate_tree_duplicate_macro():
    assert "DuplicateMacro" in kinds(validate_tree(malformed()["DuplicateMacro"]))


def test_validate_tree_structural_defects():
    for kind in ("LinkIdMismatch", "MissingInbound", "NotATree", "MacroInbound"):
        assert kind in kinds(validate_tree(malformed()[kind])), kind


def test_validate_tree_bad_fields():
    found = kinds(validate_tree(malformed()["BadRadioChains"]))
    assert "BadRadioChains" in found
    assert "BadCapacity" in found


def test_validate_interference_model():
    for kind in ("SelfPair", "UnknownLink", "NoSharedBS", "TooManyPartnersAtBS"):
        assert kind in kinds(validate_interference_model(malformed()[kind])), kind
    # same link can have one partner at each end
    ok = helpers.chain(hops=(1, 1, 1), pairs=[(1, 2), (2, 3)])
    assert validate_interference_model(ok) == []


def test_json_round_trip(tmp_path):
    topo = helpers.chain(hops=(2, 1), pairs=[(1, 2)])
    data = topology_to_dict(topo)
    assert set(data) == {"stations", "links", "interference"}
    back = topology_from_dict(data)
    assert topology_to_dict(back) == data

    path = tmp_path / "topo.json"
    save_topology(topo, str(path))
    loaded = load_topology(str(path))
    assert topology_to_dict(loaded) == data


def test_json_emits_overrides_only_when_present():
    plain = topology_to_dict(helpers.chain(hops=(2,)))
    assert "capacity_gbps" not in plain["links"][0]
    tweaked = helpers.topology([make_link(1, 0, 1, 2, capacity_gbps=4.0)])
    data = topology_to_dict(tweaked)
    assert data["links"][0]["capacity_gbps"] == 4.0
    assert topology_from_dict(data).link(1).capacity_gbps == 4.0


def test_bad_json_raises(tmp_path):
    with pytest.raises(InconsistentInput):
        topology_from_dict({"stations": "nope"})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InconsistentInput):
        load_topology(str(path))
    path2 = tmp_path / "wrong.json"
    path2.write_text(json.dumps({"links": []}))
    with pytest.raises(InconsistentInput):
        load_topology(str(path2))


def test_traffic_demand_subtree_sums():
    topo = helpers.chain(hops=(1, 1))
    demand = TrafficDemand({1: 2.0, 2: 3.0})
    assert demand.aggregate == 5.0
    assert demand.subtree_demand(topo, 1) == 5.0
    assert demand.subtree_demand(topo, 2) == 3.0


# -- the tree index ----------------------------------------------------------


def _stack_walk(topo):
    """The scheduler's own walk before the index: child links pop in ascending id."""
    order, stack = [], [topo.macro.id]
    while stack:
        bs = stack.pop()
        order.append(bs)
        stack.extend(l.child for l in reversed(topo.child_links(bs)))
    return order


def _generated_trees():
    for n in [*range(1, 81), 200]:
        yield generate_topology(
            GeneratorConfig(seed=n, num_small_bs=n, macro_degree=min(n, 8),
                            interference_pair_budget=n // 3)
        )


def test_tree_index_matches_the_reference_walks():
    for topo in _generated_trees():
        assert topo.violations == ()
        assert list(topo.subtree(topo.macro.id)) == _stack_walk(topo)
        for b in topo.subtree(topo.macro.id):
            assert set(topo.subtree(b)) == subtree_bs_set(topo, b)
            assert len(topo.subtree(b)) == len(subtree_bs_set(topo, b))
        for link in topo.links:
            assert topo.partners(link.id) == sorted(
                {a + b - link.id for a, b in topo.interference_pairs if link.id in (a, b)}
            )
    for kind, topo in malformed().items():
        assert list(topo.violations) == validate_tree(topo) + validate_interference_model(topo)
        assert kind in kinds(topo.violations)
        assert topo.violations is topo.violations
        if kind == "NoMacro":
            with pytest.raises(UnknownBS):
                topo.subtree(1)
            continue
        # building the index ends even where the macro reaches a cycle
        reach = topo.subtree(topo.macro.id)
        assert set(reach) == subtree_bs_set(topo, topo.macro.id)
        for b in reach:
            # a slice holds what the walk reached first; on a tree, all of it
            assert set(topo.subtree(b)) <= subtree_bs_set(topo, b)
            if "NotATree" not in kinds(topo.violations):
                assert set(topo.subtree(b)) == subtree_bs_set(topo, b)
    with pytest.raises(UnknownBS):
        malformed()["MissingInbound"].subtree(2)


def test_a_trial_validates_each_topology_once(monkeypatch):
    seen = []
    reference = model.validate_tree

    def counting(topology):
        seen.append(topology)  # held, so no two topologies share an id
        return reference(topology)

    monkeypatch.setattr(model, "validate_tree", counting)
    run_trial(ExperimentConfig(seed=5), 0)
    assert len({id(t) for t in seen}) == len(seen) <= 8
