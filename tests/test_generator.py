"""Seeded topology generation: reproducibility and structural guarantees."""

import itertools
import math
import random

import pytest

import oracles
from backhaulopt import generator
from backhaulopt.errors import InconsistentInput, InfeasibleConfig, NonFiniteInput, NonPositiveInput
from backhaulopt.formulations import parse_setting
from backhaulopt.generator import (
    GeneratorConfig,
    adapt_topology,
    generate_topology,
    strip_interference,
)
from backhaulopt.model import (
    topology_to_dict,
    validate_interference_model,
    validate_tree,
)


def test_seed_pins_the_topology():
    config = GeneratorConfig(seed=123, interference_pair_budget=4)
    a = topology_to_dict(generate_topology(config))
    b = topology_to_dict(generate_topology(config))
    assert a == b
    c = topology_to_dict(generate_topology(GeneratorConfig(seed=124, interference_pair_budget=4)))
    assert c != a


def test_known_seed_frozen():
    # pins the rng stream itself: any drift in draw order shows up here
    topo = generate_topology(
        GeneratorConfig(
            seed=7,
            num_small_bs=6,
            macro_degree=2,
            max_small_children=2,
            interference_pair_budget=2,
        )
    )
    assert {l.id: l.parent for l in topo.links} == {1: 0, 2: 1, 3: 5, 4: 6, 5: 0, 6: 1}
    assert {l.id: l.hop_count for l in topo.links} == {1: 2, 2: 3, 3: 2, 4: 1, 5: 2, 6: 2}
    assert topo.interference_pairs == ((2, 6), (3, 5))
    assert {s.id: s.radio_chains for s in topo.stations} == {
        0: 2, 1: 3, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2,
    }


def _grid_configs():
    for n in (1, 2, 3, 4, 7, 12, 25, 40):
        for macro_degree in sorted({1, 2, max(1, n // 3), n} & set(range(1, n + 1))):
            for max_children in (0, 1, 2, 3):
                if max_children == 0 and macro_degree < n:
                    continue  # nowhere to attach: rejected by the config check
                for budget in sorted({0, 1, n // 3, n, 4 * n}):
                    for seed in (0, 1, 2):
                        yield GeneratorConfig(
                            seed=seed,
                            num_small_bs=n,
                            macro_degree=macro_degree,
                            max_small_children=max_children,
                            interference_pair_budget=budget,
                        )


def test_matches_the_full_rescan_reference():
    # the generator keeps its candidate lists incrementally; the reference
    # rescans them before every draw, so equal output means equal rng draws
    configs = list(_grid_configs())
    assert len(configs) > 1000
    for config in configs:
        parent_of, hops, pairs = oracles.reference_generation(config)
        topo = generate_topology(config)
        assert {l.id: l.parent for l in topo.links} == parent_of, config
        assert {l.id: l.hop_count for l in topo.links} == hops, config
        assert topo.interference_pairs == tuple(sorted(pairs)), config


def test_pair_draw_order_matches_the_reference():
    for seed in range(40):
        topo = generate_topology(GeneratorConfig(seed=seed, num_small_bs=30, macro_degree=5))
        ends = {l.id: (l.parent, l.child) for l in topo.links}
        budget = (seed % 4) * 10
        got = generator._draw_pairs(random.Random(seed), topo.links, budget)
        assert got == oracles.reference_pairs(random.Random(seed), ends, budget)


# interference pairs of perfbench's plan-large trees (200 small BSs, macro
# degree 8, at most 2 children, 66 pairs), recorded from the full-rescan
# generator
FROZEN_LARGE_PAIRS = {
    1: (
        (1, 69), (2, 46), (2, 121), (4, 75), (5, 162), (10, 181), (14, 144),
        (15, 48), (19, 117), (23, 46), (25, 140), (28, 59), (29, 42), (30, 142),
        (31, 72), (32, 87), (33, 155), (34, 188), (36, 150), (36, 157),
        (37, 103), (38, 189), (39, 72), (39, 112), (41, 171), (44, 160),
        (45, 183), (48, 109), (54, 115), (55, 92), (55, 191), (56, 114),
        (57, 145), (57, 174), (58, 158), (58, 180), (62, 81), (64, 185),
        (65, 71), (68, 160), (69, 152), (78, 100), (78, 119), (79, 93),
        (80, 132), (83, 84), (84, 140), (85, 119), (89, 197), (94, 129),
        (97, 188), (104, 199), (108, 169), (110, 161), (116, 162), (118, 186),
        (120, 154), (124, 172), (127, 190), (134, 184), (138, 199), (145, 170),
        (147, 165), (153, 197), (164, 175), (176, 182),
    ),
    2027: (
        (2, 107), (2, 199), (6, 110), (6, 166), (9, 182), (9, 195), (10, 66),
        (13, 130), (14, 53), (14, 163), (25, 27), (29, 140), (29, 181),
        (32, 100), (34, 177), (35, 37), (38, 191), (43, 141), (45, 79),
        (46, 122), (48, 135), (49, 104), (52, 195), (55, 196), (57, 194),
        (58, 136), (63, 163), (67, 75), (69, 144), (69, 154), (70, 81),
        (71, 118), (72, 93), (74, 189), (75, 91), (76, 197), (77, 118),
        (79, 87), (85, 151), (86, 109), (88, 198), (90, 186), (91, 179),
        (92, 125), (94, 162), (95, 112), (95, 159), (99, 187), (101, 169),
        (101, 172), (106, 111), (116, 159), (122, 165), (124, 145), (124, 169),
        (126, 129), (126, 198), (128, 187), (132, 162), (137, 165), (143, 185),
        (144, 148), (145, 175), (151, 155), (154, 173), (178, 180),
    ),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_LARGE_PAIRS))
def test_large_tree_pairs_frozen(seed):
    topo = generate_topology(
        GeneratorConfig(
            seed=seed,
            num_small_bs=200,
            macro_degree=8,
            max_small_children=2,
            interference_pair_budget=66,
        )
    )
    assert topo.interference_pairs == FROZEN_LARGE_PAIRS[seed]


def test_structure_holds_across_many_seeds():
    for seed in range(60):
        config = GeneratorConfig(
            seed=seed,
            num_small_bs=12,
            macro_degree=4,
            max_small_children=2,
            interference_pair_budget=3,
        )
        topo = generate_topology(config)
        assert validate_tree(topo) == []
        assert validate_interference_model(topo) == []
        assert len(topo.links) == 12
        assert len(topo.child_links(0)) == 4
        for b in topo.small_bs_ids():
            assert len(topo.child_links(b)) <= 2
        assert len(topo.interference_pairs) <= 3
        for l in topo.links:
            assert l.hop_count in (1, 2, 3)


def test_pair_budget_is_met_when_pairs_exist():
    topo = generate_topology(GeneratorConfig(seed=5, interference_pair_budget=1))
    assert len(topo.interference_pairs) == 1
    none = generate_topology(GeneratorConfig(seed=5, interference_pair_budget=0))
    assert none.interference_pairs == ()


def test_custom_hop_distribution():
    config = GeneratorConfig(seed=3, hop_distribution={2: 0.5, 3: 0.5})
    topo = generate_topology(config)
    assert all(l.hop_count in (2, 3) for l in topo.links)
    solo = generate_topology(GeneratorConfig(seed=3, hop_distribution={4: 1.0}))
    assert all(l.hop_count == 4 for l in solo.links)


def test_infeasible_configs_rejected():
    # a count below its minimum, or a non-positive rate, is bad input
    for bad in (
        {"num_small_bs": 0},
        {"macro_degree": 0},
        {"max_small_children": -1},
        {"interference_pair_budget": -1},
        {"phy_rate_gbps": 0.0},
        # a count must be an int and a rate a number, a bool being neither:
        # a bool rate was written as a JSON true its own reader refuses
        {"num_small_bs": 20.0},
        {"macro_degree": 2.5},
        {"max_small_children": 1.5},
        {"interference_pair_budget": 2.5},
        {"num_small_bs": True, "macro_degree": 1},
        {"macro_degree": True},
        {"max_small_children": True},
        {"interference_pair_budget": True},
        {"phy_rate_gbps": True},
    ):
        with pytest.raises(NonPositiveInput):
            generate_topology(GeneratorConfig(**bad))
    # valid counts that no tree can meet
    with pytest.raises(InfeasibleConfig):
        generate_topology(GeneratorConfig(num_small_bs=5, macro_degree=6))
    with pytest.raises(InfeasibleConfig):
        generate_topology(GeneratorConfig(num_small_bs=5, macro_degree=2, max_small_children=0))
    with pytest.raises(InfeasibleConfig):
        generate_topology(GeneratorConfig(hop_distribution={}))
    for hops in ({0: 1.0}, {True: 1.0}, {1: 0.5, 2.0: 0.5}):
        with pytest.raises(InfeasibleConfig):
            generate_topology(GeneratorConfig(hop_distribution=hops))


def test_non_finite_hop_weights_rejected():
    # each table gave every link one hop count (3, 3 and 2); a -inf weight
    # is a negative one
    for hops in ({2: 1.0, 3: math.nan}, {1: 1.0, 3: math.inf}, {1: 1e308, 2: 1e308}):
        with pytest.raises(NonFiniteInput):
            generate_topology(GeneratorConfig(hop_distribution=hops))
    with pytest.raises(InfeasibleConfig):
        generate_topology(GeneratorConfig(hop_distribution={1: 1.0, 3: -math.inf}))


class _Scripted(random.Random):
    """A Random whose random() replays SCRIPT in a loop.

    getrandbits is named here so that shuffle and choice keep drawing
    through it: a subclass that defines random() alone has them draw
    through random(), and the script would never reach the hop draws.
    """

    SCRIPT: list[float] = []
    getrandbits = random.Random.getrandbits

    def seed(self, *args, **kwargs):
        super().seed(*args, **kwargs)
        self._step = 0

    def random(self):
        value = self.SCRIPT[self._step % len(self.SCRIPT)]
        self._step += 1
        return value


@pytest.mark.parametrize("table", [
    {3: 1.0},
    {1: 0, 2: 1, 3: 1},
    {1: 1, 2: 0, 3: 1},
    {1: 1, 2: 1, 3: 0},
    {1: 1, 2: 3},
    {1: 0.2, 2: 0.4, 3: 0.4},
], ids=str)
def test_hop_draws_at_the_weight_boundaries_match_the_reference(monkeypatch, table):
    # every draw lands on 0, on a running weight's share of the total (the
    # last share is 1.0, which only the fall-through to the last count
    # takes) or the float just below it, or just below 1: a draw that takes
    # the wrong side of a boundary, or a zero-weight count, parts from the
    # reference loop
    running = list(itertools.accumulate(w for _, w in sorted(table.items())))
    script = [0.0]
    for c in running:
        share = c / running[-1]
        script += [share, math.nextafter(share, 0.0)]
    script.append(math.nextafter(1.0, 0.0))
    monkeypatch.setattr(_Scripted, "SCRIPT", script)
    monkeypatch.setattr(random, "Random", _Scripted)
    for seed in range(3):
        config = GeneratorConfig(
            seed=seed, num_small_bs=3 * len(script), macro_degree=4,
            hop_distribution=table, interference_pair_budget=5,
        )
        parent_of, hops, pairs = oracles.reference_generation(config)
        topo = generate_topology(config)
        assert {l.id: l.parent for l in topo.links} == parent_of
        assert {l.id: l.hop_count for l in topo.links} == hops
        assert topo.interference_pairs == tuple(sorted(pairs))
        assert {h for h, w in table.items() if w} <= set(hops.values())


def test_strip_interference():
    topo = generate_topology(GeneratorConfig(seed=9, interference_pair_budget=5))
    assert topo.interference_pairs
    bare = strip_interference(topo)
    assert bare.interference_pairs == ()
    assert bare.links == topo.links


def test_adapt_topology_chain_policies():
    topo = generate_topology(GeneratorConfig(seed=2, num_small_bs=8, macro_degree=3))
    er = adapt_topology(topo, parse_setting("MI-ER")[0])
    assert er.macro.radio_chains == 3
    for b in er.small_bs_ids():
        assert er.station(b).radio_chains == len(er.child_links(b)) + 1
    lr = adapt_topology(topo, parse_setting("MI-LR(2)")[0], macro_chains=2)
    assert lr.macro.radio_chains == 2
    assert all(lr.station(b).radio_chains == 1 for b in lr.small_bs_ids())
    with pytest.raises(InconsistentInput):
        adapt_topology(topo, parse_setting("MI-LR")[0])  # LR needs a count


def test_generated_chain_counts_are_the_er_counts():
    # an experiment trial uses generated trees for the ER settings as they come
    er = parse_setting("MI-ER")[0]
    for n in (1, 2, 5, 20, 80, 200):
        for macro_degree in sorted({1, min(n, 3), min(n, 8), n}):
            for max_children in (0, 1, 2, 3):
                if max_children == 0 and macro_degree < n:
                    continue  # nowhere to attach: rejected by the config check
                for seed in (0, 1, 2):
                    topo = generate_topology(GeneratorConfig(
                        seed=seed, num_small_bs=n, macro_degree=macro_degree,
                        max_small_children=max_children, interference_pair_budget=n // 3,
                    ))
                    for t in (topo, strip_interference(topo)):
                        assert adapt_topology(t, er).stations == t.stations
