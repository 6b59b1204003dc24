"""Violation detection on tampered schedules, plus the fairness index."""

import copy
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from backhaulopt import validator
from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS
from backhaulopt.errors import AllZeroDemands
from backhaulopt.formulations import (
    DemandSolution,
    Interference,
    Objective,
    _p_last,
    parse_setting,
    solution_to_dict,
    solve_equal_demand,
)
from backhaulopt.generator import (
    GeneratorConfig,
    adapt_topology,
    generate_topology,
    strip_interference,
)
from backhaulopt.model import make_link
from backhaulopt.scheduler import LinkSchedule, Schedule, build_schedule, schedule_to_dict
from backhaulopt.validator import derived_field_violations, jain_index, validate_schedule


def _solved(topo, setting_name="MI-ER"):
    sol = solve_equal_demand(topo, parse_setting(setting_name)[0])
    return sol, build_schedule(topo, sol.p_first)


def _kinds(report):
    return {v.kind for v in report.violations}


def test_clean_schedule_reports_ok():
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
    assert report.ok
    assert report.realized_equal_demand == pytest.approx(sol.d_b_gbps, abs=1e-9)
    assert report.realized_rates[1] == pytest.approx(6.65, abs=1e-6)


def test_footprint_tamper_detected():
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    s, e = bad.links[1].footprint[0]
    bad.links[1].footprint[0] = (s, e - 0.05)
    report = validate_schedule(topo, bad, p_first=sol.p_first)
    assert "FootprintMismatch" in _kinds(report)


def test_active_outside_footprint_detected():
    topo = helpers.star(2, hop=2)
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    chain, s, e = bad.links[1].parent_side[0]
    shift = 0.9 - s
    bad.links[1].parent_side[0] = (chain, s + shift, e + shift)
    report = validate_schedule(topo, bad)
    assert "ActiveOutsideFootprint" in _kinds(report)


def test_chain_overlap_detected():
    topo = helpers.star(2, hop=1, chains={0: 1})
    sol, sched = _solved(topo, "MI-LR")
    bad = copy.deepcopy(sched)
    other = bad.links[2].parent_side[0]
    # drop link 2 onto link 1's slot on the same macro chain
    bad.links[2].parent_side[0] = bad.links[1].parent_side[0]
    bad.links[2].footprint = [tuple(bad.links[1].footprint[0])]
    bad.links[2].child_side = [bad.links[1].child_side[0]]
    report = validate_schedule(topo, bad)
    assert "ChainOverlap" in _kinds(report)
    assert other not in bad.links[2].parent_side


def _details(report):
    return [v.detail for v in report.violations]


def test_pieces_counted_twice_are_detected():
    # a repeated piece merges away, so the given total exceeds the merged one
    topo = helpers.star(2, hop=1)
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    bad.links[1].footprint = bad.links[1].footprint * 2
    chain, s, e = bad.links[2].parent_side[0]
    bad.links[2].parent_side.append((1 - chain, s, e))
    details = _details(validate_schedule(topo, bad))
    assert "link 1 footprint intervals overlap" in details
    assert "link 2 first link transmits on two chains at once" in details


def test_bad_chain_index_detected():
    topo = helpers.star(2, hop=1)
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    _, s, e = bad.links[1].parent_side[0]
    bad.links[1].parent_side[0] = (7, s, e)
    report = validate_schedule(topo, bad)
    assert "ChainOverlap" in _kinds(report)


def test_endpoint_overlap_detected():
    topo = helpers.chain(hops=(2,))
    sched = build_schedule(topo, {1: 0.5})
    bad = copy.deepcopy(sched)
    bad.links[1].child_side = list(bad.links[1].parent_side)  # relay can't do both
    report = validate_schedule(topo, bad)
    assert "EndpointOverlap" in _kinds(report)


def test_interference_overlap_detected():
    topo = helpers.star(2, hop=2, pairs=[(1, 2)])
    sol, sched = _solved(topo, "LI-ER")
    bad = copy.deepcopy(sched)
    bad.links[2] = copy.deepcopy(bad.links[1])  # identical timing on a partner
    report = validate_schedule(topo, bad)
    assert "InterferenceOverlap" in _kinds(report)


def test_ratio_tamper_detected():
    topo = helpers.chain(hops=(2,))
    sched = build_schedule(topo, {1: 0.4})
    bad = copy.deepcopy(sched)
    chain, s, e = bad.links[1].child_side[0]
    bad.links[1].child_side[0] = (chain, s, e - 0.1)  # last link shortchanged
    report = validate_schedule(topo, bad)
    assert "RatioMismatch" in _kinds(report)


def test_solution_disagreement_detected():
    topo = helpers.star(2, hop=1)
    sol, sched = _solved(topo)
    report = validate_schedule(topo, sched, p_first={1: 0.3, 2: sol.p_first[2]})
    assert "RatioMismatch" in _kinds(report)


def test_capacity_shortfall_detected():
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    doubled = {b: 2 * v for b, v in sol.per_bs.items()}
    report = validate_schedule(topo, sched, demands=doubled)
    assert "CapacityShortfall" in _kinds(report)


def test_solution_p_last_checked_against_p_first():
    topo = helpers.chain(hops=(2, 1))
    sol, _ = _solved(topo)
    assert derived_field_violations(topo, sol, {}) == []
    off = copy.deepcopy(sol)
    off.p_last[1] += 1e-8
    (found,) = derived_field_violations(topo, off, {})
    assert found.kind == "RatioMismatch"
    assert "last-link fraction" in found.detail
    off.p_last = dict.fromkeys(sol.p_last, float("nan"))
    assert {v.kind for v in derived_field_violations(topo, off, {})} == {"RatioMismatch"}
    # a missing p_first entry reads 0, so its link's p_last must be 0 as well
    partial = copy.deepcopy(sol)
    del partial.p_first[1]
    (found,) = derived_field_violations(topo, partial, {})
    assert found.detail.startswith("link 1 ")
    partial.p_last[1] = 0.0
    assert derived_field_violations(topo, partial, {}) == []


def _lines(found):
    return [str(v) for v in found]


def test_overclaimed_equal_demand_detected():
    # d_b_gbps is every small BS's per_bs, so an over- or under-claim is a
    # mismatch, and so is any claim but 0 over an emptied per_bs
    topo = helpers.chain(hops=(2, 1))
    sol, _ = _solved(topo)
    for claim in (sol.d_b_gbps + 1e-5, 1e6, float("nan"), sol.d_b_gbps * (1 - 1e-6), 0.0):
        over = copy.deepcopy(sol)
        over.d_b_gbps = claim
        (found,) = _lines(derived_field_violations(topo, over, {}))
        assert found.startswith(f"DerivedFieldMismatch(d_b_gbps claims {claim:.12g} "), found
    within = copy.deepcopy(sol)
    within.d_b_gbps *= 1 + 1e-12
    assert derived_field_violations(topo, within, {}) == []
    empty = copy.deepcopy(sol)
    empty.per_bs = {}
    empty.d_b_gbps = 1e6
    (found,) = _lines(derived_field_violations(topo, empty, {}))
    assert found == "DerivedFieldMismatch(d_b_gbps claims 1000000 but per_bs[B1] is 0)"
    empty.d_b_gbps = None  # a null d_b_gbps is no claim
    assert derived_field_violations(topo, empty, {}) == []


def test_fair_floor_bounds_every_small_bs_demand():
    topo = helpers.chain(hops=(2, 1))
    sol, _ = _solved(topo)
    low = min(sol.per_bs.values())
    for floor, ok in ((None, True), (0.0, True), (low, True), (low * (1 + 1e-12), True),
                      (low * (1 + 1e-6), False), (1e6, False), (float("nan"), False)):
        claimed = copy.deepcopy(sol)
        claimed.fair_floor_gbps = floor
        found = _lines(derived_field_violations(topo, claimed, {}))
        assert found == ([] if ok else [
            f"DerivedFieldMismatch(fair_floor_gbps claims {floor:.12g} but per_bs[B1] is "
            f"{sol.per_bs[1]:.12g})"]), floor
    # a BS the file leaves out demands 0, which is below any positive floor
    claimed.fair_floor_gbps, claimed.d_b_gbps = low, None
    del claimed.per_bs[2]
    (found,) = _lines(derived_field_violations(topo, claimed, {}))
    assert "fair_floor_gbps" in found and "per_bs[B2] is 0" in found


def test_missing_and_unknown_links_reported():
    topo = helpers.star(2, hop=1)
    report = validate_schedule(topo, Schedule(links={}))
    assert _kinds(report) == {"MissingLink"}
    sol, sched = _solved(topo)
    extra = copy.deepcopy(sched)
    stray = copy.deepcopy(extra.links[1])
    extra.links[9] = stray
    report = validate_schedule(topo, extra)
    assert "UnknownLink" in _kinds(report)


def test_report_collects_multiple_violations():
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    del bad.links[2]
    s, e = bad.links[1].footprint[0]
    bad.links[1].footprint[0] = (s, e - 0.3)
    report = validate_schedule(topo, bad)
    assert len(report.violations) >= 2


def test_nan_intervals_are_flagged():
    # every comparison against NaN is False, so NaN must be rejected outright
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    nan = float("nan")
    for entry in bad.links.values():
        entry.footprint = [(nan, nan) for _ in entry.footprint]
        entry.parent_side = [(c, nan, nan) for c, _, _ in entry.parent_side]
        entry.child_side = [(c, nan, nan) for c, _, _ in entry.child_side]
    report = validate_schedule(topo, bad, p_first=sol.p_first, demands=sol.per_bs)
    assert not report.ok
    assert {"FootprintMismatch", "ActiveOutsideFootprint"} <= _kinds(report)


# two mutated endpoints: lengths whose float sum overflows, and lengths of
# +inf and -inf; math.fsum raises on both
HUGE = [[(0.0, 1e308), (0.0, 1e308)], [(-1e308, 1e308), (1e308, -1e308)]]


@pytest.mark.parametrize("side", ["footprint", "parent_side", "child_side"])
@pytest.mark.parametrize("pieces", HUGE)
def test_huge_finite_intervals_are_flagged(side, pieces):
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    entry = bad.links[1]
    if side == "footprint":
        entry.footprint = list(pieces)
    else:
        setattr(entry, side, [(0, s, e) for s, e in pieces])
    report = validate_schedule(topo, bad, p_first=sol.p_first, demands=sol.per_bs)
    kind = "FootprintMismatch" if side == "footprint" else "ActiveOutsideFootprint"
    assert kind in _kinds(report)


@pytest.mark.parametrize("side", ["footprint", "parent_side", "child_side"])
def test_huge_interval_totals_print_in_bounded_width(side):
    # a fixed-point total of 1e308 would print as a 309-digit decimal
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    bad = copy.deepcopy(sched)
    entry = bad.links[1]
    if side == "footprint":
        entry.footprint = list(HUGE[0])
    else:
        setattr(entry, side, [(0, s, e) for s, e in HUGE[0]])
    report = validate_schedule(topo, bad, p_first=sol.p_first, demands=sol.per_bs)
    lines = [str(v) for v in report.violations]
    assert any("FootprintMismatch" in line or "RatioMismatch" in line for line in lines)
    assert all(len(line) < 200 for line in lines), max(lines, key=len)


def _same(a, b):
    # repr tells NaN from NaN-free values and -0.0 from 0.0
    return repr(a) == repr(b)


SPECIAL = [0.0, -0.0, 0.25, 1.0, math.nan, math.inf, -math.inf, 1e308, -1e308]


def test_one_piece_paths_match_the_references():
    # NaN, signed zeros, infinities and reversed pieces, one piece at a time
    pieces = list(itertools.product(SPECIAL, repeat=2))
    for piece in pieces:
        assert _same(validator._merge([piece]), oracles.merged([piece])), piece
        assert _same(validator._total([piece]), oracles.interval_total([piece])), piece
    for a, b in itertools.product(pieces, repeat=2):
        got = validator._overlap([a], [b])
        assert _same(got, oracles.interval_overlap([a], [b])), (a, b)


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(intervals=st.lists(st.tuples(FLOATS, FLOATS), max_size=4))
def test_total_never_raises_and_ignores_order(intervals):
    # where math.fsum takes the sum, the total is fsum's; where it raises
    # (inf + -inf, or a running sum past the float range), the total is
    # still one number, whatever the order of the pieces
    got = validator._total(intervals)
    for order in itertools.permutations(intervals):
        assert _same(validator._total(list(order)), got)
        try:
            want = oracles.interval_total(order)
        except (OverflowError, ValueError):
            continue
        assert _same(got, want)


def test_total_past_fsum_rounds_the_exact_sum():
    # fsum overflows on the running sum 1e308 + 1e308 before it sees -1e308
    assert validator._total([(0.0, 1e308), (0.0, 1e308), (1e308, 0.0)]) == 1e308
    assert validator._total([(0.0, 1e308), (0.0, 1e308)]) == math.inf
    assert validator._total([(1e308, 0.0), (1e308, 0.0)]) == -math.inf
    assert math.isnan(validator._total([(-1e308, 1e308), (1e308, -1e308)]))


# frame-sized endpoints, so pieces overlap, touch and reverse, mixed with
# NaN, signed zeros, infinities and huge values
ENDPOINTS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 1.5]) | st.floats(-0.5, 1.5) | FLOATS


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(intervals=st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=6))
def test_measure_matches_the_separate_passes(intervals):
    merged, total, raw, bad = validator._measure(intervals)
    want = oracles.validator_merge(intervals)
    assert _same(merged, want)
    assert _same(total, oracles.validator_total(want))
    # a merge that dropped and joined nothing only reordered the pieces
    assert _same(raw, oracles.validator_total(intervals))
    assert bad == oracles.validator_bad_geometry(intervals)


# frame values, so pieces touch, nest and share ends, mixed with signed zeros,
# infinities, huge values and NaN, which decide max, min and which list moves on
OVERLAP_ENDS = st.sampled_from([
    0.0, -0.0, 0.25, 0.5, 0.75, 1.0, math.inf, -math.inf, 1e308, -1e308, math.nan,
]) | st.floats(-0.5, 1.5)
MERGED_LIST = st.lists(st.tuples(OVERLAP_ENDS, OVERLAP_ENDS), max_size=4).map(validator._merge)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(a=MERGED_LIST, b=MERGED_LIST)
def test_overlap_matches_the_former_loop(a, b):
    # one loop with max and min by comparisons gives the former loop's total
    # to the bit, its 1x1 branch's too, NaN ends and signed zeros included
    assert _same(validator._overlap(a, b), oracles.validator_overlap(a, b)), (a, b)


# a 1-hop and a 2-hop link from the macro, interfering with each other
ONE_PIECE_TOPOLOGY = helpers.topology([
    make_link(1, 0, 1, 1, phy_rate_gbps=helpers.RATE),
    make_link(2, 0, 2, 2, capacity_gbps=2.0, p_first_max=0.5, p_last_max=0.5),
], pairs=[(1, 2)])


def _one_piece_and_general(lists, chain, p_first):
    """The reports on one-piece lists, and on the same lists with an empty
    piece inside the frame added to each: that sends every list through
    _measure's general path in place of its one-piece case and changes
    nothing they report, as the merge drops it and its zero length adds
    nothing to a total or a chain's shared time."""

    def report(extra):
        links = {}
        for lid, (fp, parent, child) in zip((1, 2), (lists[:3], lists[3:])):
            c = chain if lid == 2 else 0
            links[lid] = LinkSchedule(
                [fp, *extra],
                [(c, *parent), *[(c, *piece) for piece in extra]],
                [(0, *child), *[(0, *piece) for piece in extra]],
            )
        r = validate_schedule(ONE_PIECE_TOPOLOGY, Schedule(links), p_first=p_first,
                              demands=None if p_first is None else {1: 1.0, 2: 0.5})
        return [str(v) for v in r.violations], repr(r.realized_rates), repr(r.realized_equal_demand)

    return report([]), report([(0.5, 0.5)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    lists=st.lists(st.tuples(ENDPOINTS, ENDPOINTS), min_size=6, max_size=6),
    chain=st.sampled_from([0, 1]),
    p_first=st.none() | st.fixed_dictionaries({1: ENDPOINTS, 2: ENDPOINTS}),
)
def test_one_piece_lists_judge_as_through_measure_and_overlap(lists, chain, p_first):
    # _measure judges a one-piece footprint or side by its one-piece case:
    # totals, coverage and geometry verdicts, so every report, are those its
    # general path gives
    one, general = _one_piece_and_general(lists, chain, p_first)
    assert one == general


def test_one_piece_lists_judge_every_kind_of_piece_as_the_general_path():
    # _measure's one-piece case against its general path, with every
    # footprint, parent side and child side of link 1 drawn from finite,
    # NaN, infinite, reversed, empty and out-of-frame pieces
    cases = [(0.1, 0.4), (math.nan, 0.3), (0.2, math.nan), (-math.inf, math.inf),
             (0.0, math.inf), (0.6, 0.2), (0.3, 0.3), (-0.5, 0.2), (0.9, 1.5),
             (1e308, -1e308), (-0.0, 0.0)]
    link_2 = [(0.0, 0.5), (0.0, 0.25), (0.25, 0.5)]
    for lists in itertools.product(cases, repeat=3):
        one, general = _one_piece_and_general([*lists, *link_2], 1, {1: 0.3, 2: 0.25})
        assert one == general, lists


# two BSs where several claims meet on one chain: the macro's chain 0 and 1
# carry the parent sides of links 1-3, B1's carry link 1's child side and the
# parent sides of links 4 and 5; chain 2 exists at neither
CHAIN_TOPOLOGY = helpers.topology([
    make_link(1, 0, 1, 1), make_link(2, 0, 2, 1), make_link(3, 0, 3, 2),
    make_link(4, 1, 4, 1), make_link(5, 1, 5, 3),
], chains={0: 2, 1: 2})


def _double_drives(sides):
    """validate_schedule's double-driven chain lines, and the reference's,
    for links 1-5 with these (parent side, child side) pairs."""
    schedule = Schedule({lid: LinkSchedule([], parent, child)
                         for lid, (parent, child) in zip(range(1, 6), sides)})
    got = [str(v) for v in validate_schedule(CHAIN_TOPOLOGY, schedule).violations
           if v.kind == "ChainOverlap" and "double-driven" in v.detail]
    return got, oracles.validator_double_drives(CHAIN_TOPOLOGY, schedule)


# frame grid points, so pieces touch, nest, overlap, repeat, empty and
# reverse, with the tolerance's edges, out-of-frame values, NaN and infinities
CLAIM_ENDS = st.sampled_from([
    0.0, -0.0, 0.125, 0.25, 0.5, 0.75, 1.0, -1e-9, 1 + 1e-9, -2e-9, 1 + 2e-9,
    -0.5, 1.5, math.nan, math.inf, -math.inf,
]) | st.floats(-0.1, 1.1)
CLAIM_SIDE = st.lists(st.tuples(st.sampled_from([0, 0, 1, 2]), CLAIM_ENDS, CLAIM_ENDS), max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sides=st.lists(st.tuples(CLAIM_SIDE, CLAIM_SIDE), min_size=5, max_size=5))
def test_chain_sweep_reports_as_merging_every_chain(sides):
    # the sweep skips only chains whose claims share no time: every line,
    # spare, owner list and order is the one the per-chain merge gives
    got, want = _double_drives(sides)
    assert got == want


def test_chain_sweep_on_pieces_that_take_turns():
    # pieces cut from one frame at random points touch end to start and share
    # no time, but a nudge of an ulp, half the tolerance, twice it or 1e-6
    # makes two of them overlap or leave a gap; a repeated, empty, reversed
    # or out-of-frame piece, or one with a NaN end, joins some cases.
    # Dealt in random order onto the macro's chain 0 and B1's chain 1
    rng = random.Random(2)
    nudges = [0.0, 5e-10, 2e-9, 1e-6]
    extras = [None, "repeat", (0.3, 0.3), (0.6, 0.2), (-0.5, 0.1), (0.9, 1.5), (math.nan, 0.4)]
    reported = silent = 0
    for _ in range(3000):
        edges = sorted(rng.random() for _ in range(rng.randint(1, 8)))
        edges = [rng.choice([0.0, -1e-9, -2e-9]), *edges, rng.choice([1.0, 1 + 1e-9, 1 + 2e-9])]
        if rng.random() < 0.5:
            k = rng.randrange(len(edges))
            nudge = rng.choice(nudges) or edges[k] - math.nextafter(edges[k], -math.inf)
            edges[k] += rng.choice([-nudge, nudge])
        pieces = list(zip(edges, edges[1:]))
        extra = rng.choice(extras)
        if extra == "repeat":
            pieces.append(rng.choice(pieces))
        elif extra is not None:
            pieces.append(extra)
        rng.shuffle(pieces)
        sides = [([], []) for _ in range(5)]
        for s, e in pieces:
            lid = rng.choice([1, 2, 3, 4, 5])
            if lid == 1 and rng.random() < 0.5:
                sides[0][1].append((1, s, e))  # link 1's child side at B1
            else:
                sides[lid - 1][0].append((0 if lid <= 3 else 1, s, e))
        got, want = _double_drives(sides)
        assert got == want, pieces
        reported += bool(want)
        silent += not want
    # both outcomes are common, so both the skip and the merge are checked
    assert reported > 500 and silent > 500


def test_nan_solution_is_flagged():
    # a NaN p_first or demand must fail its check, not slip past a `>` test
    topo = helpers.chain(hops=(2, 1))
    sol, sched = _solved(topo)
    nan = float("nan")
    p_first, demands = dict.fromkeys(sol.p_first, nan), dict.fromkeys(sol.per_bs, nan)
    report = validate_schedule(topo, sched, p_first=p_first, demands=demands)
    assert {"RatioMismatch", "CapacityShortfall"} <= _kinds(report)


def test_shortfall_on_a_slow_link_is_flagged():
    # one link of about 1e-9 Gbps that runs half the frame its demand needs:
    # the shortfall is far below 1e-6 Gbps, but half a frame is not
    topo = helpers.star(1, hop=1, rate=1e-9)
    sol = solve_equal_demand(topo, parse_setting("MI-ER")[0])
    sched = build_schedule(topo, {1: sol.p_first[1] / 2})
    assert validate_schedule(topo, sched).ok
    report = validate_schedule(topo, sched, demands=sol.per_bs)
    assert _kinds(report) == {"CapacityShortfall"}
    assert len(report.violations) == 1


def test_equal_demand_verdicts_do_not_depend_on_the_unit_of_rate():
    # the closed form and the scheduler work in frame time, so scaling the
    # rate by 2^k scales d_b and the realized demand exactly, keeps the
    # schedule bytes and must keep the verdict
    failed, cases = [], 0
    for setting_name, n in itertools.product(("MI-ER", "LI-ER", "LI-LR(2)"), (20, 200)):
        setting, macro_chains = parse_setting(setting_name)
        seen = {}
        for k in range(-30, 31):
            topo = generate_topology(
                GeneratorConfig(
                    seed=1,
                    num_small_bs=n,
                    interference_pair_budget=n // 3,
                    phy_rate_gbps=math.ldexp(DEFAULT_PHY_RATE_GBPS, k),
                )
            )
            if setting.interference is Interference.MINIMAL:
                topo = strip_interference(topo)
            if macro_chains is not None:
                topo = adapt_topology(topo, setting, macro_chains=macro_chains)
            sol = solve_equal_demand(topo, setting)
            sched = build_schedule(topo, sol.p_first)
            report = validate_schedule(topo, sched, p_first=sol.p_first, demands=sol.per_bs)
            claims = derived_field_violations(topo, sol, solution_to_dict(topo, sol))
            got = {
                "d_b": float.hex(math.ldexp(sol.d_b_gbps, -k)),
                "realized": float.hex(math.ldexp(report.realized_equal_demand, -k)),
                "schedule": json.dumps(schedule_to_dict(sched), sort_keys=True),
                "ok": report.ok and not claims,
            }
            if not seen:  # the first case is the reference, and every case passes
                seen = {**got, "ok": True}
            moved = sorted(key for key in got if got[key] != seen[key])
            cases += 1
            if moved:
                failed.append((setting_name, n, k, moved))
    assert cases == 366
    assert not failed, f"{len(failed)} of {cases} cases moved: {failed[:5]}"


def test_jain_index_values():
    assert jain_index([1.0, 1.0, 1.0, 1.0]) == 1.0  # exact, not approx
    assert jain_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)
    assert jain_index([2.0, 1.0]) == pytest.approx(0.9, abs=1e-12)
    assert jain_index({1: 3.3, 2: 3.3, 3: 3.3}) == 1.0
    with pytest.raises(AllZeroDemands):
        jain_index([])
    with pytest.raises(AllZeroDemands):
        jain_index([0.0, 0.0])


def test_derived_fields_are_recomputed_from_the_solution():
    topo = helpers.chain(hops=(2, 1))
    sol, _ = _solved(topo)
    data = solution_to_dict(topo, sol)
    assert derived_field_violations(topo, sol, data) == []
    assert derived_field_violations(topo, sol, {}) == []  # an absent field is no claim
    # within the relative tolerance of a reordered sum, and past it
    near = {"aggregate_gbps": data["aggregate_gbps"] * (1 + 1e-12)}
    assert derived_field_violations(topo, sol, near) == []
    far = {"aggregate_gbps": data["aggregate_gbps"] * (1 + 1e-6)}
    (found,) = derived_field_violations(topo, sol, far)
    assert found.kind == "DerivedFieldMismatch"
    # no Jain index exists for all-zero demands, so none may be claimed
    zero = copy.deepcopy(sol)
    zero.per_bs = dict.fromkeys(sol.per_bs, 0.0)
    zero.d_b_gbps = 0.0
    (found,) = derived_field_violations(topo, zero, {"jain_index": 1.0})
    assert found.detail == "jain_index claims 1 but is nan"
    # a missing p_first entry reads 0, so its link needs no chain time
    partial = copy.deepcopy(sol)
    del partial.p_first[1]
    partial.p_last[1] = 0.0
    chains = {"min_radio_chains": {str(b): 1 for b in (0, 1, 2)}}
    assert derived_field_violations(topo, partial, chains) == []


def test_chain_time_past_the_float_range_claims_no_count():
    # two huge fractions at the macro sum past the float range: no count
    # covers that, so every claimed count is a mismatch, not an OverflowError
    topo = helpers.star(2, hop=1)
    sol, _ = _solved(topo)
    huge = copy.deepcopy(sol)
    huge.p_first = dict.fromkeys(sol.p_first, 1e308)
    huge.p_last = _p_last(topo, huge.p_first)
    chains = {"min_radio_chains": {str(b): 1 for b in (0, 1, 2)}}
    assert _lines(derived_field_violations(topo, huge, chains)) == [
        f"DerivedFieldMismatch(min_radio_chains[B{b}] claims 1 but is nothing)" for b in (0, 1, 2)
    ]


# -- each threshold, just past it and just inside it ---------------------------
# Every TOL_INTERVAL comparison of validate_schedule and derived_field_violations
# meets a tamper of twice its threshold, which is reported, and one of half
# of it, which is not. The base case is two 2-hop links from the macro, each
# at p_f = 0.2: a footprint of 0.4 of the frame, first link then last link,
# with slack around each so a tamper moves one comparison only.

TOL = validator.TOL_INTERVAL
_BASE = {
    1: ([(0.0, 0.4)], [(0, 0.0, 0.2)], [(0, 0.2, 0.4)]),
    2: ([(0.5, 0.9)], [(0, 0.5, 0.7)], [(0, 0.7, 0.9)]),
}
_CAPACITY = helpers.RATE / 2  # of a 2-hop link


def _shifted(lid, d):
    """Link lid's base schedule, every piece moved by d."""
    footprint, parent, child = _BASE[lid]
    return (
        [(s + d, e + d) for s, e in footprint],
        [(c, s + d, e + d) for c, s, e in parent],
        [(c, s + d, e + d) for c, s, e in child],
    )


def _split_footprint(entry):
    """The same schedule with its one footprint piece cut in two at its middle."""
    ((s, e),), parent, child = entry
    return [(s, (s + e) / 2), ((s + e) / 2, e)], parent, child


# name: (tamper by eps of the frame -> (changed links, validate keywords,
# interference pairs), detail reported past the threshold)
_SCHEDULE_THRESHOLDS = {
    "frame_start_one_piece": (
        lambda eps: ({1: _shifted(1, -eps)}, {}, ()), "link 1 footprint leaves the frame"),
    "frame_start_two_pieces": (
        lambda eps: ({1: _split_footprint(_shifted(1, -eps))}, {}, ()),
        "link 1 footprint leaves the frame"),
    "frame_end_one_piece": (
        lambda eps: ({2: _shifted(2, 0.1 + eps)}, {}, ()), "link 2 footprint leaves the frame"),
    "frame_end_two_pieces": (
        lambda eps: ({2: _split_footprint(_shifted(2, 0.1 + eps))}, {}, ()),
        "link 2 footprint leaves the frame"),
    "reversed_piece": (
        lambda eps: ({1: ([(0.0, 0.4), (0.3, 0.3 - eps)], *_BASE[1][1:])}, {}, ()),
        "link 1 footprint leaves the frame"),
    "reversed_lone_piece": (
        lambda eps: ({1: ([(0.3, 0.3 - eps)], [], [])}, {}, ()),
        "link 1 footprint leaves the frame"),
    "footprint_self_overlap": (
        lambda eps: ({1: ([(0.0, 0.2 + eps), (0.2, 0.4)], *_BASE[1][1:])}, {}, ()),
        "link 1 footprint intervals overlap"),
    "footprint_against_duty": (
        lambda eps: ({1: ([(0.0, 0.4 + eps)], *_BASE[1][1:])}, {}, ()),
        "link 1 footprint 0.4"),
    "active_outside_footprint": (
        lambda eps: ({1: (*_BASE[1][:2], [(0, 0.2 + eps, 0.4 + eps)])}, {}, ()),
        "link 1 last link transmits"),
    "one_side_on_two_chains": (
        lambda eps: ({1: (_BASE[1][0], [(0, 0.0, 0.1 + eps), (1, 0.1, 0.2 - eps)],
                          _BASE[1][2])}, {}, ()),
        "link 1 first link transmits on two chains at once"),
    "endpoint_overlap": (
        lambda eps: ({1: (*_BASE[1][:2], [(0, 0.2 - eps, 0.4 - eps)])}, {}, ()),
        "link 1 first and last links overlap"),
    # the ratio threshold is 2 * TOL_INTERVAL, and this tamper moves the
    # compared shares by 2 * eps
    "first_last_ratio": (
        lambda eps: ({1: (*_BASE[1][:2], [(0, 0.2, 0.4 - eps)])}, {}, ()),
        "link 1 first/last active times"),
    "p_first_pin": (
        lambda eps: ({}, {"p_first": {1: 0.2 + eps, 2: 0.2}}, ()),
        "link 1 first-link active"),
    "double_drive": (
        lambda eps: ({2: _shifted(2, -0.3 - eps)}, {}, ()),
        "chain 0 at B0 is double-driven"),
    "interference_overlap": (
        lambda eps: ({2: _shifted(2, -0.1 - eps)}, {}, [(1, 2)]),
        "interfering links 1 and 2 overlap"),
    "capacity_shortfall": (
        lambda eps: ({}, {"demands": {1: (0.4 + eps) * _CAPACITY, 2: 0.0}}, ()),
        "link 1 realizes"),
}


def _threshold_report(tamper, eps):
    links, kwargs, pairs = tamper(eps)
    topo = helpers.star(2, hop=2, pairs=pairs)
    schedule = Schedule(links={
        lid: LinkSchedule(*links.get(lid, _BASE[lid])) for lid in sorted(_BASE)
    })
    return _details(validate_schedule(topo, schedule, **kwargs))


def test_threshold_base_case_is_clean():
    tight = {"p_first": {1: 0.2, 2: 0.2}, "demands": {1: 0.4 * _CAPACITY, 2: 0.4 * _CAPACITY}}
    assert _threshold_report(lambda eps: ({}, tight, [(1, 2)]), 0.0) == []
    assert helpers.star(2, hop=2).link(1).capacity_gbps == _CAPACITY


@pytest.mark.parametrize("name", list(_SCHEDULE_THRESHOLDS))
def test_schedule_threshold_reports_past_it_and_not_inside_it(name):
    tamper, detail = _SCHEDULE_THRESHOLDS[name]
    past = _threshold_report(tamper, 2 * TOL)
    assert any(d.startswith(detail) for d in past), past
    assert _threshold_report(tamper, 0.5 * TOL) == []


def test_a_chain_index_equal_to_the_chain_count_is_reported():
    # the macro has two chains and each small BS one
    topo = helpers.star(2, hop=2)
    for side, chains in ((1, 2), (2, 1)):
        for chain in (chains, chains - 1):
            entry = list(_BASE[1])
            entry[side] = [(chain, s, e) for _, s, e in entry[side]]
            schedule = Schedule(links={1: LinkSchedule(*entry), 2: LinkSchedule(*_BASE[2])})
            details = _details(validate_schedule(topo, schedule))
            if chain == chains:
                label, bs = ("first link", 0) if side == 1 else ("last link", 1)
                assert details == [f"link 1 {label} uses chain {chain} at B{bs} "
                                   f"which has {chains} radio chains"]
            else:
                assert details == []


# name: (tamper by a relative eps -> (solution changes, solution file claims),
# detail reported past the threshold); per_bs is 2.0 at both small BSs
_DERIVED_THRESHOLDS = {
    "p_last": (lambda eps: ({"p_last": {1: 0.2 + eps, 2: 0.2}}, {}),
               "link 1 solution last-link fraction"),
    "d_b_gbps": (lambda eps: ({"d_b_gbps": 2.0 * (1 + eps)}, {}), "d_b_gbps claims"),
    "fair_floor_gbps": (lambda eps: ({"fair_floor_gbps": 2.0 * (1 + eps)}, {}),
                        "fair_floor_gbps claims"),
    "aggregate_gbps": (lambda eps: ({}, {"aggregate_gbps": 4.0 * (1 + eps)}),
                       "aggregate_gbps claims"),
    "jain_index": (lambda eps: ({}, {"jain_index": 1.0 + eps}), "jain_index claims"),
}


_SOLUTION = {"per_bs": {1: 2.0, 2: 2.0}, "p_first": {1: 0.2, 2: 0.2},
             "p_last": {1: 0.2, 2: 0.2}, "d_b_gbps": 2.0, "fair_floor_gbps": 2.0}


def _derived_details(tamper, eps):
    changes, data = tamper(eps)
    sol = DemandSolution(Objective.EQUAL_DEMAND, **{**_SOLUTION, **changes})
    return [v.detail for v in derived_field_violations(helpers.star(2, hop=2), sol, data)]


@pytest.mark.parametrize("name", list(_DERIVED_THRESHOLDS))
def test_derived_threshold_reports_past_it_and_not_inside_it(name):
    tamper, detail = _DERIVED_THRESHOLDS[name]
    assert _derived_details(lambda eps: ({}, {}), 0.0) == []
    past = _derived_details(tamper, 2 * TOL)
    assert any(d.startswith(detail) for d in past), past
    assert _derived_details(tamper, 0.5 * TOL) == []
