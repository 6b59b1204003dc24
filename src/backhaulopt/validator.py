"""Schedule feasibility checking and the check of a solution file's claims.

The checks here recompute everything from the per-link interval lists. A
report carries every violation found rather than stopping at the first, so a
tampered schedule yields a full diagnosis.

Violation kinds:

* FootprintMismatch: footprint intervals malformed, or their total length
  does not match parent active time scaled by the first-link duty bound.
* ActiveOutsideFootprint: an active interval is malformed or not contained
  in the link's footprint.
* ChainOverlap: a radio chain is driven by two transmissions at once, a
  chain index does not exist at that BS, or one link transmits on two
  chains at the same time.
* EndpointOverlap: a relayed link's first and last physical links transmit
  simultaneously (impossible for a store-and-forward pipeline).
* InterferenceOverlap: two interfering links have overlapping footprints.
* RatioMismatch: first- and last-link active times are inconsistent with
  each other, or with the p_first values being validated against, or a
  solution's p_last does not follow from its p_first.
* CapacityShortfall: the realized link rate cannot carry the demand routed
  through it.
* MissingLink / UnknownLink / UnknownBS: schedule entries absent for a
  topology link or present for a nonexistent one; solution p_first or
  p_last entries for a nonexistent link, or per_bs ones for no small BS.
* DerivedFieldMismatch: a solution file's d_b_gbps, fair_floor_gbps,
  aggregate_gbps, jain_index or min_radio_chains disagrees with its per_bs
  and p_first (derived_field_violations, which also judges p_last).

Every comparison of the schedule is in frame time at TOL_INTERVAL, rates
too: a link that carries D Gbps at capacity C must run D/C of the frame.

Every footprint and side is measured by _measure, which judges a one-piece
list, the common case, by a few comparisons and every other list in one
pass; every coverage, cross and interference intersection is taken by
_overlap. The chain double-drive check sweeps each chain's sorted claims
once, and measures only the chains where that sweep finds shared time or a
piece that is empty or outside the frame.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from backhaulopt.errors import AllZeroDemands, InvalidTopology, NonFiniteInput
from backhaulopt.formulations import DemandSolution, _p_last, jain_index, min_radio_chains
from backhaulopt.model import (TOL_INTERVAL, NetworkTopology, Violation, float_sum, json_float,
                               json_int, json_map, schema)
from backhaulopt.model import subtree_bs_set  # noqa: F401 (perfbench wraps it)
from backhaulopt.scheduler import Schedule

Interval = tuple[float, float]


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    realized_rates: dict[int, float] = field(default_factory=dict)
    realized_equal_demand: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _merge(intervals: list[Interval]) -> list[Interval]:
    """Sorted disjoint union; adjacent pieces join, empty and reversed ones
    drop out, and a NaN piece stays. It has fewer pieces than the input
    exactly when some piece was dropped or joined."""
    out: list[Interval] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _total(intervals: list[Interval]) -> float:
    """Summed length as math.fsum rounds it, which does not depend on order.

    fsum raises on inf + -inf, and on finite lengths whose running sum
    leaves the float range, depending on their order; both take pieces far
    outside the frame. There the total is the IEEE sum of the infinite
    lengths, or the exact sum of the finite ones rounded, ±inf past the
    float range.
    """
    lengths = [e - s for s, e in intervals]
    try:
        return math.fsum(lengths)
    except (OverflowError, ValueError):
        pass
    infinite = [x for x in lengths if not math.isfinite(x)]
    if infinite:
        return sum(infinite)
    from fractions import Fraction  # here only: it imports decimal, 0.3 MiB per process

    exact = sum(map(Fraction, lengths))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _overlap(a: list[Interval], b: list[Interval]) -> float:
    """Total measure of the intersection of two merged lists. Each step meets
    one piece of each list, takes max and min by comparisons, so a NaN end
    gives no overlap, and moves past the piece that ends first (b's, when an
    end is NaN)."""
    out = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        s, e = a[i]
        t, f = b[j]
        lo = t if t > s else s
        hi = f if f < e else e
        if lo < hi:
            out += hi - lo
        if e <= f:
            i += 1
        else:
            j += 1
    return out


def _bad_geometry(intervals: list[Interval]) -> bool:
    """Whether some interval is reversed, leaves the frame or is not a number.

    Written as the negation of a well-formed interval: every comparison with
    NaN is False, so a NaN endpoint fails the test instead of passing it.
    """
    for s, e in intervals:
        if not (-TOL_INTERVAL <= s and s - TOL_INTERVAL <= e <= 1.0 + TOL_INTERVAL):
            return True
    return False


def _measure(intervals: list[Interval]) -> tuple[list[Interval], float, float, bool]:
    """One interval list's merged pieces, their total, the total of the pieces
    as given, and its _bad_geometry verdict. The raw total is summed only
    when the merge dropped or joined a piece; otherwise it is the merged one.
    One piece, the common case, is judged by the comparisons _merge, _total
    and _bad_geometry make of it (negated, so a NaN is bad)."""
    if not intervals:
        return [], 0.0, 0.0, False
    if len(intervals) == 1:
        ((s, e),) = intervals
        total = (e - s) + 0.0
        bad = not (-TOL_INTERVAL <= s and s - TOL_INTERVAL <= e <= 1.0 + TOL_INTERVAL)
        return ([], 0.0, total, bad) if e <= s else (intervals, total, total, bad)
    bad = _bad_geometry(intervals)
    merged = _merge(intervals)
    total = _total(merged)
    return merged, total, (_total(intervals) if len(merged) < len(intervals) else total), bad


def validate_schedule(
    topology: NetworkTopology,
    schedule: Schedule,
    p_first: dict[int, float] | None = None,
    demands: dict[int, float] | None = None,
) -> ValidationReport:
    """Check a frame schedule against every feasibility rule.

    p_first, when given, pins the expected first-link active time per link;
    demands (Gbps per small BS) additionally require each link's realized
    rate to carry its subtree traffic. What a solution claims about its own
    numbers is judged by derived_field_violations. Raises InvalidTopology
    when the topology is not a valid tree.
    """
    if topology.violations:
        raise InvalidTopology(topology.violations)
    report = ValidationReport()

    def add(kind: str, detail: str) -> None:
        report.violations.append(Violation(kind, detail))

    for lid in sorted(schedule.links):
        if not topology.has_link(lid):
            add("UnknownLink", f"schedule covers link {lid} which the topology lacks")

    chain_claims: dict[tuple[int, int], list[tuple[float, float, int]]] = defaultdict(list)
    footprints: dict[int, list[Interval]] = {}
    shares: dict[int, float] = {}  # the frame time each link runs at full rate
    radio_chains = {s.id: s.radio_chains for s in topology.stations}

    for link in topology.links:
        entry = schedule.links.get(link.id)
        if entry is None:
            add("MissingLink", f"no schedule entry for link {link.id}")
            continue

        footprint, footprint_total, raw_total, bad = _measure(entry.footprint)
        footprints[link.id] = footprint
        if bad:
            add("FootprintMismatch", f"link {link.id} footprint leaves the frame")
        if raw_total - footprint_total > TOL_INTERVAL:
            add("FootprintMismatch", f"link {link.id} footprint intervals overlap")

        merged = []  # each side's times, merged once
        active = []  # each side's summed transmit time, pieces as given

        for label, pieces, bs in (
            ("first link", entry.parent_side, link.parent),
            ("last link", entry.child_side, link.child),
        ):
            chains = radio_chains[bs]
            for chain, s, e in pieces:
                if not 0 <= chain < chains:
                    add(
                        "ChainOverlap",
                        f"link {link.id} {label} uses chain {chain} at B{bs} "
                        f"which has {chains} radio chains",
                    )
                chain_claims[bs, chain].append((s, e, link.id))
            side, merged_total, raw_total, bad = _measure([(s, e) for _, s, e in pieces])
            covered = _overlap(side, footprint)
            merged.append(side)
            active.append(raw_total)
            if bad:
                add("ActiveOutsideFootprint", f"link {link.id} {label} leaves the frame")
            uncovered = merged_total - covered
            if uncovered > TOL_INTERVAL:
                add(
                    "ActiveOutsideFootprint",
                    f"link {link.id} {label} transmits {uncovered:.3e} outside its footprint",
                )
            if raw_total - merged_total > TOL_INTERVAL:
                add(
                    "ChainOverlap",
                    f"link {link.id} {label} transmits on two chains at once",
                )

        if link.hop_count > 1:
            cross = _overlap(*merged)
            if cross > TOL_INTERVAL:
                add(
                    "EndpointOverlap",
                    f"link {link.id} first and last links overlap by {cross:.3e}",
                )

        pf, pl = active
        if abs(footprint_total - pf / link.p_first_max) > TOL_INTERVAL:
            add(
                "FootprintMismatch",
                f"link {link.id} footprint {footprint_total:.12g} != "
                f"active/duty {pf / link.p_first_max:.12g}",
            )
        if abs(pf / link.p_first_max - pl / link.p_last_max) > 2 * TOL_INTERVAL:
            add(
                "RatioMismatch",
                f"link {link.id} first/last active times {pf:.12g}/{pl:.12g} "
                "violate the shared duty fraction",
            )
        if p_first is not None:
            expected = float(p_first.get(link.id, 0.0))
            # negated passing test, so a NaN on either side is flagged
            if not abs(pf - expected) <= TOL_INTERVAL:
                add(
                    "RatioMismatch",
                    f"link {link.id} first-link active {pf:.12g} != solution {expected:.12g}",
                )

        share = shares[link.id] = min(pf / link.p_first_max, pl / link.p_last_max)
        report.realized_rates[link.id] = share * link.capacity_gbps

    doubled = {}  # (bs, chain) -> the time two transmissions share
    for key, claims in chain_claims.items():
        # a single-hop link's one transmission engages radios at both BSs, so
        # its parent and child claims land at different stations and never
        # collide here; distinct links sharing a chain must take turns
        if len(claims) == 1:
            continue  # one transmission cannot collide with itself
        # one sweep of the sorted claims: pieces that are non-empty, in the
        # frame and each at or after the end of the one before share no time,
        # and their summed lengths differ from the union's by a few ulps at
        # most, so no spare can pass TOL_INTERVAL. Negated, so a NaN fails
        end = -TOL_INTERVAL
        for s, e, _ in sorted(claims):
            if not end <= s < e <= 1.0 + TOL_INTERVAL:
                break
            end = e
        else:
            continue
        # any other key goes through _measure, its claims in the order given
        _, total, raw_total, _ = _measure([(s, e) for s, e, _ in claims])
        spare = raw_total - total
        if spare > TOL_INTERVAL:
            doubled[key] = spare
    for bs, chain in sorted(doubled):  # only the reported keys are sorted
        owners = sorted({lid for _, _, lid in chain_claims[bs, chain]})
        add(
            "ChainOverlap",
            f"chain {chain} at B{bs} is double-driven for {doubled[bs, chain]:.3e} "
            f"(links {owners})",
        )

    for a, b in topology.interference_pairs:
        cross = _overlap(footprints.get(a, []), footprints.get(b, []))
        if cross > TOL_INTERVAL:
            add(
                "InterferenceOverlap",
                f"interfering links {a} and {b} overlap by {cross:.3e}",
            )

    # each link's subtree is a slice of the whole tree's preorder
    spans = [topology.subtree_slice(l.child) for l in topology.links]
    if report.realized_rates:
        # links without a schedule entry carry nothing
        report.realized_equal_demand = min(
            report.realized_rates.get(l.id, 0.0) / (span.stop - span.start)
            for l, span in zip(topology.links, spans)
        )

    if demands is not None:
        # summed in each subtree's preorder, as the slices of one list
        per_bs = [demands.get(b, 0.0) for b in topology.subtree(topology.macro.id)]
        for link, span in zip(topology.links, spans):
            need = float_sum(per_bs[span])
            share = shares.get(link.id)  # a link without a schedule entry has none
            # negated passing test, so a NaN or infinite need is flagged
            if share is not None and not share >= need / link.capacity_gbps - TOL_INTERVAL:
                have = report.realized_rates[link.id]
                add(
                    "CapacityShortfall",
                    f"link {link.id} realizes {have:.9f} Gbps of {need:.9f} needed",
                )

    return report


def derived_field_violations(
    topology: NetworkTopology, solution: DemandSolution, data: dict
) -> list[Violation]:
    """Check what a solution file claims about its own numbers.

    data is the solution JSON that solution was read from. A per_bs entry
    for no small BS is an UnknownBS, a p_first or p_last entry for no link
    an UnknownLink, each in ascending id. Each claim is recomputed by the
    rule that wrote it, a missing per_bs or p_first entry reading 0: p_last
    is p_first * P_l/P_f (within TOL_INTERVAL, else a RatioMismatch);
    d_b_gbps is every small BS's per_bs and fair_floor_gbps at most each
    (null is no claim); aggregate_gbps is the sum of per_bs, as a file's
    per_bs order need not be the writer's summation order; jain_index and
    min_radio_chains follow from per_bs and p_first, the chain counts
    exactly and for every BS key. Demands compare at relative TOL_INTERVAL.
    The last three are claims only when data carries them; a field of the
    wrong type raises InconsistentInput.
    """
    with schema("solution"):
        claims = {n: json_float(data[n]) for n in ("aggregate_gbps", "jain_index") if n in data}
        chains = None
        if "min_radio_chains" in data:
            chains = json_map(data["min_radio_chains"], json_int)

    demand = {b: solution.per_bs.get(b, 0.0) for b in topology.small_bs_ids()}
    p_first = {l.id: solution.p_first.get(l.id, 0.0) for l in topology.links}
    found = [Violation("UnknownBS", f"solution per_bs has B{b}, which is no small BS")
             for b in sorted(solution.per_bs.keys() - demand.keys())]
    found += [Violation("UnknownLink", f"solution {name} has link {i}, which the topology lacks")
              for name, ids in (("p_first", solution.p_first), ("p_last", solution.p_last))
              for i in sorted(ids.keys() - p_first.keys())]

    def mismatch(detail: str) -> None:
        found.append(Violation("DerivedFieldMismatch", detail))

    for link_id, expected in _p_last(topology, p_first).items():
        got = solution.p_last.get(link_id, 0.0)
        # negated passing test, so a NaN on either side is flagged
        if not abs(got - expected) <= TOL_INTERVAL:
            found.append(Violation("RatioMismatch", f"link {link_id} solution last-link fraction "
                                   f"{got:.12g} != first-link fraction x P_l/P_f {expected:.12g}"))

    def close(value: float, claim: float) -> bool:
        return math.isclose(value, claim, rel_tol=TOL_INTERVAL)

    for name, claim, holds in (
        ("d_b_gbps", solution.d_b_gbps, close),
        ("fair_floor_gbps", solution.fair_floor_gbps, lambda v, c: v >= c or close(v, c)),
    ):
        off = [] if claim is None else [b for b, v in demand.items() if not holds(v, claim)]
        if off:
            mismatch(f"{name} claims {claim:.12g} but per_bs[B{off[0]}] is {demand[off[0]]:.12g}")

    for name, claim in claims.items():
        if name == "aggregate_gbps":
            value = solution.aggregate_gbps
        else:
            try:
                value = jain_index(solution.per_bs)
            except AllZeroDemands:
                value = math.nan  # no Jain index exists, so no claim of one holds
        if not close(claim, value):
            mismatch(f"{name} claims {claim:.12g} but is {value:.12g}")
    if chains is not None:
        try:
            needed = min_radio_chains(topology, p_first)
        except NonFiniteInput:
            needed = {}  # a chain time past the float range has no count to claim
        for b in sorted(needed.keys() | chains.keys()):
            claim, value = chains.get(b, "nothing"), needed.get(b, "nothing")
            if claim != value:
                mismatch(f"min_radio_chains[B{b}] claims {claim} but is {value}")
    return found
