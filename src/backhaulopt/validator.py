"""Schedule feasibility checking and fairness metrics.

The checks here recompute everything from the per-link interval lists; the
schedule's chain-occupancy summary is never trusted. A report carries every
violation found rather than stopping at the first, so a tampered schedule
yields a full diagnosis.

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
  through it, or the schedule realizes less equal demand than claimed.
* MissingLink / UnknownLink: schedule entries absent for a topology link or
  present for a nonexistent one.

Interval totals are compared at 1e-9, rates at 1e-6 Gbps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from backhaulopt.errors import AllZeroDemands, InvalidTopology
from backhaulopt.model import NetworkTopology, subtree_bs_set  # noqa: F401 (perfbench wraps it)
from backhaulopt.scheduler import Schedule

TOL_INTERVAL = 1e-9
TOL_RATE = 1e-6

Interval = tuple[float, float]


@dataclass(frozen=True)
class ScheduleViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})"


@dataclass
class ValidationReport:
    violations: list[ScheduleViolation] = field(default_factory=list)
    realized_rates: dict[int, float] = field(default_factory=dict)
    realized_equal_demand: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _merge(intervals: list[Interval]) -> list[Interval]:
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
    return math.fsum(e - s for s, e in intervals)


def _overlap(a: list[Interval], b: list[Interval]) -> float:
    """Total measure of the intersection of two merged lists."""
    out = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            out += e - s
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _bad_geometry(intervals: list[Interval]) -> bool:
    """Whether some interval is reversed, leaves the frame or is not a number.

    Written as the negation of a well-formed interval: every comparison with
    NaN is False, so a NaN endpoint fails the test instead of passing it.
    """
    return not all(
        -TOL_INTERVAL <= s and s - TOL_INTERVAL <= e <= 1.0 + TOL_INTERVAL
        for s, e in intervals
    )


def validate_schedule(
    topology: NetworkTopology,
    schedule: Schedule,
    p_first: dict[int, float] | None = None,
    demands: dict[int, float] | None = None,
    p_last: dict[int, float] | None = None,
    d_b_gbps: float | None = None,
) -> ValidationReport:
    """Check a frame schedule against every feasibility rule.

    p_first, when given, pins the expected first-link active time per link;
    demands (Gbps per small BS) additionally require each link's realized
    rate to carry its subtree traffic. p_last, when given, must equal
    p_first * P_l/P_f, with the schedule's first-link time standing in for
    p_first when that is not given; d_b_gbps, an equal demand the schedule
    claims to serve, must not exceed the realized equal demand. Raises
    InvalidTopology when the topology is not a valid tree.
    """
    if topology.violations:
        raise InvalidTopology(topology.violations)
    report = ValidationReport()

    def add(kind: str, detail: str) -> None:
        report.violations.append(ScheduleViolation(kind, detail))

    for lid in sorted(schedule.links):
        if not topology.has_link(lid):
            add("UnknownLink", f"schedule covers link {lid} which the topology lacks")

    chain_claims: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
    footprints: dict[int, list[Interval]] = {}

    for link in topology.links:
        entry = schedule.links.get(link.id)
        if entry is None:
            add("MissingLink", f"no schedule entry for link {link.id}")
            continue

        footprint = footprints[link.id] = _merge(entry.footprint)
        if _bad_geometry(entry.footprint):
            add("FootprintMismatch", f"link {link.id} footprint leaves the frame")
        if _total(entry.footprint) - _total(footprint) > TOL_INTERVAL:
            add("FootprintMismatch", f"link {link.id} footprint intervals overlap")

        parent_times = [(s, e) for _, s, e in entry.parent_side]
        child_times = [(s, e) for _, s, e in entry.child_side]
        merged = []  # each side's times, merged once

        for label, pieces, times, bs in (
            ("first link", entry.parent_side, parent_times, link.parent),
            ("last link", entry.child_side, child_times, link.child),
        ):
            station = topology.station(bs)
            for chain, s, e in pieces:
                if not 0 <= chain < station.radio_chains:
                    add(
                        "ChainOverlap",
                        f"link {link.id} {label} uses chain {chain} at B{bs} "
                        f"which has {station.radio_chains} radio chains",
                    )
                chain_claims.setdefault((bs, chain), []).append((s, e, link.id))
            merged.append(_merge(times))
            if _bad_geometry(times):
                add("ActiveOutsideFootprint", f"link {link.id} {label} leaves the frame")
            uncovered = _total(merged[-1]) - _overlap(merged[-1], footprint)
            if uncovered > TOL_INTERVAL:
                add(
                    "ActiveOutsideFootprint",
                    f"link {link.id} {label} transmits {uncovered:.3e} outside its footprint",
                )
            if _total(times) - _total(merged[-1]) > TOL_INTERVAL:
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

        pf = _total(parent_times)
        pl = _total(child_times)
        if abs(_total(footprint) - pf / link.p_first_max) > TOL_INTERVAL:
            add(
                "FootprintMismatch",
                f"link {link.id} footprint {_total(footprint):.12f} != "
                f"active/duty {pf / link.p_first_max:.12f}",
            )
        if abs(pf / link.p_first_max - pl / link.p_last_max) > 2 * TOL_INTERVAL:
            add(
                "RatioMismatch",
                f"link {link.id} first/last active times {pf:.12f}/{pl:.12f} "
                "violate the shared duty fraction",
            )
        if p_first is not None:
            expected = float(p_first.get(link.id, 0.0))
            # negated passing test, so a NaN on either side is flagged
            if not abs(pf - expected) <= TOL_INTERVAL:
                add(
                    "RatioMismatch",
                    f"link {link.id} first-link active {pf:.12f} != solution {expected:.12f}",
                )
        if p_last is not None:
            first = pf if p_first is None else float(p_first.get(link.id, 0.0))
            expected = first * link.p_last_max / link.p_first_max
            got = float(p_last.get(link.id, 0.0))
            if not abs(got - expected) <= TOL_INTERVAL:
                add(
                    "RatioMismatch",
                    f"link {link.id} solution last-link fraction {got:.12f} != "
                    f"first-link fraction x P_l/P_f {expected:.12f}",
                )

        rate = min(pf / link.p_first_max, pl / link.p_last_max) * link.capacity_gbps
        report.realized_rates[link.id] = rate

    for (bs, chain), claims in sorted(chain_claims.items()):
        # a single-hop link's one transmission engages radios at both BSs, so
        # its parent and child claims land at different stations and never
        # collide here; distinct links sharing a chain must take turns
        times = [(s, e) for s, e, _ in claims]
        spare = _total(times) - _total(_merge(times))
        if spare > TOL_INTERVAL:
            owners = sorted({lid for _, _, lid in claims})
            add(
                "ChainOverlap",
                f"chain {chain} at B{bs} is double-driven for {spare:.3e} "
                f"(links {owners})",
            )

    for a, b in topology.interference_pairs:
        cross = _overlap(footprints.get(a, []), footprints.get(b, []))
        if cross > TOL_INTERVAL:
            add(
                "InterferenceOverlap",
                f"interfering links {a} and {b} overlap by {cross:.3e}",
            )

    if report.realized_rates:
        # links without a schedule entry carry nothing
        report.realized_equal_demand = min(
            report.realized_rates.get(l.id, 0.0) / len(topology.subtree(l.child))
            for l in topology.links
        )
    if d_b_gbps is not None and not d_b_gbps <= report.realized_equal_demand + TOL_RATE:
        add(
            "CapacityShortfall",
            f"equal demand {d_b_gbps:.9f} Gbps exceeds the realized "
            f"{report.realized_equal_demand:.9f}",
        )

    if demands is not None:
        for link in topology.links:
            if link.id not in report.realized_rates:
                continue
            need = float(sum(demands.get(b, 0.0) for b in topology.subtree(link.child)))
            have = report.realized_rates[link.id]
            if not have >= need - TOL_RATE:
                add(
                    "CapacityShortfall",
                    f"link {link.id} realizes {have:.9f} Gbps of {need:.9f} needed",
                )

    return report


def jain_index(values) -> float:
    """Jain fairness of a demand vector; 1.0 means exactly equal shares.

    Values are normalized by their maximum first so an all-equal vector
    comes out as exactly 1.0 rather than within round-off of it.
    """
    seq = [float(v) for v in (values.values() if isinstance(values, dict) else values)]
    if not seq or all(v <= 0.0 for v in seq):
        raise AllZeroDemands("fairness is undefined for an all-zero demand vector")
    top = max(seq)
    scaled = [v / top for v in seq]
    num = math.fsum(scaled) ** 2
    den = len(scaled) * math.fsum(v * v for v in scaled)
    return num / den
