"""Transmission schedule construction for one radio frame.

Visits the BSs in preorder from the macro; each BS places the schedules of
its child links, so a link's schedule is fixed by its parent-side BS and
already known when the child BS is reached. Per link the schedule consists of

* a footprint: the fraction p_f/P_f of the frame during which the link's
  relay pipeline is running at all,
* parent-side active intervals (total p_f) in which the first physical link
  transmits, each assigned to a radio chain of the parent BS,
* child-side active intervals (total p_f * P_l/P_f) for the last physical
  link, placed on the first radio chain of the child BS.

During the rest of the footprint (the pause) the link occupies no radio
chain at either endpoint BS, so other links' active intervals may reuse that
time. Interfering links must have disjoint footprints; a link's own active
intervals must never overlap in time even across chains.

All endpoints are snapped to an integer grid of 1e-12 frame units, making
interval arithmetic exact; emitted schedules are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from backhaulopt.errors import (
    InconsistentInput,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    PlacementFailure,
)
from backhaulopt.model import NetworkTopology

GRID = 10**12
# Placement may come up short by LP round-off; anything within this many grid
# units (5e-10 of the frame, half the validator tolerance) is trimmed, larger
# gaps are honest placement failures.
TRIM_CAP = 500

Interval = tuple[float, float]


@dataclass
class LinkSchedule:
    link_id: int
    footprint: list[Interval]
    parent_side: list[tuple[int, float, float]]  # (chain at parent BS, start, end)
    child_side: list[tuple[int, float, float]]  # (chain at child BS, start, end)

    def parent_total(self) -> float:
        return sum(e - s for _, s, e in self.parent_side)

    def child_total(self) -> float:
        return sum(e - s for _, s, e in self.child_side)

    def footprint_total(self) -> float:
        return sum(e - s for s, e in self.footprint)


@dataclass
class Schedule:
    links: dict[int, LinkSchedule]
    per_bs_chains: dict[tuple[int, int], list[Interval]]
    meta: dict = field(default_factory=dict)


# -- exact interval arithmetic on integer grid units ------------------------


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted disjoint union; adjacent pieces coalesce."""
    out: list[tuple[int, int]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _complement(blocked: list[tuple[int, int]], lo: int = 0, hi: int = GRID):
    """Gaps of a merged interval list within [lo, hi)."""
    gaps = []
    cur = lo
    for s, e in blocked:
        if s > cur:
            gaps.append((cur, min(s, hi)))
        cur = max(cur, e)
        if cur >= hi:
            break
    if cur < hi:
        gaps.append((cur, hi))
    return [(s, e) for s, e in gaps if e > s]


def _intersect(a: list[tuple[int, int]], b: list[tuple[int, int]]):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _take_leading(gaps: list[tuple[int, int]], amount: int):
    """Leftmost sub-intervals totaling min(amount, available)."""
    taken = []
    for s, e in gaps:
        if amount <= 0:
            break
        piece = min(amount, e - s)
        taken.append((s, s + piece))
        amount -= piece
    return taken, amount


def _take_trailing(intervals: list[tuple[int, int]], amount: int):
    taken = []
    for s, e in reversed(intervals):
        if amount <= 0:
            break
        piece = min(amount, e - s)
        taken.append((e - piece, e))
        amount -= piece
    return sorted(taken), amount


# -- placement state ---------------------------------------------------------


@dataclass
class _LinkPlan:
    active_need: int  # p_f in grid units
    footprint_need: int  # p_f / P_f
    child_need: int  # p_f * P_l / P_f
    single_hop: bool
    parent_pieces: list[tuple[int, int, int]] = field(default_factory=list)
    child_pieces: list[tuple[int, int, int]] = field(default_factory=list)
    active: list[tuple[int, int]] = field(default_factory=list)  # time-domain union
    pause: list[tuple[int, int]] = field(default_factory=list)
    footprint: list[tuple[int, int]] = field(default_factory=list)


class _State:
    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.busy: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.plans: dict[int, _LinkPlan] = {}
        self.line12_overflow: list[int] = []

    def chain_busy(self, bs: int, chain: int) -> list[tuple[int, int]]:
        return self.busy.get((bs, chain), [])

    def occupy(self, bs: int, chain: int, pieces: list[tuple[int, int]]) -> None:
        key = (bs, chain)
        self.busy[key] = _merge(self.busy.get(key, []) + pieces)

    def chains_in_use(self, bs: int) -> range:
        """The chains of bs that hold intervals, then the first free one.

        Actives go first-fit from chain 0, so the occupied chains are
        contiguous from 0, and every free chain places like the first free
        one: a station may declare any number of chains at no cost.
        """
        used = 0
        while self.busy.get((bs, used)):
            used += 1
        return range(min(used + 1, self.topology.station(bs).radio_chains))

    def all_busy(self, bs: int) -> list[tuple[int, int]]:
        merged: list[tuple[int, int]] = []
        for c in self.chains_in_use(bs):
            merged += self.chain_busy(bs, c)
        return _merge(merged)


def _plan_for(link, p_first: dict[int, float]) -> _LinkPlan:
    if link.id not in p_first:
        raise MissingLink(f"p_first has no entry for link {link.id}")
    p = float(p_first[link.id])
    if not math.isfinite(p):
        raise NonFiniteInput(f"p_first[{link.id}]={p} is not a finite number")
    if p < -1e-9 or p > link.p_first_max + 1e-9:
        raise InconsistentInput(
            f"p_first[{link.id}]={p} outside [0, {link.p_first_max}]"
        )
    p = min(max(p, 0.0), link.p_first_max)
    a = round(p * GRID)
    if link.hop_count == 1:
        return _LinkPlan(active_need=a, footprint_need=a, child_need=a, single_hop=True)
    s = min(round(p / link.p_first_max * GRID), GRID)
    s = max(s, a)
    c = min(round(p * link.p_last_max / link.p_first_max * GRID), s - a)
    return _LinkPlan(active_need=a, footprint_need=s, child_need=c, single_hop=False)


def _place_actives(state: _State, link, plan: _LinkPlan, forbidden: list[tuple[int, int]]):
    """First-fit actives over the parent's chains, leftmost gap first.

    forbidden covers partner footprints fixed so far; the link's own actives
    on other chains are excluded as they accrue (a link cannot drive two
    radio chains at the same time).
    """
    bs = link.parent
    remaining = plan.active_need
    for chain in state.chains_in_use(bs):
        if remaining <= 0:
            break
        blocked = _merge(state.chain_busy(bs, chain) + forbidden + plan.active)
        taken, remaining = _take_leading(_complement(blocked), remaining)
        for s, e in taken:
            plan.parent_pieces.append((chain, s, e))
        plan.active = _merge(plan.active + taken)
    if remaining > TRIM_CAP:
        raise PlacementFailure(
            link.id,
            f"{remaining / GRID:.3e} of active time found no free radio chain at B{bs}",
        )


def _place_pause(
    state: _State,
    link,
    plan: _LinkPlan,
    forbidden: list[tuple[int, int]],
    reuse_first: bool,
):
    """Pause periods: anywhere outside forbidden zones, since paused links
    hold no radio chain. With reuse_first, prefer time already covered by
    other links' actives so blank chain time stays available."""
    needed = plan.footprint_need - _total(plan.active)
    if needed <= 0:
        plan.footprint = _merge(plan.active)
        return
    blocked = _merge(forbidden + plan.active)
    gaps = _complement(blocked)
    taken: list[tuple[int, int]] = []
    if reuse_first:
        covered = state.all_busy(link.parent)
        first, needed = _take_leading(_intersect(gaps, covered), needed)
        taken += first
        gaps = _complement(_merge(blocked + taken))
    more, needed = _take_leading(gaps, needed)
    taken += more
    if needed > TRIM_CAP:
        raise PlacementFailure(
            link.id,
            f"{needed / GRID:.3e} of pause time found no room in the frame",
        )
    plan.pause = _merge(taken)
    plan.footprint = _merge(plan.active + plan.pause)


def _finish_link(state: _State, link, plan: _LinkPlan) -> None:
    """Fix the child-side actives and record chain occupancy at both ends."""
    if plan.single_hop:
        # one physical link: both endpoint radios are live during the actives
        plan.child_pieces = [(0, s, e) for _, s, e in sorted(plan.parent_pieces, key=lambda t: t[1])]
    else:
        pieces, _ = _take_trailing(plan.pause, plan.child_need)
        plan.child_pieces = [(0, s, e) for s, e in pieces]
    for chain, s, e in plan.parent_pieces:
        state.occupy(link.parent, chain, [(s, e)])
    state.occupy(link.child, 0, [(s, e) for _, s, e in plan.child_pieces])
    state.plans[link.id] = plan


def _place_link(state, link, plan, forbidden, reuse_first=False):
    _place_actives(state, link, plan, forbidden)
    _place_pause(state, link, plan, forbidden, reuse_first)
    _finish_link(state, link, plan)


def _total(intervals: list[tuple[int, int]]) -> int:
    return sum(e - s for s, e in intervals)


def build_schedule(topology: NetworkTopology, p_first: dict[int, float]) -> Schedule:
    """Realize the active-time fractions as a frame schedule.

    Raises PlacementFailure when some link's active time cannot be packed
    onto the available radio chains (possible in limited-radio-chain
    settings; the LP bound is then reported as unrealized). Raises
    InvalidTopology on a topology that is not a valid tree, interference
    pairs that break the one-partner-per-BS rule of the placement included.
    """
    if topology.violations:
        raise InvalidTopology(topology.violations)
    state = _State(topology)
    plans = {l.id: _plan_for(l, p_first) for l in topology.links}

    for bs in topology.subtree(topology.macro.id):
        children = topology.child_links(bs)
        remaining = {l.id for l in children}
        by_id = {l.id: l for l in children}

        inbound = topology.inbound_link(bs)
        if inbound is not None:
            # the inbound link's schedule was fixed by the parent BS; its
            # child-side actives are already on our chain 1 (occupied when the
            # link was placed). Its interference partner among our child
            # links must dodge the whole inbound footprint.
            partner = [p for p in topology.partners(inbound.id) if p in remaining]
            if partner:
                pid = partner[0]
                link = by_id[pid]
                plan = plans[pid]
                _place_link(state, link, plan, forbidden=list(state.plans[inbound.id].footprint))
                if any(chain > 0 for chain, _, _ in plan.parent_pieces):
                    state.line12_overflow.append(pid)
                remaining.discard(pid)

        # links with no partner among the still-unplaced local links
        for lid in sorted(remaining):
            if not any(p in remaining and p != lid for p in topology.partners(lid)):
                _place_link(state, by_id[lid], plans[lid], forbidden=[])
                remaining.discard(lid)

        # interfering pairs: both actives first, then both pauses; pauses
        # prefer time already spent by other links so blank chain time is kept
        while remaining:
            a = min(remaining)
            partners = [p for p in topology.partners(a) if p in remaining]
            b = partners[0]
            plan_a, plan_b = plans[a], plans[b]
            _place_actives(state, by_id[a], plan_a, forbidden=[])
            _place_actives(state, by_id[b], plan_b, forbidden=list(plan_a.active))
            _place_pause(state, by_id[a], plan_a, forbidden=list(plan_b.active), reuse_first=True)
            _place_pause(
                state,
                by_id[b],
                plan_b,
                forbidden=_merge(plan_b.active + plan_a.footprint),
                reuse_first=True,
            )
            _finish_link(state, by_id[a], plan_a)
            _finish_link(state, by_id[b], plan_b)
            remaining -= {a, b}

    return _emit(state, topology)


def _emit(state: _State, topology: NetworkTopology) -> Schedule:
    links = {}
    for lid in sorted(state.plans):
        plan = state.plans[lid]
        links[lid] = LinkSchedule(
            link_id=lid,
            footprint=[(s / GRID, e / GRID) for s, e in plan.footprint],
            parent_side=[
                (chain, s / GRID, e / GRID)
                for chain, s, e in sorted(plan.parent_pieces, key=lambda t: (t[0], t[1]))
            ],
            child_side=[(chain, s / GRID, e / GRID) for chain, s, e in plan.child_pieces],
        )
    chains = {
        key: [(s / GRID, e / GRID) for s, e in intervals]
        for key, intervals in sorted(state.busy.items())
    }
    meta = {"line12_overflow": sorted(state.line12_overflow)}
    return Schedule(links=links, per_bs_chains=chains, meta=meta)


def achieved_rates(topology: NetworkTopology, schedule: Schedule) -> dict[int, float]:
    """Data rate each link sustains under the realized schedule."""
    rates = {}
    for link in topology.links:
        if link.id not in schedule.links:
            raise MissingLink(f"schedule has no entry for link {link.id}")
        ls = schedule.links[link.id]
        rates[link.id] = (
            min(ls.parent_total() / link.p_first_max, ls.child_total() / link.p_last_max)
            * link.capacity_gbps
        )
    return rates


# -- JSON round-trip ---------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "links": {
            str(lid): {
                "footprint": [[s, e] for s, e in ls.footprint],
                "parent_side": [
                    {"chain": c, "start": s, "end": e} for c, s, e in ls.parent_side
                ],
                "child_side": [
                    {"chain": c, "start": s, "end": e} for c, s, e in ls.child_side
                ],
            }
            for lid, ls in sorted(schedule.links.items())
        },
        "chains": [
            {"bs": bs, "chain": chain, "intervals": [[s, e] for s, e in intervals]}
            for (bs, chain), intervals in sorted(schedule.per_bs_chains.items())
        ],
        "meta": schedule.meta,
    }


def schedule_from_dict(data: dict) -> Schedule:
    if not isinstance(data, dict) or not isinstance(data.get("links"), dict):
        raise InconsistentInput("schedule JSON links must be an object")
    if not isinstance(data.get("meta", {}), dict):
        raise InconsistentInput("schedule JSON meta must be an object")
    try:
        links = {
            int(lid): LinkSchedule(
                link_id=int(lid),
                footprint=[(float(s), float(e)) for s, e in entry["footprint"]],
                parent_side=[
                    (int(p["chain"]), float(p["start"]), float(p["end"]))
                    for p in entry["parent_side"]
                ],
                child_side=[
                    (int(p["chain"]), float(p["start"]), float(p["end"]))
                    for p in entry["child_side"]
                ],
            )
            for lid, entry in data["links"].items()
        }
        chains = {
            (int(c["bs"]), int(c["chain"])): [(float(s), float(e)) for s, e in c["intervals"]]
            for c in data.get("chains", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InconsistentInput(f"schedule JSON does not match schema: {exc}") from exc
    return Schedule(links=links, per_bs_chains=chains, meta=dict(data.get("meta", {})))
