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
interval arithmetic exact; emitted schedules are floats. Each radio chain's
busy list is merged (sorted, disjoint, adjacent pieces joined) at all times:
a placed piece is inserted where it belongs and joined to the neighbours it
touches, never re-merged with the whole list.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from backhaulopt.errors import (
    InconsistentInput,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    PlacementFailure,
)
from backhaulopt.model import NetworkTopology, json_float, json_int, json_map, schema

GRID = 10**12
# Placement may come up short by LP round-off; anything within this many grid
# units (5e-10 of the frame, half the validator tolerance) is trimmed, larger
# gaps are honest placement failures.
TRIM_CAP = 500

Interval = tuple[float, float]


@dataclass
class LinkSchedule:
    footprint: list[Interval]
    parent_side: list[tuple[int, float, float]]  # (chain at parent BS, start, end)
    child_side: list[tuple[int, float, float]]  # (chain at child BS, start, end)


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


def _take_free(blocked: list[tuple[int, int]], amount: int):
    """Leftmost free time in [0, GRID) outside a merged list, totaling
    min(amount, free), and the amount left over; amount = GRID takes every
    gap of the list."""
    taken = []
    cur = 0
    for s, e in blocked:
        if amount <= 0 or cur >= GRID:
            break
        if s > cur:
            piece = min(amount, min(s, GRID) - cur)
            taken.append((cur, cur + piece))
            amount -= piece
        cur = max(cur, e)
    if amount > 0 and cur < GRID:
        piece = min(amount, GRID - cur)
        taken.append((cur, cur + piece))
        amount -= piece
    return taken, amount


def _insert(busy: list[tuple[int, int]], s: int, e: int) -> None:
    """Add [s, e) to a merged list in place, joining the pieces it touches."""
    if e <= s:
        return
    lo = bisect_left(busy, (s, s))  # the first piece starting at or after s
    if lo and busy[lo - 1][1] >= s:
        lo -= 1
    hi = bisect_right(busy, (e, math.inf))  # past the last piece starting at or before e
    if lo < hi:
        s, e = min(s, busy[lo][0]), max(e, busy[hi - 1][1])
    busy[lo:hi] = [(s, e)]


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
    parent_pieces: list[tuple[int, int, int]] = field(default_factory=list)
    child_pieces: list[tuple[int, int, int]] = field(default_factory=list)
    active: list[tuple[int, int]] = field(default_factory=list)  # time-domain union
    pause: list[tuple[int, int]] = field(default_factory=list)
    footprint: list[tuple[int, int]] = field(default_factory=list)


class _State:
    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.busy: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.line12_overflow: list[int] = []

    def chain_busy(self, bs: int, chain: int) -> list[tuple[int, int]]:
        return self.busy.get((bs, chain), [])

    def occupy(self, bs: int, chain: int, pieces: list[tuple[int, int]]) -> None:
        busy = self.busy.setdefault((bs, chain), [])
        for s, e in pieces:
            _insert(busy, s, e)

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
        """Union of the chains of bs; one busy chain is its own union."""
        lists = [busy for c in self.chains_in_use(bs) if (busy := self.chain_busy(bs, c))]
        return lists[0] if len(lists) == 1 else _merge([p for busy in lists for p in busy])


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
        return _LinkPlan(active_need=a, footprint_need=a, child_need=a)
    s = min(round(p / link.p_first_max * GRID), GRID)
    s = max(s, a)
    c = round(p * link.p_last_max / link.p_first_max * GRID)
    if c - (s - a) > TRIM_CAP:  # P_f + P_l > 1: the last hop outlasts the pause
        raise PlacementFailure(
            link.id, f"{(c - s + a) / GRID:.3e} of child-side time does not fit the pause"
        )
    return _LinkPlan(active_need=a, footprint_need=s, child_need=min(c, s - a))


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
        # every list here is merged already, and so are the pieces of one walk
        busy = state.chain_busy(bs, chain)
        blocked = _merge(busy + forbidden + plan.active) if forbidden or plan.active else busy
        taken, remaining = _take_free(blocked, remaining)
        for s, e in taken:
            plan.parent_pieces.append((chain, s, e))
        plan.active = _merge(plan.active + taken) if plan.active else taken
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
        plan.footprint = list(plan.active)
        return
    both = forbidden and plan.active
    blocked = _merge(forbidden + plan.active) if both else forbidden or plan.active
    if reuse_first:
        # with the gaps of the covered time blocked too, only covered time is free
        gaps, _ = _take_free(state.all_busy(link.parent), GRID)
        first, needed = _take_free(_merge(blocked + gaps), needed)
        more, needed = _take_free(_merge(blocked + first), needed)
        taken = _merge(first + more)
    else:
        taken, needed = _take_free(blocked, needed)
    if needed > TRIM_CAP:
        raise PlacementFailure(
            link.id,
            f"{needed / GRID:.3e} of pause time found no room in the frame",
        )
    plan.pause = taken
    plan.footprint = _merge(plan.active + plan.pause)


def _finish_link(state: _State, link, plan: _LinkPlan) -> None:
    """Fix the child-side actives and record chain occupancy at both ends."""
    if link.hop_count == 1:
        # one physical link: both endpoint radios are live during the actives
        plan.child_pieces = [(0, s, e) for _, s, e in sorted(plan.parent_pieces, key=lambda t: t[1])]
    else:
        pieces, _ = _take_trailing(plan.pause, plan.child_need)
        plan.child_pieces = [(0, s, e) for s, e in pieces]
    for chain, s, e in plan.parent_pieces:
        state.occupy(link.parent, chain, [(s, e)])
    state.occupy(link.child, 0, [(s, e) for _, s, e in plan.child_pieces])


def _place_link(state, link, plan, forbidden):
    _place_actives(state, link, plan, forbidden)
    _place_pause(state, link, plan, forbidden, reuse_first=False)
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
            # child-side actives are already on our chain 0 (occupied when the
            # link was placed). Its interference partner among our child
            # links must dodge the whole inbound footprint.
            partner = [p for p in topology.partners(inbound.id) if p in remaining]
            if partner:
                pid = partner[0]
                link = by_id[pid]
                plan = plans[pid]
                _place_link(state, link, plan, forbidden=plans[inbound.id].footprint)
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
            _place_actives(state, by_id[b], plan_b, forbidden=plan_a.active)
            _place_pause(state, by_id[a], plan_a, forbidden=plan_b.active, reuse_first=True)
            _place_pause(state, by_id[b], plan_b, forbidden=plan_a.footprint, reuse_first=True)
            _finish_link(state, by_id[a], plan_a)
            _finish_link(state, by_id[b], plan_b)
            remaining -= {a, b}

    return _emit(state, plans)


def _emit(state: _State, plans: dict[int, _LinkPlan]) -> Schedule:
    links = {
        lid: LinkSchedule(
            footprint=[(s / GRID, e / GRID) for s, e in plan.footprint],
            parent_side=[
                (chain, s / GRID, e / GRID)
                for chain, s, e in sorted(plan.parent_pieces)
            ],
            child_side=[(chain, s / GRID, e / GRID) for chain, s, e in plan.child_pieces],
        )
        for lid, plan in plans.items()
    }
    chains = {
        key: [(s / GRID, e / GRID) for s, e in intervals]
        for key, intervals in sorted(state.busy.items())
    }
    meta = {"line12_overflow": sorted(state.line12_overflow)}
    return Schedule(links=links, per_bs_chains=chains, meta=meta)


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


def _pieces(side) -> list[tuple[int, float, float]]:
    return [(json_int(p["chain"]), json_float(p["start"]), json_float(p["end"])) for p in side]


def _link_schedule(entry) -> LinkSchedule:
    footprint = [(json_float(s), json_float(e)) for s, e in entry["footprint"]]
    return LinkSchedule(footprint, _pieces(entry["parent_side"]), _pieces(entry["child_side"]))


def schedule_from_dict(data: dict) -> Schedule:
    with schema("schedule"):
        links = json_map(data["links"], _link_schedule)
        chains = {
            (json_int(c["bs"]), json_int(c["chain"])): [
                (json_float(s), json_float(e)) for s, e in c["intervals"]
            ]
            for c in data.get("chains", [])
        }
        meta = {**data.get("meta", {})}  # a copy; TypeError unless an object
    return Schedule(links=links, per_bs_chains=chains, meta=meta)
