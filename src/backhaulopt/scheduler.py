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

A link is placed in three steps, one routine each, shared by lone links, a
BS's inbound partner and interfering pairs: actives (occupied on the
parent's chains as they are taken), pause and footprint, child side.

All endpoints are snapped to an integer grid of 1e-12 frame units, making
interval arithmetic exact; emitted schedules are floats. A duty limit far
below 1 magnifies the grid's rounding, and a share the grid cannot realize
within the validator's tolerances is a PlacementFailure. Each radio chain's busy list is merged (sorted,
disjoint, adjacent pieces joined) at all times: a placed piece is inserted
where it belongs and joined to the neighbours it touches, never re-merged.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from backhaulopt.errors import (
    InconsistentInput,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    PlacementFailure,
)
from backhaulopt.model import TOL_INTERVAL, NetworkTopology, json_float, json_int, json_map, schema

GRID = 10**12
# The validator's TOL_INTERVAL in grid units, and what its float sums of frame
# times may be off by, 1e-15 of the frame (a few ulps), in grid units at duty 1.
TOL_GRID = round(TOL_INTERVAL * GRID)
FLOAT_SPARE = 1e-3
# Placement may come up short by LP round-off; anything within half the
# validator tolerance is trimmed, larger gaps are honest placement failures.
TRIM_CAP = TOL_GRID // 2

Interval = tuple[float, float]


@dataclass
class LinkSchedule:
    footprint: list[Interval]
    parent_side: list[tuple[int, float, float]]  # (chain at parent BS, start, end)
    child_side: list[tuple[int, float, float]]  # (chain at child BS, start, end)


@dataclass
class Schedule:
    links: dict[int, LinkSchedule]


# -- exact interval arithmetic on integer grid units ------------------------


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted disjoint union; adjacent pieces coalesce."""
    out: list[tuple[int, int]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
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
        if s > cur:  # conditionals, not min and max: this loop runs per chain and step
            piece = (s if s < GRID else GRID) - cur
            piece = amount if amount < piece else piece
            taken.append((cur, cur + piece))
            amount -= piece
        cur = e if e > cur else cur
    if amount > 0 and cur < GRID:
        piece = amount if amount < GRID - cur else GRID - cur
        taken.append((cur, cur + piece))
        amount -= piece
    return taken, amount


def _insert(busy: list[tuple[int, int]], s: int, e: int) -> None:
    """Add [s, e) to a merged list in place, joining the pieces it touches."""
    if e <= s:
        return
    if not busy or busy[-1][1] < s:  # past the last piece: the common case
        busy.append((s, e))
        return
    lo = bisect_left(busy, (s, s))  # the first piece starting at or after s
    if lo and busy[lo - 1][1] >= s:
        lo -= 1
    hi = bisect_right(busy, (e, math.inf))  # past the last piece starting at or before e
    if lo < hi:
        s, e = min(s, busy[lo][0]), max(e, busy[hi - 1][1])
    busy[lo:hi] = [(s, e)]


def _take_trailing(intervals: list[tuple[int, int]], amount: int) -> list[tuple[int, int]]:
    """The last min(amount, total) of a merged list's time, ascending."""
    taken = []
    for s, e in reversed(intervals):
        if amount <= 0:
            break
        piece = amount if amount < e - s else e - s
        taken.append((e - piece, e))
        amount -= piece
    taken.reverse()
    return taken


# -- placement state ---------------------------------------------------------


class _Plan:
    """One link's needs in grid units, then what each placement step gave it."""

    __slots__ = ("link", "active_time", "footprint_need", "child_need",
                 "parent_pieces", "active", "pause", "footprint", "child")

    def __init__(self, link, active_time: int, footprint_need: int, child_need: int):
        self.link = link
        self.active_time = active_time  # p_f; once placed, the time placed
        self.footprint_need = footprint_need  # p_f / P_f
        self.child_need = child_need  # p_f * P_l / P_f


class _State:
    def __init__(self, topology: NetworkTopology):
        # per BS, the merged busy lists of its occupied chains, from chain 0
        self.chains = {s.id: [] for s in topology.stations}
        self.budget = {s.id: s.radio_chains for s in topology.stations}

    def occupy(self, bs: int, chain: int, pieces: list[tuple[int, int]]) -> None:
        """Place pieces on a chain in use, or on the first free one, which they occupy."""
        chains = self.chains[bs]
        busy = chains[chain] if chain < len(chains) else []
        for s, e in pieces:
            _insert(busy, s, e)
        if busy and chain == len(chains):  # a free chain joins with its first piece
            chains.append(busy)

    def chains_in_use(self, bs: int) -> range:
        """The chains of bs that hold intervals, then the first free one.

        Actives go first-fit from chain 0, so the occupied chains are
        contiguous from 0, and every free chain places like the first free
        one: a station may declare any number of chains at no cost.
        """
        return range(min(len(self.chains[bs]) + 1, self.budget[bs]))

    def all_busy(self, bs: int) -> list[tuple[int, int]]:
        """Union of the chains of bs; one busy chain is its own union."""
        lists = self.chains[bs]
        return lists[0] if len(lists) == 1 else _merge([p for busy in lists for p in busy])


def _plan_for(link, p_first: dict[int, float]) -> _Plan:
    if link.id not in p_first:
        raise MissingLink(f"p_first has no entry for link {link.id}")
    p = float(p_first[link.id])
    if not math.isfinite(p):
        raise NonFiniteInput(f"p_first[{link.id}]={p} is not a finite number")
    p_f, p_l = link.p_first_max, link.p_last_max
    if p < -1e-9 or p > p_f + 1e-9:
        raise InconsistentInput(f"p_first[{link.id}]={p} outside [0, {p_f}]")
    p = 0.0 if p < 0.0 else p_f if p > p_f else p
    a = c = round(p * GRID)
    s = round(p / p_f * GRID)  # at most GRID, as p <= p_f
    s = a if s < a else s
    if link.hop_count > 1:
        c = round(p * p_l / p_f * GRID)
        if c - (s - a) > TRIM_CAP:  # P_f + P_l > 1: the last hop outlasts the pause
            raise PlacementFailure(link.id, f"{(c - s + a) / GRID:.3e} of child-side time "
                                   "does not fit the pause")
        c = c if c < s - a else s - a
    # the validator compares, in float frame time, the footprint with a/P_f at
    # TOL_GRID, a/P_f with c/P_l at twice that, and the lesser of the two with
    # the share p/P_f at TOL_GRID. A duty limit far below 1 magnifies the grid's
    # rounding of a and c by 1/P, and the float error of those sums just as
    # much, so each comparison must pass with that error to spare
    share = p / p_f * GRID
    first, last = a / p_f, c / p_l
    spare = FLOAT_SPARE / min(p_f, p_l)
    if (abs(s - first) > TOL_GRID - spare or abs(first - last) > 2 * TOL_GRID - spare
            or share - min(first, last) > TOL_GRID - spare):
        if link.hop_count == 1 and p_f != p_l:
            # its one transmission is its first and its last link at once
            raise PlacementFailure(link.id, f"a 1-hop link cannot keep two duty limits, "
                                   f"p_first_max={p_f:.6g} and p_last_max={p_l:.6g}")
        miss = max(abs(first - share), abs(s - share), abs(last - share))
        raise PlacementFailure(link.id, f"the frame grid misses its duty share "
                               f"{share / GRID:.6e} by {miss / GRID:.3e}")
    return _Plan(link, a, s, c)


def _place_actives(state: _State, plan: _Plan, forbidden: list[tuple[int, int]]):
    """First-fit actives over the parent's chains, leftmost gap first, each
    chain's pieces occupied as they are taken.

    forbidden covers partner footprints fixed so far; the link's own actives
    on other chains are excluded as they accrue (a link cannot drive two
    radio chains at the same time). Occupying before the pauses moves no
    piece: a pair's pauses block both links' actives anyway.
    """
    bs = plan.link.parent
    remaining = plan.active_time
    pieces, active = [], []
    chains = state.chains[bs]
    for chain in state.chains_in_use(bs):
        if remaining <= 0:
            break
        # every list here is merged already, and so are the pieces of one walk
        busy = chains[chain] if chain < len(chains) else []
        blocked = _merge(busy + forbidden + active) if forbidden or active else busy
        taken, remaining = _take_free(blocked, remaining)
        if taken:
            pieces += [(chain, s, e) for s, e in taken]
            state.occupy(bs, chain, taken)
            active = _merge(active + taken) if active else taken
    if remaining > TRIM_CAP:
        raise PlacementFailure(plan.link.id, f"{remaining / GRID:.3e} of active time found "
                               f"no free radio chain at B{bs}")
    plan.parent_pieces, plan.active = pieces, active  # pieces ascend by (chain, start)
    plan.active_time -= remaining


def _place_pause(state: _State, plan: _Plan, forbidden: list[tuple[int, int]], reuse_first: bool):
    """Pause periods: anywhere outside forbidden zones, since paused links
    hold no radio chain. With reuse_first, prefer time already covered by
    other links' actives so blank chain time stays available."""
    needed = plan.footprint_need - plan.active_time
    active = plan.active
    if needed <= 0:
        plan.pause, plan.footprint = [], active
        return
    blocked = _merge(forbidden + active) if forbidden and active else forbidden or active
    if reuse_first:
        # with the gaps of the covered time blocked too, only covered time is free
        gaps, _ = _take_free(state.all_busy(plan.link.parent), GRID)
        taken, needed = _take_free(_merge(blocked + gaps), needed)
        if needed > 0:
            more, needed = _take_free(_merge(blocked + taken), needed)
            taken = _merge(taken + more)
    else:
        taken, needed = _take_free(blocked, needed)
    if needed > TRIM_CAP:
        raise PlacementFailure(plan.link.id, f"{needed / GRID:.3e} of pause time found "
                               "no room in the frame")
    plan.pause, plan.footprint = taken, _merge(active + taken)


def _finish_link(state: _State, plan: _Plan) -> None:
    """Fix the child-side actives and occupy them on the child BS's chain 0."""
    if plan.link.hop_count == 1:
        # one physical link: both endpoint radios are live during the actives
        plan.child = sorted((s, e) for _, s, e in plan.parent_pieces)
    else:
        plan.child = _take_trailing(plan.pause, plan.child_need)
    state.occupy(plan.link.child, 0, plan.child)


def _place_link(state: _State, plan: _Plan, forbidden: list[tuple[int, int]]) -> None:
    _place_actives(state, plan, forbidden)
    _place_pause(state, plan, forbidden, reuse_first=False)
    _finish_link(state, plan)


def build_schedule(topology: NetworkTopology, p_first: dict[int, float]) -> Schedule:
    """Realize the active-time fractions as a frame schedule.

    Raises PlacementFailure when some link's active time cannot be packed
    onto the available radio chains (possible in limited-radio-chain
    settings; the LP bound is then reported as unrealized) or its duty
    share cannot be realized on the frame grid. Raises InvalidTopology on a
    topology that is not a valid tree, interference pairs that break the
    one-partner-per-BS rule of the placement included.
    """
    if topology.violations:
        raise InvalidTopology(topology.violations)
    state = _State(topology)
    plans = {l.id: _plan_for(l, p_first) for l in topology.links}
    # per BS, its interfering sibling pairs by lower id and the child link
    # paired with the link into it: one partner per link, by the
    # one-partner-per-BS rule
    pairs, paired, inbound_partner = {}, set(), {}
    for a, b in topology.interference_pairs:  # ascending
        la, lb = plans[a].link, plans[b].link
        if la.parent == lb.parent:
            pairs.setdefault(la.parent, []).append((plans[a], plans[b]))
            paired |= {a, b}
        elif la.child == lb.parent:
            inbound_partner[lb.parent] = plans[b]
        else:
            inbound_partner[la.parent] = plans[a]

    for bs in topology.subtree(topology.macro.id):
        local = topology.child_links(bs)  # ascending link id
        if not local:
            continue  # a leaf places nothing
        first = inbound_partner.get(bs)
        if first is not None:
            # the inbound link (id bs) was placed at the parent BS, its
            # child-side actives are on our chain 0 already, and its partner
            # among our child links must dodge its whole footprint
            _place_link(state, first, forbidden=plans[bs].footprint)

        # links with no partner among the local links
        for link in local:
            plan = plans[link.id]
            if plan is not first and link.id not in paired:
                _place_link(state, plan, forbidden=[])

        # interfering pairs, by their lower id: both actives first, then both
        # pauses; pauses prefer time already spent by other links so blank
        # chain time is kept
        for a, b in pairs.get(bs, ()):
            _place_actives(state, a, forbidden=[])
            _place_actives(state, b, forbidden=a.active)
            _place_pause(state, a, forbidden=b.active, reuse_first=True)
            _place_pause(state, b, forbidden=a.footprint, reuse_first=True)
            _finish_link(state, a)
            _finish_link(state, b)

    return _emit(plans)


def carries_over(schedule: Schedule, source: NetworkTopology, topology: NetworkTopology) -> bool:
    """Whether build_schedule(topology, p_first) returns schedule, which
    build_schedule(source, p_first) returned, for the same p_first.

    The two topologies share links and pairs and differ only in chain
    counts. build_schedule reads a chain budget only through
    _State.chains_in_use, which walks the chains in use and then the first
    free one, up to the budget; the child side is always chain 0. So when
    topology's budget is at most source's at every BS, and every parent-side
    piece of the schedule sits on a chain below topology's budget at the
    link's parent, each first-fit walk under topology takes what the walk
    under source took and skips only chains on which it took nothing. A
    larger budget carries nothing over: where source ran out of chains and
    trimmed up to TRIM_CAP, it would place that time on a new chain. Nor
    does a topology with violations, which build_schedule refuses.
    """
    budget = {s.id: s.radio_chains for s in topology.stations}
    if topology.violations or any(budget[s.id] > s.radio_chains for s in source.stations):
        return False
    return all(chain < budget[link.parent] for link in topology.links
               for chain, _, _ in schedule.links[link.id].parent_side)


def _emit(plans: dict[int, _Plan]) -> Schedule:
    return Schedule(links={
        lid: LinkSchedule(
            [(s / GRID, e / GRID) for s, e in plan.footprint],
            [(chain, s / GRID, e / GRID) for chain, s, e in plan.parent_pieces],
            [(0, s / GRID, e / GRID) for s, e in plan.child],
        )
        for lid, plan in plans.items()
    })


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
    }


def _pieces(side) -> list[tuple[int, float, float]]:
    return [(json_int(p["chain"]), json_float(p["start"]), json_float(p["end"])) for p in side]


def _link_schedule(entry) -> LinkSchedule:
    footprint = [(json_float(s), json_float(e)) for s, e in entry["footprint"]]
    return LinkSchedule(footprint, _pieces(entry["parent_side"]), _pieces(entry["child_side"]))


def schedule_from_dict(data: dict) -> Schedule:
    """Read a schedule dict; top-level keys other than links are ignored, so
    the chains view and meta of files written by older versions read too."""
    with schema("schedule"):
        return Schedule(links=json_map(data["links"], _link_schedule))
