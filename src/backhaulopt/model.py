"""Network model: base stations, logical links, tree topology, demands.

The physical relay paths between base stations are abstracted away; a
logical link keeps only its hop count and the endpoint capacity profile
derived from it (see capacity). Link ids equal the id of the child BS the
link feeds, which is also how the inbound link of a BS is found.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from backhaulopt import capacity as _capacity
from backhaulopt.errors import InconsistentInput, NonFiniteInput, UnknownBS

MACRO = "macro"
SMALL = "small"


@dataclass(frozen=True)
class BaseStation:
    id: int
    kind: str  # MACRO or SMALL
    radio_chains: int


@dataclass(frozen=True)
class LogicalLink:
    """Inbound logical link of base station `child` (id == child).

    capacity_gbps / p_first_max / p_last_max are normally derived from
    hop_count and phy_rate_gbps via capacity.link_profile, but may carry
    explicit overrides loaded from an input file.
    """

    id: int
    parent: int
    child: int
    hop_count: int
    phy_rate_gbps: float
    capacity_gbps: float
    p_first_max: float
    p_last_max: float


@dataclass(frozen=True)
class ModelViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})"


def make_link(
    link_id: int,
    parent: int,
    child: int,
    hop_count: int,
    phy_rate_gbps: float = _capacity.DEFAULT_PHY_RATE_GBPS,
    capacity_gbps: float | None = None,
    p_first_max: float | None = None,
    p_last_max: float | None = None,
) -> LogicalLink:
    """Build a link, deriving the capacity profile unless overridden."""
    profile = _capacity.link_profile(hop_count, phy_rate_gbps)
    for name, value in (
        ("capacity_gbps", capacity_gbps),
        ("p_first_max", p_first_max),
        ("p_last_max", p_last_max),
    ):
        if value is not None and not math.isfinite(value):
            raise NonFiniteInput(f"link {link_id} {name} must be finite, got {value}")
    return LogicalLink(
        id=link_id,
        parent=parent,
        child=child,
        hop_count=hop_count,
        phy_rate_gbps=phy_rate_gbps,
        capacity_gbps=profile.capacity_gbps if capacity_gbps is None else capacity_gbps,
        p_first_max=profile.p_first_max if p_first_max is None else p_first_max,
        p_last_max=profile.p_last_max if p_last_max is None else p_last_max,
    )


class NetworkTopology:
    """Immutable tree of one macro BS and its small-cell BSs.

    Construction never raises on structural garbage; `violations` holds the
    report, computed once, and `subtree` reads an index built by one walk
    from the macro. All other operations assume a valid topology.
    """

    def __init__(
        self,
        stations: Iterable[BaseStation],
        links: Iterable[LogicalLink],
        interference_pairs: Iterable[tuple[int, int]] = (),
    ):
        self.stations: tuple[BaseStation, ...] = tuple(sorted(stations, key=lambda s: s.id))
        self.links: tuple[LogicalLink, ...] = tuple(sorted(links, key=lambda l: l.id))
        pairs = {tuple(sorted(p)) for p in interference_pairs}
        self.interference_pairs: tuple[tuple[int, int], ...] = tuple(sorted(pairs))

        self._station_by_id = {s.id: s for s in self.stations}
        self._link_by_id = {l.id: l for l in self.links}
        self._children: dict[int, list[LogicalLink]] = {s.id: [] for s in self.stations}
        for link in self.links:
            if link.parent in self._children:
                self._children[link.parent].append(link)
        self._partners: dict[int, list[int]] = {l.id: [] for l in self.links}
        for a, b in self.interference_pairs:  # sorted with a <= b, so each list ascends
            if a in self._partners and b in self._partners:
                self._partners[a].append(b)
                self._partners[b].append(a)

    @cached_property
    def violations(self) -> tuple[ModelViolation, ...]:
        """validate_tree plus validate_interference_model; empty on a valid tree."""
        return tuple(validate_tree(self) + validate_interference_model(self))

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], dict[int, slice]]:
        order, via, stack = [], {}, [(s.id, None) for s in self.stations if s.kind == MACRO][:1]
        while stack:
            bs, parent = stack.pop()
            if bs not in via:  # a cyclic topology must not hang us
                via[bs] = parent  # the BS whose link the walk took to bs
                order.append(bs)
                stack += [(l.child, bs) for l in reversed(self._children.get(bs, ()))]
        size = dict.fromkeys(order, 1)
        for bs in reversed(order[1:]):
            size[via[bs]] += size[bs]
        return tuple(order), {bs: slice(i, i + size[bs]) for i, bs in enumerate(order)}

    # -- lookups ----------------------------------------------------------

    @property
    def macro(self) -> BaseStation:
        for s in self.stations:
            if s.kind == MACRO:
                return s
        raise UnknownBS("topology has no macro BS")

    def station(self, bs_id: int) -> BaseStation:
        try:
            return self._station_by_id[bs_id]
        except KeyError:
            raise UnknownBS(f"no base station with id {bs_id}") from None

    def link(self, link_id: int) -> LogicalLink:
        try:
            return self._link_by_id[link_id]
        except KeyError:
            raise UnknownBS(f"no logical link with id {link_id}") from None

    def has_link(self, link_id: int) -> bool:
        return link_id in self._link_by_id

    def child_links(self, bs_id: int) -> list[LogicalLink]:
        """Links whose first physical link starts at bs_id, ascending id."""
        if bs_id not in self._station_by_id:
            raise UnknownBS(f"no base station with id {bs_id}")
        return list(self._children.get(bs_id, []))

    def inbound_link(self, bs_id: int) -> LogicalLink | None:
        """The link feeding bs_id, None for the macro."""
        if bs_id not in self._station_by_id:
            raise UnknownBS(f"no base station with id {bs_id}")
        return self._link_by_id.get(bs_id)

    def partners(self, link_id: int) -> list[int]:
        """Ids of links interfering with link_id, ascending."""
        return list(self._partners.get(link_id, ()))

    def subtree(self, bs_id: int) -> tuple[int, ...]:
        """BS ids under bs_id in preorder, child links by ascending id; a slice of the macro's."""
        order, spans = self._tree
        if bs_id not in spans:
            raise UnknownBS(f"B{bs_id} is not reached from the macro")
        return order[spans[bs_id]]

    def small_bs_ids(self) -> list[int]:
        return [s.id for s in self.stations if s.kind == SMALL]


def attached_links(topology: NetworkTopology, bs_id: int) -> list[LogicalLink]:
    """All links with a physical endpoint at bs_id (inbound + child links), ascending id."""
    links = topology.child_links(bs_id)
    inbound = topology.inbound_link(bs_id)
    if inbound is not None:
        links.append(inbound)
    return sorted(links, key=lambda l: l.id)


def subtree_bs_set(topology: NetworkTopology, bs_id: int) -> frozenset[int]:
    """BS ids in the subtree rooted at bs_id, including bs_id itself.

    For a link L_i this is the serving set of its child BS i: every BS whose
    traffic crosses the link. An independent walk per call: the reference
    that validate_tree and the tests hold NetworkTopology.subtree to.
    """
    topology.station(bs_id)
    seen = set()
    stack = [bs_id]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue  # a cyclic topology must not hang us
        seen.add(cur)
        for link in topology.child_links(cur):
            stack.append(link.child)
    return frozenset(seen)


def validate_tree(topology: NetworkTopology) -> list[ModelViolation]:
    """Structural checks; empty list means the topology is a valid tree."""
    out: list[ModelViolation] = []
    macros = [s for s in topology.stations if s.kind == MACRO]
    if not macros:
        out.append(ModelViolation("NoMacro", "topology has no macro BS"))
    elif len(macros) > 1:
        ids = ", ".join(str(s.id) for s in macros)
        out.append(ModelViolation("DuplicateMacro", f"BSs {ids}"))

    seen_ids = set()
    for s in topology.stations:
        if s.id in seen_ids:
            out.append(ModelViolation("DuplicateBS", f"B{s.id}"))
        seen_ids.add(s.id)
        if s.kind not in (MACRO, SMALL):
            out.append(ModelViolation("UnknownKind", f"B{s.id} kind={s.kind!r}"))
        if s.radio_chains < 1:
            out.append(ModelViolation("BadRadioChains", f"B{s.id} has {s.radio_chains}"))

    inbound_of: dict[int, list[int]] = {}
    for link in topology.links:
        if link.parent not in topology._station_by_id or link.child not in topology._station_by_id:
            out.append(ModelViolation("UnknownEndpoint", f"link {link.id}"))
            continue
        if link.parent == link.child:
            out.append(ModelViolation("SelfLoop", f"link {link.id} at B{link.parent}"))
        if link.id != link.child:
            out.append(ModelViolation("LinkIdMismatch", f"link {link.id} feeds B{link.child}"))
        if macros and link.child == macros[0].id:
            out.append(ModelViolation("MacroInbound", f"link {link.id}"))
        if link.hop_count < 1:
            out.append(ModelViolation("BadHopCount", f"link {link.id} hops={link.hop_count}"))
        if link.capacity_gbps <= 0:
            out.append(ModelViolation("BadCapacity", f"link {link.id}"))
        if not (0.0 < link.p_first_max <= 1.0) or not (0.0 < link.p_last_max <= 1.0):
            out.append(ModelViolation("BadProfile", f"link {link.id}"))
        inbound_of.setdefault(link.child, []).append(link.id)

    for bs_id, link_ids in inbound_of.items():
        if len(link_ids) > 1:
            out.append(ModelViolation("DuplicateInbound", f"B{bs_id} links {link_ids}"))

    if len(macros) == 1:
        # every small BS must be reachable from the macro with exactly one inbound link
        reached = subtree_bs_set(topology, macros[0].id)
        for s in topology.stations:
            if s.kind == SMALL and s.id not in reached:
                out.append(ModelViolation("NotATree", f"B{s.id} unreachable from macro"))
            if s.kind == SMALL and s.id not in inbound_of:
                out.append(ModelViolation("MissingInbound", f"B{s.id}"))
        if len(topology.links) != len(topology.stations) - 1 and not any(
            v.kind in ("UnknownEndpoint", "DuplicateInbound", "MissingInbound") for v in out
        ):
            out.append(
                ModelViolation(
                    "NotATree",
                    f"{len(topology.links)} links for {len(topology.stations)} BSs",
                )
            )
    return out


def validate_interference_model(topology: NetworkTopology) -> list[ModelViolation]:
    """Checks the limited-interference structure of the pair list.

    Interfering links must share a BS endpoint, and at each BS an attached
    link may have at most one interference partner among the links attached
    to that same BS (so a link has at most two partners overall, one per end).
    """
    out: list[ModelViolation] = []
    partner_at: dict[tuple[int, int], list[int]] = {}
    for a, b in topology.interference_pairs:
        if a == b:
            out.append(ModelViolation("SelfPair", f"link {a}"))
            continue
        if not topology.has_link(a) or not topology.has_link(b):
            out.append(ModelViolation("UnknownLink", f"pair ({a}, {b})"))
            continue
        la, lb = topology.link(a), topology.link(b)
        shared = {la.parent, la.child} & {lb.parent, lb.child}
        if not shared:
            out.append(ModelViolation("NoSharedBS", f"pair ({a}, {b})"))
            continue
        for bs in shared:
            partner_at.setdefault((bs, a), []).append(b)
            partner_at.setdefault((bs, b), []).append(a)
    for (bs, link_id), partners in sorted(partner_at.items()):
        if len(partners) > 1:
            out.append(
                ModelViolation(
                    "TooManyPartnersAtBS",
                    f"B{bs}, link {link_id} paired with links {sorted(partners)}",
                )
            )
    return out


# -- JSON round-trip -------------------------------------------------------


def topology_to_dict(topology: NetworkTopology) -> dict:
    links = []
    for l in topology.links:
        entry = {
            "id": l.id,
            "parent": l.parent,
            "child": l.child,
            "hops": l.hop_count,
            "phy_rate_gbps": l.phy_rate_gbps,
        }
        derived = _capacity.link_profile(max(l.hop_count, 1), l.phy_rate_gbps)
        if (l.capacity_gbps, l.p_first_max, l.p_last_max) != (
            derived.capacity_gbps,
            derived.p_first_max,
            derived.p_last_max,
        ):
            entry["capacity_gbps"] = l.capacity_gbps
            entry["p_first_max"] = l.p_first_max
            entry["p_last_max"] = l.p_last_max
        links.append(entry)
    return {
        "stations": [
            {"id": s.id, "kind": s.kind, "radio_chains": s.radio_chains}
            for s in topology.stations
        ],
        "links": links,
        "interference": [list(p) for p in topology.interference_pairs],
    }


def topology_from_dict(data: Mapping) -> NetworkTopology:
    try:
        stations = [
            BaseStation(int(s["id"]), str(s["kind"]), int(s["radio_chains"]))
            for s in data["stations"]
        ]
        links = [
            make_link(
                int(l["id"]),
                int(l["parent"]),
                int(l["child"]),
                int(l["hops"]),
                float(l.get("phy_rate_gbps", _capacity.DEFAULT_PHY_RATE_GBPS)),
                capacity_gbps=(None if "capacity_gbps" not in l else float(l["capacity_gbps"])),
                p_first_max=(None if "p_first_max" not in l else float(l["p_first_max"])),
                p_last_max=(None if "p_last_max" not in l else float(l["p_last_max"])),
            )
            for l in data["links"]
        ]
        pairs = [(int(a), int(b)) for a, b in data.get("interference", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InconsistentInput(f"topology JSON does not match schema: {exc}") from exc
    return NetworkTopology(stations, links, pairs)


def load_topology(path: str) -> NetworkTopology:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InconsistentInput(f"cannot read topology from {path}: {exc}") from exc
    return topology_from_dict(data)


def save_topology(topology: NetworkTopology, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class TrafficDemand:
    """Per-small-BS demand vector; aggregate is the sum over all small BSs."""

    per_bs: Mapping[int, float] = field(default_factory=dict)

    @property
    def aggregate(self) -> float:
        return float(sum(self.per_bs.values()))

    def subtree_demand(self, topology: NetworkTopology, link_id: int) -> float:
        """Total demand routed over link_id (its child subtree's demand)."""
        members = subtree_bs_set(topology, topology.link(link_id).child)
        return float(sum(self.per_bs.get(b, 0.0) for b in members))
