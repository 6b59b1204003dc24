"""Network model: base stations, logical links, tree topology, violations.

The physical relay paths between base stations are abstracted away; a
logical link keeps only its hop count and the endpoint capacity profile
derived from it (see capacity). Link ids equal the id of the child BS the
link feeds, which is also how the inbound link of a BS is found.

Every JSON file is read by read_json and written by write_json. The readers
of decoded files state their field rules in a schema block, which reports a
missing field or a wrong shape as InconsistentInput: json_int and json_float
refuse what int() and float() would truncate, coerce or overflow on (2.5,
"0.25", true, a huge integer), json_str refuses what str() would name (1,
null), and json_map reads an object keyed by ids.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Mapping

from backhaulopt import capacity as _capacity
from backhaulopt.errors import InconsistentInput, NonFiniteInput, UnknownBS

MACRO = "macro"
SMALL = "small"
TOL_INTERVAL = 1e-9  # the validator's frame-time tolerance, which the scheduler's grid meets


def float_sum(values: Iterable[float]) -> float:
    """The floats added left to right, uncompensated: what sum() gives up to
    Python 3.11. From 3.12 on sum() compensates, which moves the last bit of
    some totals, so every float total the package writes or judges is taken
    here and its bytes do not depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _slot_setters(cls) -> tuple:
    """The __set__ of each field's slot, in field order.

    BaseStation and LogicalLink are frozen slotted dataclasses whose own
    __init__ stores each field through these: the generated one makes an
    object.__setattr__ call per field, and a tree builds hundreds of records.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class BaseStation:
    id: int
    kind: str  # MACRO or SMALL
    radio_chains: int

    def __init__(self, id: int, kind: str, radio_chains: int) -> None:
        _set_bs_id(self, id)
        _set_bs_kind(self, kind)
        _set_bs_radio_chains(self, radio_chains)


_set_bs_id, _set_bs_kind, _set_bs_radio_chains = _slot_setters(BaseStation)


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        id: int,
        parent: int,
        child: int,
        hop_count: int,
        phy_rate_gbps: float,
        capacity_gbps: float,
        p_first_max: float,
        p_last_max: float,
    ) -> None:
        _set_link_id(self, id)
        _set_link_parent(self, parent)
        _set_link_child(self, child)
        _set_link_hop_count(self, hop_count)
        _set_link_phy_rate_gbps(self, phy_rate_gbps)
        _set_link_capacity_gbps(self, capacity_gbps)
        _set_link_p_first_max(self, p_first_max)
        _set_link_p_last_max(self, p_last_max)


(
    _set_link_id,
    _set_link_parent,
    _set_link_child,
    _set_link_hop_count,
    _set_link_phy_rate_gbps,
    _set_link_capacity_gbps,
    _set_link_p_first_max,
    _set_link_p_last_max,
) = _slot_setters(LogicalLink)


@dataclass(frozen=True)
class Violation:
    """One defect a tree, setting or schedule check found: its kind and where."""

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
    overrides = (capacity_gbps, p_first_max, p_last_max)
    if overrides != (None, None, None):
        for name, value in zip(("capacity_gbps", "p_first_max", "p_last_max"), overrides):
            if value is not None and not math.isfinite(value):
                raise NonFiniteInput(f"link {link_id} {name} must be finite, got {value}")
    return LogicalLink(
        link_id,
        parent,
        child,
        hop_count,
        phy_rate_gbps,
        profile.capacity_gbps if capacity_gbps is None else capacity_gbps,
        profile.p_first_max if p_first_max is None else p_first_max,
        profile.p_last_max if p_last_max is None else p_last_max,
    )


class NetworkTopology:
    """Immutable tree of one macro BS and its small-cell BSs.

    Construction never raises on structural garbage; `violations` holds the
    report, computed once, and `subtree` and `child_links` read an index
    built by one walk from the macro. All other operations assume a valid
    topology.

    Every topology comes from this constructor. A variant with new chain
    counts or a smaller pair list (generator.adapt_topology and
    strip_interference) is built by `_variant`, which lends it a valid
    source's tree index and empty verdict, so one tree is walked and checked
    once however many variants it has.
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

    def _variant(
        self,
        stations: Iterable[BaseStation] | None = None,
        interference_pairs: Iterable[tuple[int, int]] | None = None,
    ) -> NetworkTopology:
        """This topology with new stations or a new pair list.

        The caller keeps the station ids and kinds, gives every station at
        least one chain and passes a pair list that is the source's or a
        part of it. Then a valid source's variant is valid too: it takes the
        source's tree index and an empty verdict. An invalid source's
        variant computes its own.
        """
        out = NetworkTopology(
            self.stations if stations is None else stations,
            self.links,
            self.interference_pairs if interference_pairs is None else interference_pairs,
        )
        if not self.violations:
            out.__dict__["_tree"] = self._tree
            out.__dict__["violations"] = ()
        return out

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_tree plus validate_interference_model; empty on a valid tree."""
        return tuple(validate_tree(self) + validate_interference_model(self))

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], dict[int, slice], dict[int, list[LogicalLink]]]:
        """The preorder from the macro, each reached BS's span in it, and the
        child links of every station, ascending id."""
        stations = self._station_by_id
        children: dict[int, list[LogicalLink]] = {bs: [] for bs in stations}
        for link in self.links:
            if link.parent in children:
                children[link.parent].append(link)
        order, via, stack = [], {}, [(s.id, None) for s in self.stations if s.kind == MACRO][:1]
        push = stack.append
        while stack:
            bs, parent = stack.pop()
            if bs not in via:  # a cyclic topology must not hang us
                via[bs] = parent  # the BS whose link the walk took to bs
                order.append(bs)
                for l in reversed(children[bs]):
                    if l.child in stations:  # a missing BS is no leaf
                        push((l.child, bs))
        size = dict.fromkeys(order, 1)
        for bs in reversed(order[1:]):
            size[via[bs]] += size[bs]
        spans = {bs: slice(i, i + size[bs]) for i, bs in enumerate(order)}
        return tuple(order), spans, children

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
        return list(self._tree[2][bs_id])

    def inbound_link(self, bs_id: int) -> LogicalLink | None:
        """The link feeding bs_id, None for the macro."""
        if bs_id not in self._station_by_id:
            raise UnknownBS(f"no base station with id {bs_id}")
        return self._link_by_id.get(bs_id)

    def subtree(self, bs_id: int) -> tuple[int, ...]:
        """BS ids under bs_id in preorder, child links by ascending id; a slice of the macro's."""
        order = self._tree[0]
        return order[self.subtree_slice(bs_id)]

    def subtree_slice(self, bs_id: int) -> slice:
        """Where subtree(bs_id) sits in subtree(macro.id), the preorder of the whole tree."""
        spans = self._tree[1]
        if bs_id not in spans:
            raise UnknownBS(f"B{bs_id} is not reached from the macro")
        return spans[bs_id]

    def small_bs_ids(self) -> list[int]:
        return [s.id for s in self.stations if s.kind == SMALL]


def subtree_bs_set(topology: NetworkTopology, bs_id: int) -> frozenset[int]:
    """BS ids in the subtree rooted at bs_id, including bs_id itself.

    For a link L_i this is the serving set of its child BS i: every BS whose
    traffic crosses the link. An independent walk per call that raises
    UnknownBS at a link to a missing BS: the tests' reference for the index.
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


def validate_tree(topology: NetworkTopology) -> list[Violation]:
    """Structural checks; empty list means the topology is a valid tree.

    Reachability reads the tree index, so a link to a missing BS is reported
    (UnknownEndpoint), not raised."""
    out: list[Violation] = []
    macros = [s for s in topology.stations if s.kind == MACRO]
    if not macros:
        out.append(Violation("NoMacro", "topology has no macro BS"))
    elif len(macros) > 1:
        ids = ", ".join(str(s.id) for s in macros)
        out.append(Violation("DuplicateMacro", f"BSs {ids}"))

    seen_ids = set()
    for s in topology.stations:
        if s.id in seen_ids:
            out.append(Violation("DuplicateBS", f"B{s.id}"))
        seen_ids.add(s.id)
        if s.kind not in (MACRO, SMALL):
            out.append(Violation("UnknownKind", f"B{s.id} kind={s.kind!r}"))
        if s.radio_chains < 1:
            out.append(Violation("BadRadioChains", f"B{s.id} has {s.radio_chains}"))

    inbound_of: dict[int, list[int]] = {}
    for link in topology.links:
        if link.parent not in topology._station_by_id or link.child not in topology._station_by_id:
            out.append(Violation("UnknownEndpoint", f"link {link.id}"))
            continue
        if link.parent == link.child:
            out.append(Violation("SelfLoop", f"link {link.id} at B{link.parent}"))
        if link.id != link.child:
            out.append(Violation("LinkIdMismatch", f"link {link.id} feeds B{link.child}"))
        if macros and link.child == macros[0].id:
            out.append(Violation("MacroInbound", f"link {link.id}"))
        if link.hop_count < 1:
            out.append(Violation("BadHopCount", f"link {link.id} hops={link.hop_count}"))
        if link.capacity_gbps <= 0:
            out.append(Violation("BadCapacity", f"link {link.id}"))
        if not (0.0 < link.p_first_max <= 1.0) or not (0.0 < link.p_last_max <= 1.0):
            out.append(Violation("BadProfile", f"link {link.id}"))
        inbound_of.setdefault(link.child, []).append(link.id)

    for bs_id, link_ids in inbound_of.items():
        if len(link_ids) > 1:
            out.append(Violation("DuplicateInbound", f"B{bs_id} links {link_ids}"))

    if len(macros) == 1:
        # every small BS must be reachable from the macro with exactly one inbound link
        reached = set(topology.subtree(macros[0].id))
        for s in topology.stations:
            if s.kind == SMALL and s.id not in reached:
                out.append(Violation("NotATree", f"B{s.id} unreachable from macro"))
            if s.kind == SMALL and s.id not in inbound_of:
                out.append(Violation("MissingInbound", f"B{s.id}"))
        if len(topology.links) != len(topology.stations) - 1 and not any(
            v.kind in ("UnknownEndpoint", "DuplicateInbound", "MissingInbound") for v in out
        ):
            out.append(
                Violation(
                    "NotATree",
                    f"{len(topology.links)} links for {len(topology.stations)} BSs",
                )
            )
    return out


def validate_interference_model(topology: NetworkTopology) -> list[Violation]:
    """Checks the limited-interference structure of the pair list.

    Interfering links must share a BS endpoint, and at each BS an attached
    link may have at most one interference partner among the links attached
    to that same BS (so a link has at most two partners overall, one per end).
    """
    out: list[Violation] = []
    links = topology._link_by_id
    partner_at: dict[tuple[int, int], list[int]] = {}
    for a, b in topology.interference_pairs:
        if a == b:
            out.append(Violation("SelfPair", f"link {a}"))
            continue
        la, lb = links.get(a), links.get(b)
        if la is None or lb is None:
            out.append(Violation("UnknownLink", f"pair ({a}, {b})"))
            continue
        shared = {la.parent, la.child} & {lb.parent, lb.child}
        if not shared:
            out.append(Violation("NoSharedBS", f"pair ({a}, {b})"))
            continue
        for bs in shared:
            partner_at.setdefault((bs, a), []).append(b)
            partner_at.setdefault((bs, b), []).append(a)
    crowded = [key for key, partners in partner_at.items() if len(partners) > 1]
    for bs, link_id in sorted(crowded):  # only the reported keys are sorted
        out.append(
            Violation(
                "TooManyPartnersAtBS",
                f"B{bs}, link {link_id} paired with links {sorted(partner_at[bs, link_id])}",
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


def read_json(path: str, what: str):
    """Decode the JSON file at path, or raise InconsistentInput naming what it holds."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InconsistentInput(f"cannot read {what} from {path}: {exc}") from exc


def write_json(data, out: str) -> None:
    """data as JSON with indent 2, sorted keys and a final newline; out "-" is stdout."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@contextmanager
def schema(what: str):
    """Report a KeyError, TypeError or ValueError of the block as InconsistentInput."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise InconsistentInput(f"{what} JSON does not match schema: {exc}") from exc


def json_int(value) -> int:
    """A count or id field: a JSON integer, that is an int that is not a bool."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def json_str(value) -> str:
    """A name field: a JSON string."""
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a JSON string")
    return value


def json_float(value) -> float:
    """A real-number field: a JSON int or float, not a bool. NaN and inf pass."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer out of the float range") from None


def json_map(value, rule) -> dict:
    """An object keyed by ids, each key read with int() and each value with rule;
    int() reads "2", "02" and " 2" alike, so two keys for one id are a ValueError."""
    if type(value) is not dict:
        raise TypeError(f"{value!r:.40} is not an object keyed by ids")
    out = {int(k): rule(v) for k, v in value.items()}
    if len(out) < len(value):
        ids = [int(k) for k in value]
        raise ValueError(f"two keys name id {next(i for i in ids if ids.count(i) > 1)}")
    return out


def topology_from_dict(data: Mapping) -> NetworkTopology:
    with schema("topology"):
        stations = [
            BaseStation(json_int(s["id"]), json_str(s["kind"]), json_int(s["radio_chains"]))
            for s in data["stations"]
        ]
        links = [
            make_link(
                json_int(l["id"]),
                json_int(l["parent"]),
                json_int(l["child"]),
                json_int(l["hops"]),
                json_float(l.get("phy_rate_gbps", _capacity.DEFAULT_PHY_RATE_GBPS)),
                capacity_gbps=json_float(l["capacity_gbps"]) if "capacity_gbps" in l else None,
                p_first_max=json_float(l["p_first_max"]) if "p_first_max" in l else None,
                p_last_max=json_float(l["p_last_max"]) if "p_last_max" in l else None,
            )
            for l in data["links"]
        ]
        pairs = [(json_int(a), json_int(b)) for a, b in data.get("interference", [])]
    return NetworkTopology(stations, links, pairs)


def load_topology(path: str) -> NetworkTopology:
    return topology_from_dict(read_json(path, "topology"))


def save_topology(topology: NetworkTopology, path: str) -> None:
    write_json(topology_to_dict(topology), path)
