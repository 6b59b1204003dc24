"""LP formulations of the maximum supportable traffic demand problem.

Four regimes are covered by two switches: interference (minimal: no two
links interfere / limited: listed pairs must never transmit concurrently)
and radio chains (enough: one per attached link / limited: the per-BS
radio_chains budget binds). The decision variables are the per-BS demand
(one shared D_B for the equal-demand objective, one D_i per small BS for
the aggregate objectives) and the active-time fraction p_f[i] of each
link's first physical link. The last physical link's fraction is not a
variable: allocating it beyond p_f[i] * P_l/P_f is useless, so it is
eliminated through that identity.

The aggregate objectives are solved by the simplex. The equal-demand
optimum has a closed form, which solve_equal_demand computes directly;
build_equal_demand_lp still builds its LP, the route tests check it against.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from backhaulopt import model as _model
from backhaulopt.errors import (
    InconsistentInput,
    InfeasibleFloor,
    InterferenceNotMinimal,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    SolverFailure,
)
from backhaulopt.lp import LinearProgram, LpStatus, Relation, solve
from backhaulopt.model import NetworkTopology, subtree_bs_set  # noqa: F401 (perfbench wraps it)


class Interference(enum.Enum):
    MINIMAL = "MI"
    LIMITED = "LI"


class RadioChains(enum.Enum):
    ENOUGH = "ER"
    LIMITED = "LR"


@dataclass(frozen=True)
class Setting:
    interference: Interference
    radio_chains: RadioChains

    @property
    def name(self) -> str:
        return f"{self.interference.value}-{self.radio_chains.value}"


class Objective(enum.Enum):
    EQUAL_DEMAND = "equal_demand"
    AGGREGATE = "aggregate"
    AGGREGATE_FAIR = "aggregate_fair"


_SETTING_RE = re.compile(r"^(MI|LI)-(ER|LR)(?:\((\d+)\))?$")


def parse_setting(name: str) -> tuple[Setting, int | None]:
    """Parse names like MI-ER, LI-LR, MI-LR(2).

    The optional (k) suffix is the macro radio-chain count used when the
    limited-radio-chain budget is (re)assigned; it is returned separately
    since the Setting itself only carries the two regime switches.
    """
    m = _SETTING_RE.match(name.strip())
    if not m:
        raise InconsistentInput(f"unknown setting name {name!r}")
    interference = Interference.MINIMAL if m.group(1) == "MI" else Interference.LIMITED
    chains = RadioChains.ENOUGH if m.group(2) == "ER" else RadioChains.LIMITED
    macro_chains = int(m.group(3)) if m.group(3) else None
    if macro_chains is not None and chains is RadioChains.ENOUGH:
        raise InconsistentInput(f"{name!r}: a macro chain count only applies to LR settings")
    return Setting(interference, chains), macro_chains


@dataclass
class DemandSolution:
    """A demand optimum: demands plus the link schedule fractions."""

    objective: Objective
    per_bs: dict[int, float]
    p_first: dict[int, float]
    p_last: dict[int, float]
    d_b_gbps: float | None = None  # equal-demand optimum (also the fair floor source)
    fair_floor_gbps: float | None = None
    lp_iterations: int = 0

    @property
    def aggregate_gbps(self) -> float:
        return float(sum(self.per_bs.values()))


def _check_topology(topology: NetworkTopology, setting: Setting) -> None:
    if topology.violations:
        raise InvalidTopology(topology.violations)
    if not topology.links:
        raise InvalidTopology(
            [_model.ModelViolation("NoSmallBS", "demand is undefined without small cells")]
        )
    if setting.interference is Interference.MINIMAL and topology.interference_pairs:
        raise InterferenceNotMinimal(
            f"{len(topology.interference_pairs)} interference pairs present; "
            "use an LI setting or strip the pairs"
        )
    if setting.radio_chains is RadioChains.ENOUGH:
        short = [
            s.id
            for s in topology.stations
            if s.radio_chains < len(_model.attached_links(topology, s.id))
        ]
        if short:
            raise InvalidTopology(
                [
                    _model.ModelViolation(
                        "InsufficientChains",
                        f"B{b} has fewer radio chains than attached links "
                        "(enough-radio-chain setting)",
                    )
                    for b in short
                ]
            )


def _needs_p_vars(setting: Setting) -> bool:
    return (
        setting.interference is Interference.LIMITED
        or setting.radio_chains is RadioChains.LIMITED
    )


@dataclass
class _VarMap:
    """Column layout of a formulation LP."""

    demand_cols: dict[int, int]  # small BS id -> its demand column
    p_cols: dict[int, int] = field(default_factory=dict)  # link id -> column
    # link id -> {demand column: subtree BSs on it}, the demand the link carries
    carried: dict[int, dict[int, int]] = field(default_factory=dict)


def _add_p_constraints(
    lp: LinearProgram, topology: NetworkTopology, setting: Setting, vmap: _VarMap
) -> None:
    """Box bounds plus the interference and radio-chain constraint families."""
    for link in topology.links:
        lp.set_bounds(vmap.p_cols[link.id], 0.0, link.p_first_max)

    if setting.interference is Interference.LIMITED:
        # interfering links must share the frame: p_i/P_i + p_j/P_j <= 1
        for a, b in topology.interference_pairs:
            row = [0.0] * lp.num_vars
            row[vmap.p_cols[a]] = 1.0 / topology.link(a).p_first_max
            row[vmap.p_cols[b]] = 1.0 / topology.link(b).p_first_max
            lp.add_constraint(row, Relation.LE, 1.0)

    if setting.radio_chains is RadioChains.LIMITED:
        # per-BS radio-chain time: last-link share of the inbound link plus
        # first-link shares of all child links
        for s in topology.stations:
            row = [0.0] * lp.num_vars
            inbound = topology.inbound_link(s.id)
            if inbound is not None:
                row[vmap.p_cols[inbound.id]] = inbound.p_last_max / inbound.p_first_max
            for child in topology.child_links(s.id):
                row[vmap.p_cols[child.id]] += 1.0
            if any(row):
                lp.add_constraint(row, Relation.LE, float(s.radio_chains))


def _build_demand_lp(
    topology: NetworkTopology,
    setting: Setting,
    demand_names: list[str],
    demand_cols: dict[int, int],
    floors: dict[int, float] | None = None,
) -> tuple[LinearProgram, _VarMap]:
    """maximize the sum of the demand columns over the capacity program.

    Each small BS demands its column of demand_cols; a link must carry the
    demand of every BS in its subtree. With minimal interference and enough
    radio chains the active-time fractions are unconstrained apart from
    their boxes, so the LP holds the demands alone; otherwise one p_f[i]
    per link joins the program.
    """
    _check_topology(topology, setting)
    with_p = _needs_p_vars(setting)

    names = list(demand_names)
    vmap = _VarMap(demand_cols=demand_cols)
    if with_p:
        for link in topology.links:
            vmap.p_cols[link.id] = len(names)
            names.append(f"p_f[{link.id}]")
    lp = LinearProgram(len(names), names)
    obj = [0.0] * lp.num_vars
    for col in demand_cols.values():
        obj[col] = 1.0
    lp.set_objective(obj)

    for link in topology.links:
        members = topology.subtree(link.child)
        carried = vmap.carried[link.id] = Counter(demand_cols[b] for b in members)
        row = [0.0] * lp.num_vars
        for col, count in carried.items():
            row[col] = -float(count)
        if with_p:
            # (C_i / P_i^f) p_i >= demand carried by link i
            row[vmap.p_cols[link.id]] = link.capacity_gbps / link.p_first_max
            lp.add_constraint(row, Relation.GE, 0.0)
        else:
            # demand carried by link i <= C_i
            lp.add_constraint(row, Relation.GE, -link.capacity_gbps)
    if with_p:
        _add_p_constraints(lp, topology, setting, vmap)
    if floors:
        for b, floor in floors.items():
            if floor > 0.0:
                lp.set_bounds(demand_cols[b], floor, math.inf)
    return lp, vmap


def build_equal_demand_lp(
    topology: NetworkTopology, setting: Setting
) -> tuple[LinearProgram, _VarMap]:
    """maximize D_B, every small BS demanding D_B."""
    cols = dict.fromkeys(topology.small_bs_ids(), 0)
    return _build_demand_lp(topology, setting, ["D_B"], cols)


def build_aggregate_lp(
    topology: NetworkTopology,
    setting: Setting,
    floors: dict[int, float] | None = None,
) -> tuple[LinearProgram, _VarMap]:
    """maximize sum of per-BS demands, optionally with per-BS floors."""
    small = topology.small_bs_ids()
    names = [f"D[{b}]" for b in small]
    cols = {b: i for i, b in enumerate(small)}
    return _build_demand_lp(topology, setting, names, cols, floors)


def _p_last(topology: NetworkTopology, p_first: dict[int, float]) -> dict[int, float]:
    return {l.id: p_first[l.id] * l.p_last_max / l.p_first_max for l in topology.links}


def _decode(
    topology: NetworkTopology, vmap: _VarMap, assignment, objective: Objective
) -> DemandSolution:
    demand = {c: max(float(assignment[c]), 0.0) for c in vmap.demand_cols.values()}
    per_bs = {b: demand[c] for b, c in vmap.demand_cols.items()}
    p_first = {}
    for link in topology.links:
        if vmap.p_cols:
            p = float(assignment[vmap.p_cols[link.id]])
        else:
            # smallest feasible fraction for the demand the link carries
            carried = sum(count * demand[c] for c, count in vmap.carried[link.id].items())
            p = link.p_first_max * carried / link.capacity_gbps
        p_first[link.id] = min(max(p, 0.0), link.p_first_max)
    return DemandSolution(
        objective=objective,
        per_bs=per_bs,
        p_first=p_first,
        p_last=_p_last(topology, p_first),
        d_b_gbps=float(assignment[0]) if objective is Objective.EQUAL_DEMAND else None,
    )


def solve_equal_demand(topology: NetworkTopology, setting: Setting) -> DemandSolution:
    """Largest demand D_B that every small BS can get at once, in closed form.

    Every constraint of the equal-demand program apart from the demand rows
    has nonnegative coefficients on the fractions, so the cheapest feasible
    choice for demand D is p_i = P_i^f |B_i| D / C_i, and each constraint
    family becomes an upper bound on D: C_i/|B_i| per link, one per
    interference pair under LI, one per BS under LR. D_B is the smallest.
    No LP is solved, so lp_iterations is 0; build_equal_demand_lp keeps the
    same program for an independent check.
    """
    _check_topology(topology, setting)
    size = {link.id: len(topology.subtree(link.child)) for link in topology.links}
    # p_i / P_i^f per Gbps of D at the cheapest fractions
    load = {link.id: size[link.id] / link.capacity_gbps for link in topology.links}
    bounds = [link.capacity_gbps / size[link.id] for link in topology.links]
    if setting.interference is Interference.LIMITED:
        # p_a/P_a + p_b/P_b <= 1
        bounds.extend(1.0 / (load[a] + load[b]) for a, b in topology.interference_pairs)
    if setting.radio_chains is RadioChains.LIMITED:
        # inbound last-link time plus the child links' first-link time
        for s in topology.stations:
            inbound = topology.inbound_link(s.id)
            total = 0.0 if inbound is None else inbound.p_last_max * load[inbound.id]
            for child in topology.child_links(s.id):
                total += child.p_first_max * load[child.id]
            if total > 0.0:
                bounds.append(s.radio_chains / total)
    d_b = min(bounds)

    p_first = {
        link.id: min(
            max(link.p_first_max * (size[link.id] * d_b) / link.capacity_gbps, 0.0),
            link.p_first_max,
        )
        for link in topology.links
    }
    return DemandSolution(
        objective=Objective.EQUAL_DEMAND,
        per_bs=dict.fromkeys(topology.small_bs_ids(), d_b),
        p_first=p_first,
        p_last=_p_last(topology, p_first),
        d_b_gbps=d_b,
    )


def solve_aggregate(
    topology: NetworkTopology,
    setting: Setting,
    fair: bool = False,
    fair_floor: float | None = None,
) -> DemandSolution:
    """Aggregate-demand optimum; optionally with the max-min fairness floor.

    fair=True first solves the equal-demand program and uses its optimum as
    a demand floor for every small BS (two-step fair aggregate). An explicit
    fair_floor overrides step one; an unreachable floor raises
    InfeasibleFloor.
    """
    floors = None
    floor_val = None
    if fair:
        if fair_floor is None:
            floor_val = solve_equal_demand(topology, setting).d_b_gbps
        else:
            floor_val = float(fair_floor)
            if not math.isfinite(floor_val):
                raise NonFiniteInput(f"fair floor {floor_val} is not a finite number")
            if floor_val < 0.0:
                raise InconsistentInput(f"fair floor {floor_val} is negative")
        floors = {b: floor_val for b in topology.small_bs_ids()}
    lp, vmap = build_aggregate_lp(topology, setting, floors)
    sol = solve(lp)
    if sol.status is LpStatus.INFEASIBLE:
        raise InfeasibleFloor(f"no feasible demand vector with floor {floor_val}")
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(f"aggregate LP was {sol.status.value}")
    out = _decode(
        topology, vmap, sol.assignment, Objective.AGGREGATE_FAIR if fair else Objective.AGGREGATE
    )
    out.fair_floor_gbps = floor_val
    out.lp_iterations = sol.iterations
    return out


def solve_objective(
    topology: NetworkTopology,
    setting: Setting,
    objective: Objective,
    fair_floor: float | None = None,
) -> DemandSolution:
    if objective is Objective.EQUAL_DEMAND:
        return solve_equal_demand(topology, setting)
    if objective is Objective.AGGREGATE:
        return solve_aggregate(topology, setting)
    return solve_aggregate(topology, setting, fair=True, fair_floor=fair_floor)


def min_radio_chains(topology: NetworkTopology, p_first: dict[int, float]) -> dict[int, int]:
    """Fewest radio chains per BS that could realize the given fractions.

    A BS must cover the summed active time of its attached physical links;
    each chain covers at most the whole frame, so the count is the ceiling
    of that sum (with a 1e-9 slack so exact integers do not round up).
    """
    out = {}
    for s in topology.stations:
        total = 0.0
        inbound = topology.inbound_link(s.id)
        if inbound is not None:
            if inbound.id not in p_first:
                raise MissingLink(f"p_first has no entry for link {inbound.id}")
            total += p_first[inbound.id] * inbound.p_last_max / inbound.p_first_max
        for child in topology.child_links(s.id):
            if child.id not in p_first:
                raise MissingLink(f"p_first has no entry for link {child.id}")
            total += p_first[child.id]
        out[s.id] = max(1, math.ceil(total - 1e-9))
    return out


def solution_to_dict(topology: NetworkTopology, solution: DemandSolution) -> dict:
    from backhaulopt.validator import jain_index  # local import, no cycle at module load

    return {
        "objective": solution.objective.value,
        "d_b_gbps": solution.d_b_gbps,
        "per_bs": {str(b): v for b, v in sorted(solution.per_bs.items())},
        "p_first": {str(i): v for i, v in sorted(solution.p_first.items())},
        "p_last": {str(i): v for i, v in sorted(solution.p_last.items())},
        "aggregate_gbps": solution.aggregate_gbps,
        "fair_floor_gbps": solution.fair_floor_gbps,
        "jain_index": jain_index(list(solution.per_bs.values())),
        "min_radio_chains": {
            str(b): v for b, v in sorted(min_radio_chains(topology, solution.p_first).items())
        },
    }


def _reject_number(label: str, value: float) -> None:
    if not math.isfinite(value):
        raise NonFiniteInput(f"solution {label}={value} is not a finite number")
    raise InconsistentInput(f"solution {label}={value} is negative")


def solution_from_dict(data: dict) -> DemandSolution:
    if not isinstance(data, dict):
        raise InconsistentInput("solution JSON must be an object")
    for name in ("per_bs", "p_first", "p_last"):
        if not isinstance(data.get(name), dict):
            raise InconsistentInput(f"solution JSON {name} must be an object")
    try:
        objective = Objective(data["objective"])
        per_bs = {int(b): float(v) for b, v in data["per_bs"].items()}
        p_first = {int(i): float(v) for i, v in data["p_first"].items()}
        p_last = {int(i): float(v) for i, v in data["p_last"].items()}
        d_b = data.get("d_b_gbps")
        d_b = None if d_b is None else float(d_b)
        floor = data.get("fair_floor_gbps")
        floor = None if floor is None else float(floor)
    except (KeyError, TypeError, ValueError) as exc:
        raise InconsistentInput(f"solution JSON does not match schema: {exc}") from exc
    # demands and active-time fractions are finite and never negative
    for name, values in (("per_bs", per_bs), ("p_first", p_first), ("p_last", p_last)):
        for k, v in values.items():
            if not (math.isfinite(v) and v >= 0.0):
                _reject_number(f"{name}[{k}]", v)
    for name, v in (("d_b_gbps", d_b), ("fair_floor_gbps", floor)):
        if v is not None and not (math.isfinite(v) and v >= 0.0):
            _reject_number(name, v)
    return DemandSolution(
        objective=objective,
        per_bs=per_bs,
        p_first=p_first,
        p_last=p_last,
        d_b_gbps=d_b,
        fair_floor_gbps=floor,
    )
