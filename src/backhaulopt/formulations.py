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

Column layout: the demand columns come first (D_B, or D[b] per small BS in
ascending id), then, under LI or LR, one p_f per link in ascending link id,
so link r's fraction is column len(demand columns) + r. MI-ER has no p_f
columns: its fractions follow from the demands alone.

solve_objective is the one entry point for the three objectives. The
aggregate objectives are solved by the simplex. The equal-demand optimum has
a closed form, which solve_equal_demand computes directly;
build_equal_demand_lp still builds its LP, the route tests check it against.

NumPy and backhaulopt.lp load with the first LP built or solved, not with
this module, so a process that never runs an LP (generate, the default
solve, schedule, validate) never imports them.

solution_to_dict writes a solution file, its Jain index by jain_index here,
and solution_from_dict reads one under model's JSON rules.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from backhaulopt import model as _model
from backhaulopt.errors import (
    AllZeroDemands,
    InconsistentInput,
    InfeasibleFloor,
    InterferenceNotMinimal,
    InvalidTopology,
    MissingLink,
    NonFiniteInput,
    SolverFailure,
)
from backhaulopt.model import NetworkTopology, float_sum, json_float, json_map, schema
from backhaulopt.model import subtree_bs_set  # noqa: F401 (perfbench wraps it)

if TYPE_CHECKING:
    from backhaulopt.lp import LinearProgram, LpSolution


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
    if not isinstance(name, str):
        raise InconsistentInput(f"unknown setting name {name!r}")
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
        return float_sum(self.per_bs.values())


def jain_index(values) -> float:
    """Jain fairness of a demand vector, 1.0 for equal shares: the values are
    scaled by their maximum first, so an all-equal vector gives exactly 1.0."""
    seq = [float(v) for v in (values.values() if isinstance(values, dict) else values)]
    if not seq or all(v <= 0.0 for v in seq):
        raise AllZeroDemands("fairness is undefined for an all-zero demand vector")
    top = max(seq)
    scaled = [v / top for v in seq]
    num = math.fsum(scaled) ** 2
    den = len(scaled) * math.fsum(v * v for v in scaled)
    return num / den


def enough_chains(topology: NetworkTopology) -> dict[int, int]:
    """Radio chains per BS under enough radio chains: one per attached link,
    that is one per child link plus, at a small BS, one for its inbound link."""
    return {
        s.id: len(topology.child_links(s.id)) + (s.kind != _model.MACRO)
        for s in topology.stations
    }


def _check_topology(topology: NetworkTopology, setting: Setting) -> None:
    if topology.violations:
        raise InvalidTopology(topology.violations)
    if not topology.links:
        raise InvalidTopology(
            [_model.Violation("NoSmallBS", "demand is undefined without small cells")]
        )
    if setting.interference is Interference.MINIMAL and topology.interference_pairs:
        raise InterferenceNotMinimal(
            f"{len(topology.interference_pairs)} interference pairs present; "
            "use an LI setting or strip the pairs"
        )
    if setting.radio_chains is RadioChains.ENOUGH:
        enough = enough_chains(topology)
        short = [s.id for s in topology.stations if s.radio_chains < enough[s.id]]
        if short:
            raise InvalidTopology(
                [
                    _model.Violation(
                        "InsufficientChains",
                        f"B{b} has fewer radio chains than attached links "
                        "(enough-radio-chain setting)",
                    )
                    for b in short
                ]
            )


def _build_demand_lp(
    topology: NetworkTopology,
    setting: Setting,
    demand_names: list[str],
    demand_cols: dict[int, int],
    floors: dict[int, float] | None = None,
) -> LinearProgram:
    """maximize the sum of the demand columns over the capacity program.

    Each small BS demands its column of demand_cols; a link must carry the
    demand of every BS in its subtree. With minimal interference and enough
    radio chains the active-time fractions are unconstrained apart from
    their boxes, so the LP holds the demands alone; otherwise link r's
    p_f column is len(demand_names) + r. The rows are filled by index into
    one matrix: links, then interference pairs under LI, then every BS
    under LR (each BS of a valid tree has a link, so no BS row is zero).
    In a valid tree the link into a BS is the link whose child it is, and
    no link is both a BS's inbound link and one of its child links, so
    every cell is written once.
    """
    import numpy as np  # here, not at module load: see the module docstring

    from backhaulopt.lp import LinearProgram, Relation

    _check_topology(topology, setting)
    limited = setting.interference is Interference.LIMITED
    links = topology.links
    pairs = topology.interference_pairs if limited else ()
    stations = topology.stations if setting.radio_chains is RadioChains.LIMITED else ()
    names = list(demand_names)
    if limited or stations:  # LI or LR: one p_f per link
        names += [f"p_f[{link.id}]" for link in links]
    p_cols = range(len(demand_names), len(names))
    lp = LinearProgram(len(names), names)
    objective = np.zeros(lp.num_vars)
    objective[list(demand_cols.values())] = 1.0
    lp.set_objective(objective)
    rows = np.zeros((len(links) + len(pairs) + len(stations), lp.num_vars))

    # a link carries the demand of each BS in its subtree: -1 per BS in its
    # demand column, so each column ends at exactly -float(count) (the macro,
    # in no link's subtree, has no column)
    pre_cols = [demand_cols.get(b, -1) for b in topology.subtree(topology.macro.id)]
    cell_rows, cell_cols = [], []
    for r, link in enumerate(links):
        cols = pre_cols[topology.subtree_slice(link.child)]
        cell_rows += [r] * len(cols)
        cell_cols += cols
    np.subtract.at(rows, (cell_rows, cell_cols), 1.0)
    capacity = np.array([link.capacity_gbps for link in links])
    if not p_cols:
        # demand carried by link i <= C_i
        rhs = -capacity
    else:
        # (C_i / P_i^f) p_i >= demand carried by link i, with 0 <= p_i <= P_i^f
        col_of = {link.id: col for link, col in zip(links, p_cols)}
        p_first = np.array([link.p_first_max for link in links])
        rows[np.arange(len(links)), p_cols] = capacity / p_first
        for col, link in zip(p_cols, links):
            lp.set_bounds(col, 0.0, link.p_first_max)
        # interfering links must share the frame: p_i/P_i + p_j/P_j <= 1
        for side in (0, 1):
            side_links = [topology.link(pair[side]) for pair in pairs]
            rows[len(links) + np.arange(len(pairs)), [col_of[l.id] for l in side_links]] = [
                1.0 / l.p_first_max for l in side_links
            ]
        if stations:
            # per-BS radio-chain time: last-link share of the inbound link
            # plus first-link shares of all child links
            row_of = {s.id: len(links) + len(pairs) + r for r, s in enumerate(stations)}
            rows[[row_of[l.child] for l in links], p_cols] = [
                l.p_last_max / l.p_first_max for l in links
            ]
            rows[[row_of[l.parent] for l in links], p_cols] = 1.0
        chains = [float(s.radio_chains) for s in stations]
        rhs = np.concatenate([np.zeros(len(links)), np.ones(len(pairs)), chains])
    relations = [Relation.GE] * len(links) + [Relation.LE] * (len(pairs) + len(stations))
    lp.add_constraints(rows, relations, rhs)
    for b, floor in (floors or {}).items():
        if floor > 0.0:
            lp.set_bounds(demand_cols[b], floor, math.inf)
    return lp


def build_equal_demand_lp(
    topology: NetworkTopology, setting: Setting
) -> tuple[LinearProgram, dict[int, int]]:
    """maximize D_B, every small BS demanding D_B."""
    cols = dict.fromkeys(topology.small_bs_ids(), 0)
    return _build_demand_lp(topology, setting, ["D_B"], cols), cols


def build_aggregate_lp(
    topology: NetworkTopology,
    setting: Setting,
    floors: dict[int, float] | None = None,
) -> tuple[LinearProgram, dict[int, int]]:
    """maximize sum of per-BS demands, optionally with per-BS floors."""
    small = topology.small_bs_ids()
    names = [f"D[{b}]" for b in small]
    cols = {b: i for i, b in enumerate(small)}
    return _build_demand_lp(topology, setting, names, cols, floors), cols


def _p_last(topology: NetworkTopology, p_first: dict[int, float]) -> dict[int, float]:
    return {l.id: p_first[l.id] * l.p_last_max / l.p_first_max for l in topology.links}


def _cheapest_p_first(link, carried: float) -> float:
    """The smallest first-link fraction that carries `carried` Gbps on link,
    clipped to [0, P_f]: P_f * carried / C."""
    return min(max(link.p_first_max * carried / link.capacity_gbps, 0.0), link.p_first_max)


def _decode(
    topology: NetworkTopology, demand_cols: dict[int, int], assignment, objective: Objective
) -> DemandSolution:
    demand = {c: max(float(assignment[c]), 0.0) for c in demand_cols.values()}
    per_bs = {b: demand[c] for b, c in demand_cols.items()}
    p_first = {}
    for r, link in enumerate(topology.links):
        if len(assignment) > len(demand):  # the p_f columns follow the demand columns
            p = float(assignment[len(demand) + r])
            p_first[link.id] = min(max(p, 0.0), link.p_first_max)
        else:
            counts = Counter(demand_cols[b] for b in topology.subtree(link.child))
            carried = float_sum(count * demand[c] for c, count in counts.items())
            p_first[link.id] = _cheapest_p_first(link, carried)
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
    spans = [topology.subtree_slice(link.child) for link in topology.links]
    size = {link.id: span.stop - span.start for link, span in zip(topology.links, spans)}
    # p_i / P_i^f per Gbps of D at the cheapest fractions
    load = {link.id: size[link.id] / link.capacity_gbps for link in topology.links}
    bounds = [link.capacity_gbps / size[link.id] for link in topology.links]
    if setting.interference is Interference.LIMITED:
        # p_a/P_a + p_b/P_b <= 1
        bounds.extend(1.0 / (load[a] + load[b]) for a, b in topology.interference_pairs)
    if setting.radio_chains is RadioChains.LIMITED:
        time = chain_time(topology, load)
        bounds.extend(s.radio_chains / time[s.id] for s in topology.stations if time[s.id] > 0.0)
    d_b = min(bounds)

    p_first = {link.id: _cheapest_p_first(link, size[link.id] * d_b) for link in topology.links}
    return DemandSolution(
        objective=Objective.EQUAL_DEMAND,
        per_bs=dict.fromkeys(topology.small_bs_ids(), d_b),
        p_first=p_first,
        p_last=_p_last(topology, p_first),
        d_b_gbps=d_b,
    )


def solve(lp: LinearProgram, kernel=None) -> LpSolution:
    """backhaulopt.lp.simplex.solve, imported on the first call.

    Every LP this module solves goes through this name: perfbench/tracing.py
    wraps formulations.solve as the lp.solve boundary, and passes kernel=
    (its per-phase pivot hook) only while this signature has that parameter.
    """
    from backhaulopt.lp import simplex

    return simplex.solve(lp, kernel)


def solve_objective(
    topology: NetworkTopology,
    setting: Setting,
    objective: Objective,
    fair_floor: float | None = None,
) -> DemandSolution:
    """The optimum of one objective: the one entry point for all three.

    EQUAL_DEMAND is solve_equal_demand's closed form. AGGREGATE and
    AGGREGATE_FAIR solve the aggregate LP; AGGREGATE_FAIR first solves the
    equal-demand program and uses its optimum as a demand floor for every
    small BS (two-step fair aggregate). An explicit fair_floor overrides step
    one; an unreachable floor raises InfeasibleFloor, and a floor with any
    other objective raises InconsistentInput.
    """
    fair = objective is Objective.AGGREGATE_FAIR
    if fair_floor is not None and not fair:
        raise InconsistentInput(
            f"a fair floor applies only to the {Objective.AGGREGATE_FAIR.value} objective"
        )
    if objective is Objective.EQUAL_DEMAND:
        return solve_equal_demand(topology, setting)
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
    from backhaulopt.lp import LpStatus

    lp, demand_cols = build_aggregate_lp(topology, setting, floors)
    sol = solve(lp)
    if sol.status is LpStatus.INFEASIBLE:
        raise InfeasibleFloor(f"no feasible demand vector with floor {floor_val}")
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(f"aggregate LP was {sol.status.value}")
    out = _decode(topology, demand_cols, sol.assignment, objective)
    out.fair_floor_gbps = floor_val
    out.lp_iterations = sol.iterations
    return out


def chain_time(topology: NetworkTopology, share: dict[int, float]) -> dict[int, float]:
    """Radio-chain time per BS when each link runs share[link.id] of the frame
    at full rate: the last-link time P_l * share of its inbound link plus the
    first-link time P_f * share of its child links, in ascending link id."""
    time = dict.fromkeys((s.id for s in topology.stations), 0.0)
    for link in topology.links:
        time[link.child] += link.p_last_max * share[link.id]
    for link in topology.links:
        time[link.parent] += link.p_first_max * share[link.id]
    return time


def min_radio_chains(topology: NetworkTopology, p_first: dict[int, float]) -> dict[int, int]:
    """Fewest radio chains per BS that could realize the given fractions.

    A BS must cover the summed active time of its attached physical links;
    each chain covers at most the whole frame, so the count is the ceiling
    of that sum (with a 1e-9 slack so exact integers do not round up). A
    link without a p_first entry raises MissingLink, and a chain time that
    is not finite raises NonFiniteInput.
    """
    missing = [l.id for l in topology.links if l.id not in p_first]
    if missing:
        raise MissingLink(f"p_first has no entry for link {missing[0]}")
    time = chain_time(topology, {l.id: p_first[l.id] / l.p_first_max for l in topology.links})
    for b, total in time.items():
        if not math.isfinite(total):
            raise NonFiniteInput(f"radio-chain time {total} at B{b} is not a finite number")
    return {b: max(1, math.ceil(total - 1e-9)) for b, total in time.items()}


def solution_to_dict(topology: NetworkTopology, solution: DemandSolution) -> dict:
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
    with schema("solution"):
        objective = Objective(data["objective"])
        per_bs = json_map(data["per_bs"], json_float)
        p_first = json_map(data["p_first"], json_float)
        p_last = json_map(data["p_last"], json_float)
        optional = (data.get("d_b_gbps"), data.get("fair_floor_gbps"))
        d_b, floor = (None if v is None else json_float(v) for v in optional)
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
