"""Independent references the test suite checks the package against.

Everything here is closed-form arithmetic, brute-force enumeration over
basic solutions, a plain Bland-rule pivot loop, a full-rescan replay of the
topology generator, the demand LP built one Python-list row at a time, or
interval lists merged again from scratch and summed with math.fsum, or
measured by the validator's three separate interval passes, which also
merge and total every radio chain's claims for the double-drive check, and
intersected by the validator's former overlap loop; nothing
calls the package's simplex solver, LP builders, generator, scheduler or
validator, except `realizes`, which places and judges every experiment
setting afresh where the experiment carries placements over. Agreement
between these references and the package is therefore a two-route check,
not a tautology.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from backhaulopt.errors import PlacementFailure
from backhaulopt.formulations import Interference, RadioChains
from backhaulopt.lp.problem import LinearProgram, Relation
from backhaulopt.model import subtree_bs_set
from backhaulopt.scheduler import build_schedule
from backhaulopt.validator import validate_schedule

COMBO_CAP = 400_000  # refuse enumerations bigger than this


def equal_demand_bound(topology, setting) -> float:
    """Closed-form optimum of the equal-demand program.

    Every non-capacity constraint has nonnegative coefficients on the p
    variables, so the cheapest feasible choice for demand D is
    p_i = P_i^f |B_i| D / C_i. Substituting it turns each constraint family
    into a plain upper bound on D; the optimum is the smallest bound.
    """
    load = {
        l.id: len(subtree_bs_set(topology, l.child)) / l.capacity_gbps
        for l in topology.links
    }
    bounds = [1.0 / load[l.id] for l in topology.links]  # from p_i <= P_i^f
    if setting.interference is Interference.LIMITED:
        for a, b in topology.interference_pairs:
            bounds.append(1.0 / (load[a] + load[b]))
    if setting.radio_chains is RadioChains.LIMITED:
        for s in topology.stations:
            total = 0.0
            inbound = topology.inbound_link(s.id)
            if inbound is not None:
                total += inbound.p_last_max * load[inbound.id]
            for child in topology.child_links(s.id):
                total += child.p_first_max * load[child.id]
            if total > 0.0:
                bounds.append(s.radio_chains / total)
    return min(bounds)


def demand_rows(topology, setting, floors=None):
    """Aggregate program reduced to demand space as rows A D <= b.

    Variables are the per-small-BS demands in sorted id order. The same
    cheapest-p substitution as above replaces each p_i by
    P_i^f S_i(D) / C_i, where S_i(D) is the demand routed through link i.
    Nonnegativity rows are included so the region is pointed.
    """
    small = topology.small_bs_ids()
    col = {b: j for j, b in enumerate(small)}
    member_cols = {
        l.id: [col[b] for b in subtree_bs_set(topology, l.child)]
        for l in topology.links
    }
    rows, rhs = [], []

    def add(row, bound):
        rows.append(row)
        rhs.append(bound)

    def routed(link_id, scale):
        row = np.zeros(len(small))
        row[member_cols[link_id]] += scale
        return row

    for l in topology.links:
        add(routed(l.id, 1.0), l.capacity_gbps)
    if setting.interference is Interference.LIMITED:
        for a, b in topology.interference_pairs:
            la, lb = topology.link(a), topology.link(b)
            add(routed(a, 1.0 / la.capacity_gbps) + routed(b, 1.0 / lb.capacity_gbps), 1.0)
    if setting.radio_chains is RadioChains.LIMITED:
        for s in topology.stations:
            row = np.zeros(len(small))
            inbound = topology.inbound_link(s.id)
            if inbound is not None:
                row += routed(inbound.id, inbound.p_last_max / inbound.capacity_gbps)
            for child in topology.child_links(s.id):
                row += routed(child.id, child.p_first_max / child.capacity_gbps)
            if row.any():
                add(row, float(s.radio_chains))
    if floors:
        for b, f in floors.items():
            row = np.zeros(len(small))
            row[col[b]] = -1.0
            add(row, -float(f))
    for j in range(len(small)):
        row = np.zeros(len(small))
        row[j] = -1.0
        add(row, 0.0)
    return np.array(rows), np.array(rhs)


def aggregate_bound(topology, setting, floors=None):
    """Brute-force optimum of the aggregate program; returns (value, D)."""
    A, b = demand_rows(topology, setting, floors)
    c = np.ones(A.shape[1])
    status, value, arg = enumerate_max(c, A, b)
    if status == "infeasible":
        return None, None  # only possible with floors
    assert status == "optimal"  # capacity rows bound every demand
    return value, arg


def reference_demand_lp(topology, setting, demand_names, demand_cols, floors=None):
    """The demand LP formulations' builder must produce, and its carried counts.

    This is the builder's slow route: every row starts as a [0.0] * num_vars
    list of its own, in the builder's row order (links, then interference
    pairs under LI, then each BS with a nonzero row under LR), and the rows
    go in together through one add_constraints call. Returns (lp, carried),
    carried mapping each link id to {demand column: subtree BSs on it} in
    the subtree's preorder.
    """
    with_p = (
        setting.interference is Interference.LIMITED
        or setting.radio_chains is RadioChains.LIMITED
    )
    names = list(demand_names)
    p_cols = {}
    if with_p:
        for link in topology.links:
            p_cols[link.id] = len(names)
            names.append(f"p_f[{link.id}]")
    lp = LinearProgram(len(names), names)
    obj = [0.0] * lp.num_vars
    for col in demand_cols.values():
        obj[col] = 1.0
    lp.set_objective(obj)

    carried = {}
    rows, relations, rhs = [], [], []

    def add(row, relation, b):
        rows.append(row)
        relations.append(relation)
        rhs.append(b)

    for link in topology.links:
        counts = carried[link.id] = Counter(demand_cols[b] for b in topology.subtree(link.child))
        row = [0.0] * lp.num_vars
        for col, count in counts.items():
            row[col] = -float(count)
        if with_p:
            row[p_cols[link.id]] = link.capacity_gbps / link.p_first_max
            add(row, Relation.GE, 0.0)
        else:
            add(row, Relation.GE, -link.capacity_gbps)
    if with_p:
        for link in topology.links:
            lp.set_bounds(p_cols[link.id], 0.0, link.p_first_max)
        if setting.interference is Interference.LIMITED:
            for a, b in topology.interference_pairs:
                row = [0.0] * lp.num_vars
                row[p_cols[a]] = 1.0 / topology.link(a).p_first_max
                row[p_cols[b]] = 1.0 / topology.link(b).p_first_max
                add(row, Relation.LE, 1.0)
        if setting.radio_chains is RadioChains.LIMITED:
            for s in topology.stations:
                row = [0.0] * lp.num_vars
                inbound = topology.inbound_link(s.id)
                if inbound is not None:
                    row[p_cols[inbound.id]] = inbound.p_last_max / inbound.p_first_max
                for child in topology.child_links(s.id):
                    row[p_cols[child.id]] += 1.0
                if any(row):
                    add(row, Relation.LE, float(s.radio_chains))
    if rows:
        lp.add_constraints(rows, relations, rhs)
    for b, floor in (floors or {}).items():
        if floor > 0.0:
            lp.set_bounds(demand_cols[b], floor, math.inf)
    return lp, carried


def lp_rows(lp):
    """Flatten a LinearProgram into (c, A, b) with A x <= b, bounds included."""
    rows, rhs = [], []
    for con in lp.constraints:
        if con.relation in (Relation.LE, Relation.EQ):
            rows.append(np.asarray(con.coeffs, dtype=float))
            rhs.append(con.rhs)
        if con.relation in (Relation.GE, Relation.EQ):
            rows.append(-np.asarray(con.coeffs, dtype=float))
            rhs.append(-con.rhs)
    eye = np.eye(lp.num_vars)
    for j in range(lp.num_vars):
        if np.isfinite(lp.upper[j]):
            rows.append(eye[j])
            rhs.append(float(lp.upper[j]))
        rows.append(-eye[j])
        rhs.append(-float(lp.lower[j]))
    return np.asarray(lp.objective, dtype=float), np.array(rows), np.array(rhs)


def reference_residual(lp, x):
    """Largest constraint or bound violation of x, one constraint at a time."""
    worst = 0.0
    for con in lp.constraints:
        lhs = float(con.coeffs @ x)
        if con.relation is Relation.LE:
            worst = max(worst, lhs - con.rhs)
        elif con.relation is Relation.GE:
            worst = max(worst, con.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    finite = np.isfinite(lp.upper)
    if finite.any():
        worst = max(worst, float(np.max((x - lp.upper)[finite], initial=0.0)))
    return worst


class ReferencePivots:
    """Bland-rule simplex pivots written out plainly, usable as solve's kernel.

    run_pivots has the package kernel's signature and return codes (0
    optimal, 1 unbounded, 2 iteration limit). Each pivot lists every
    improving column and enters the first; it computes the ratio of every
    row with an entry above tol as one array, and of the rows at the least
    ratio the one with the smallest basic index leaves. The update divides
    the pivot row by its pivot, then walks every other row and subtracts
    (its entry) x (pivot row) from each whose entry is not exactly 0.

    tied counts the pivots that had more than one row at the least ratio.
    """

    def __init__(self):
        self.tied = 0

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        T = tableau
        m = T.shape[0] - 1
        for done in range(max_iter):
            reduced = T[m, :ncols_enter].tolist()
            entering = [j for j, cost in enumerate(reduced) if cost < -tol]
            if not entering:
                return 0, done
            col = entering[0]
            column = T[:, col].tolist()
            candidates = np.array([i for i in range(m) if column[i] > tol], dtype=np.int64)
            if candidates.size == 0:
                return 1, done
            ratios = T[candidates, -1] / T[candidates, col]
            least = candidates[ratios == ratios.min()].tolist()
            if len(least) > 1:
                self.tied += 1
            row = min(least, key=lambda i: basis[i])

            T[row] = T[row] / T[row, col]
            for i in range(m + 1):
                factor = T[i, col]
                if i != row and factor != 0.0:
                    T[i] = T[i] - factor * T[row]
            basis[row] = col
        return 2, max_iter


def enumerate_max(c, A, b, feas_tol=1e-7, det_tol=1e-9):
    """Maximize c.x over A x <= b by checking every basic solution.

    Requires a pointed region (nonnegativity rows present), so feasibility
    implies some vertex exists. Returns (status, value, argmax).
    """
    m, n = A.shape
    if math.comb(m, n) > COMBO_CAP:
        raise ValueError(f"enumeration too large: C({m},{n})")
    best, arg = None, None
    combos = list(itertools.combinations(range(m), n))
    if combos:
        idx = np.array(combos)
        sub = A[idx]
        keep = np.abs(np.linalg.det(sub)) > det_tol
        if keep.any():
            x = np.linalg.solve(sub[keep], b[idx[keep]][..., None])[..., 0]
            feasible = (A @ x.T <= b[:, None] + feas_tol).all(axis=0)
            if feasible.any():
                vals = x[feasible] @ c
                k = int(np.argmax(vals))
                best, arg = float(vals[k]), x[feasible][k]
    if best is None:
        return "infeasible", None, None
    if has_improving_ray(c, A):
        return "unbounded", None, None
    return "optimal", best, arg


def has_improving_ray(c, A, tol=1e-9):
    """Whether the recession cone {A d <= 0} holds a direction with c.d > 0.

    The cone sits in the nonnegative orthant (the -I rows), so sum(d) = 1
    normalizes every nonzero ray; vertices of the normalized slice are
    n-1 cone rows plus the normalization row.
    """
    m, n = A.shape
    if n == 0:
        return False
    if math.comb(m, n - 1) > COMBO_CAP:
        raise ValueError(f"ray enumeration too large: C({m},{n - 1})")
    ones = np.ones((1, n))
    combos = list(itertools.combinations(range(m), n - 1))
    if not combos:
        return False
    idx = np.array(combos, dtype=int).reshape(len(combos), n - 1)
    sub = np.concatenate(
        [A[idx], np.broadcast_to(ones, (len(idx), 1, n))], axis=1
    )
    rhs = np.zeros((len(idx), n))
    rhs[:, -1] = 1.0
    keep = np.abs(np.linalg.det(sub)) > tol
    if not keep.any():
        return False
    d = np.linalg.solve(sub[keep], rhs[keep][..., None])[..., 0]
    in_cone = (A @ d.T <= tol).all(axis=0)
    return bool(np.any(in_cone & (d @ c > 1e-9)))


def reference_generation(config):
    """The draws generator.generate_topology must make for config.

    Returns (parent_of, hops, pairs): the parent BS of every small BS, the
    hop count of every link, and the interference pairs in draw order. This
    is the generator's slow route: before each random choice the eligible
    parents, and the pair candidates, are rebuilt in full.
    """
    rng = random.Random(config.seed)
    order = list(range(1, config.num_small_bs + 1))
    rng.shuffle(order)
    parent_of = {}
    child_count = {0: 0}
    for pos, bs in enumerate(order):
        if pos < config.macro_degree:
            parent = 0
        else:
            eligible = sorted(
                b for b in parent_of if child_count.get(b, 0) < config.max_small_children
            )
            parent = rng.choice(eligible)
        parent_of[bs] = parent
        child_count[parent] = child_count.get(parent, 0) + 1
        child_count.setdefault(bs, 0)
    hops = {bs: _reference_hops(rng, config.hop_distribution) for bs in sorted(parent_of)}
    ends = {bs: (parent_of[bs], bs) for bs in parent_of}
    pairs = reference_pairs(rng, ends, config.interference_pair_budget)
    return parent_of, hops, pairs


def _reference_hops(rng, distribution):
    items = sorted(distribution.items())
    r = rng.random() * sum(w for _, w in items)
    acc = 0.0
    for hops, weight in items:
        acc += weight
        if r < acc:
            return hops
    return items[-1][0]


def reference_pairs(rng, ends, budget):
    """Draw up to budget pairs, rebuilding every candidate before each draw.

    ends maps link id -> (parent, child). A candidate is two links sharing
    a BS where neither is paired at that BS yet, listed in (a, b) order.
    """
    taken = set()  # (link, bs) combos already paired
    pairs = []
    for _ in range(budget):
        candidates = []
        for a in sorted(ends):
            for b in sorted(ends):
                if b <= a:
                    continue
                shared = set(ends[a]) & set(ends[b])
                if not shared:
                    continue
                bs = min(shared)
                if (a, bs) in taken or (b, bs) in taken:
                    continue
                candidates.append((a, b, bs))
        if not candidates:
            break
        a, b, bs = rng.choice(candidates)
        pairs.append((a, b))
        taken.add((a, bs))
        taken.add((b, bs))
    return pairs


# -- intervals: merged from scratch, summed with math.fsum -------------------


def merged(intervals):
    """Sorted disjoint union by one sort and sweep: adjacent pieces join,
    empty and reversed ones drop out, a NaN piece stays."""
    out = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def occupancy_after(busy, pieces):
    """A busy list once pieces are placed on it: the whole list merged again."""
    return merged(list(busy) + list(pieces))


def leftmost_free(blocked, amount, hi, within=None):
    """The leftmost time in [0, hi) outside blocked, and inside within when
    it is given, totaling min(amount, what there is), as a merged list; and
    what is left of amount. Unit by unit up to the last endpoint of either
    list, then the rest of [0, hi) as one piece."""
    edge = min(max((e for _, e in blocked + (within or [])), default=0), hi)

    def free(t):
        inside = within is None or any(s <= t < e for s, e in within)
        return inside and not any(s <= t < e for s, e in blocked)

    units = [t for t in range(edge) if free(t)][:amount]
    taken = [(t, t + 1) for t in units]
    amount -= len(units)
    if within is None and amount > 0 and edge < hi:
        tail = min(amount, hi - edge)
        taken.append((edge, edge + tail))
        amount -= tail
    return merged(taken), amount


def interval_total(intervals):
    """math.fsum of the lengths; raises where fsum does."""
    return math.fsum(e - s for s, e in intervals)


def interval_overlap(a, b):
    """math.fsum of the pairwise intersections of two merged lists."""
    return math.fsum(
        min(ae, be) - max(as_, bs)
        for as_, ae in a
        for bs, be in b
        if max(as_, bs) < min(ae, be)
    )


# -- the validator's interval helpers as three separate passes ----------------
# validator._measure answers all three in one pass; these are the helpers it
# replaced, kept verbatim as its reference. validator_overlap is the
# intersection loop validator._overlap replaced, kept verbatim too.


def validator_merge(intervals):
    """Sorted disjoint union; adjacent pieces join, empty and reversed ones
    drop out, and a NaN piece stays."""
    if len(intervals) == 1:
        s, e = intervals[0]
        return [] if e <= s else [(s, e)]
    out = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def validator_total(intervals):
    """Summed length as math.fsum rounds it; where fsum raises, the IEEE sum
    of the infinite lengths, or the exact sum of the finite ones rounded."""
    if len(intervals) == 1:
        s, e = intervals[0]
        return (e - s) + 0.0
    lengths = [e - s for s, e in intervals]
    try:
        return math.fsum(lengths)
    except (OverflowError, ValueError):
        pass
    infinite = [x for x in lengths if not math.isfinite(x)]
    if infinite:
        return sum(infinite)
    exact = sum(map(Fraction, lengths))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def validator_overlap(a, b):
    """Total measure of the intersection of two merged lists."""
    if len(a) == 1 and len(b) == 1:
        s, e = max(a[0][0], b[0][0]), min(a[0][1], b[0][1])
        return e - s if s < e else 0.0
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


def validator_bad_geometry(intervals, tol=1e-9):
    """Whether some interval is reversed, leaves the frame or is not a number."""
    for s, e in intervals:
        if not (-tol <= s and s - tol <= e <= 1.0 + tol):
            return True
    return False


def validator_double_drives(topology, schedule, tol=1e-9):
    """The validator's double-driven chain lines, every (BS, chain) key with
    two or more claims merged and totalled, its claims in the order the
    links in ascending id give them, parent side first."""
    claims = {}
    for link in topology.links:
        entry = schedule.links.get(link.id)
        if entry is None:
            continue
        for pieces, bs in ((entry.parent_side, link.parent), (entry.child_side, link.child)):
            for chain, s, e in pieces:
                claims.setdefault((bs, chain), []).append((s, e, link.id))
    doubled = {}
    for key, held in claims.items():
        if len(held) == 1:
            continue
        times = [(s, e) for s, e, _ in held]
        union = validator_merge(times)
        spare = validator_total(times) - validator_total(union) if len(union) < len(times) else 0.0
        if spare > tol:
            doubled[key] = spare
    return [
        f"ChainOverlap(chain {chain} at B{bs} is double-driven for {doubled[bs, chain]:.3e} "
        f"(links {sorted({lid for _, _, lid in claims[bs, chain]})}))"
        for bs, chain in sorted(doubled)
    ]


# -- the experiment's realized flag, one placement per setting ----------------


def realizes(topology, sol) -> bool:
    """Whether sol's fractions place on topology and the schedule validates
    there: the experiment's route before it carried placements over, which
    places every setting afresh."""
    try:
        schedule = build_schedule(topology, sol.p_first)
    except PlacementFailure:
        return False
    return validate_schedule(topology, schedule, p_first=sol.p_first, demands=sol.per_bs).ok
