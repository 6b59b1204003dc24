"""Random tree topologies for simulation runs.

random.Random is used deliberately: its Mersenne Twister stream is stable
across Python versions, so a seed pins the topology bit for bit.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace

from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS
from backhaulopt.errors import InconsistentInput, InfeasibleConfig
from backhaulopt.formulations import RadioChains, Setting
from backhaulopt.model import (
    MACRO,
    SMALL,
    BaseStation,
    NetworkTopology,
    make_link,
)


def _default_hops() -> dict[int, float]:
    return {1: 0.2, 2: 0.4, 3: 0.4}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    num_small_bs: int = 20
    macro_degree: int = 8
    max_small_children: int = 2
    hop_distribution: dict[int, float] = field(default_factory=_default_hops)
    interference_pair_budget: int = 0
    phy_rate_gbps: float = DEFAULT_PHY_RATE_GBPS


def _check_config(config: GeneratorConfig) -> None:
    if config.num_small_bs < 1:
        raise InfeasibleConfig("need at least one small BS")
    if not 1 <= config.macro_degree <= config.num_small_bs:
        raise InfeasibleConfig(
            f"macro_degree {config.macro_degree} must be in [1, {config.num_small_bs}]"
        )
    if config.max_small_children < 0:
        raise InfeasibleConfig("max_small_children cannot be negative")
    if config.num_small_bs > config.macro_degree and config.max_small_children < 1:
        raise InfeasibleConfig(
            "small BSs beyond the macro's direct children need somewhere to attach"
        )
    if config.interference_pair_budget < 0:
        raise InfeasibleConfig("interference_pair_budget cannot be negative")
    if config.phy_rate_gbps <= 0:
        raise InfeasibleConfig("phy_rate_gbps must be positive")
    hops = config.hop_distribution
    if not hops or any(
        not isinstance(h, int) or h < 1 or w < 0 for h, w in hops.items()
    ):
        raise InfeasibleConfig("hop_distribution needs integer hops >= 1, weights >= 0")
    if sum(hops.values()) <= 0:
        raise InfeasibleConfig("hop_distribution weights sum to zero")


def _draw_hops(rng: random.Random, distribution: dict[int, float]) -> int:
    items = sorted(distribution.items())
    total = sum(w for _, w in items)
    r = rng.random() * total
    acc = 0.0
    for hops, weight in items:
        acc += weight
        if r < acc:
            return hops
    return items[-1][0]


def generate_topology(config: GeneratorConfig) -> NetworkTopology:
    """Grow a random tree and draw interference pairs within the budget.

    Small BS ids are a shuffled 1..N; the first macro_degree of them hang
    off the macro, the rest attach uniformly at random to a small BS that
    still has a child slot. Radio chain counts default to the number of
    attached links per BS (enough for every link); setting-specific counts
    come from adapt_topology.
    """
    _check_config(config)
    rng = random.Random(config.seed)

    order = list(range(1, config.num_small_bs + 1))
    rng.shuffle(order)

    parent_of: dict[int, int] = {}
    child_count: dict[int, int] = {0: 0}
    eligible: list[int] = []  # placed small BSs with a free child slot, sorted
    for pos, bs in enumerate(order):
        if pos < config.macro_degree:
            parent = 0
        else:
            parent = rng.choice(eligible)
            if child_count[parent] + 1 == config.max_small_children:
                del eligible[bisect.bisect_left(eligible, parent)]
        parent_of[bs] = parent
        child_count[parent] += 1
        child_count[bs] = 0
        if config.max_small_children > 0:
            bisect.insort(eligible, bs)

    links = [
        make_link(
            link_id=bs,
            parent=parent_of[bs],
            child=bs,
            hop_count=_draw_hops(rng, config.hop_distribution),
            phy_rate_gbps=config.phy_rate_gbps,
        )
        for bs in sorted(parent_of)
    ]

    pairs = _draw_pairs(rng, links, config.interference_pair_budget)

    attached: dict[int, int] = {0: child_count[0]}
    for bs in sorted(parent_of):
        attached[bs] = child_count[bs] + 1
    stations = [BaseStation(id=0, kind=MACRO, radio_chains=max(1, attached[0]))]
    stations += [
        BaseStation(id=bs, kind=SMALL, radio_chains=max(1, attached[bs]))
        for bs in sorted(parent_of)
    ]

    topology = NetworkTopology(stations, links, pairs)
    if topology.violations:  # generation logic must never emit these
        raise InfeasibleConfig("; ".join(str(p) for p in topology.violations))
    return topology


def _draw_pairs(rng: random.Random, links, budget: int) -> list[tuple[int, int]]:
    """Sample interference pairs: each pair shares a BS and no link gets a
    second partner at the same BS.

    The candidates are every (a, b, bs) with links a < b meeting at bs,
    sorted by (a, b), and each draw is a uniform choice among those still
    allowed. In a tree two links meet at one BS at most, so a draw of
    (a, b, bs) rules out exactly the candidates at bs that hold a or b.
    """
    incident: dict[int, list[int]] = {}
    for l in sorted(links, key=lambda l: l.id):
        incident.setdefault(l.parent, []).append(l.id)
        incident.setdefault(l.child, []).append(l.id)
    candidates = sorted(
        (a, b, bs)
        for bs, ids in incident.items()
        for k, a in enumerate(ids)
        for b in ids[k + 1:]
    )
    pairs: list[tuple[int, int]] = []
    for _ in range(budget):
        if not candidates:
            break
        a, b, bs = rng.choice(candidates)
        pairs.append((a, b))
        candidates = [
            c for c in candidates
            if c[2] != bs or (c[0] not in (a, b) and c[1] not in (a, b))
        ]
    return pairs


def strip_interference(topology: NetworkTopology) -> NetworkTopology:
    return NetworkTopology(topology.stations, topology.links, ())


def adapt_topology(
    topology: NetworkTopology,
    setting: Setting,
    macro_chains: int | None = None,
) -> NetworkTopology:
    """Rewrite a topology for one radio-chain regime.

    Enough-radio-chains keeps one chain per attached link; limited keeps a
    single chain per small BS and macro_chains at the macro. The
    interference regime is the caller's concern (see strip_interference).
    """
    children = {s.id: len(topology.child_links(s.id)) for s in topology.stations}
    stations = []
    for s in topology.stations:
        if setting.radio_chains is RadioChains.ENOUGH:
            count = children[s.id] + (0 if s.kind == MACRO else 1)
        elif s.kind == MACRO:
            if macro_chains is None or macro_chains < 1:
                raise InconsistentInput(
                    "limited-radio-chain settings need macro_chains >= 1"
                )
            count = macro_chains
        else:
            count = 1
        stations.append(replace(s, radio_chains=max(1, count)))
    return NetworkTopology(stations, topology.links, topology.interference_pairs)
