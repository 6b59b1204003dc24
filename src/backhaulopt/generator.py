"""Random tree topologies for simulation runs.

A seed pins the topology bit for bit. Python guarantees only the stream of
random.Random.random() across versions; the shuffle, choice and choices
draws made from it are pinned for the supported versions by the frozen
digests of the test suite.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS
from backhaulopt.errors import InconsistentInput, InfeasibleConfig, NonFiniteInput, NonPositiveInput
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
    # a count that is no int (a bool included) or below its minimum is bad
    # input; link_profile checks phy_rate_gbps
    for name, least in (("num_small_bs", 1), ("macro_degree", 1),
                        ("max_small_children", 0), ("interference_pair_budget", 0)):
        value = getattr(config, name)
        if type(value) is not int or value < least:
            raise NonPositiveInput(f"{name} must be an integer of at least {least}, got {value!r}")
    if config.macro_degree > config.num_small_bs:
        raise InfeasibleConfig(
            f"macro_degree {config.macro_degree} exceeds num_small_bs {config.num_small_bs}"
        )
    if config.num_small_bs > config.macro_degree and config.max_small_children < 1:
        raise InfeasibleConfig(
            "small BSs beyond the macro's direct children need somewhere to attach"
        )
    hops = config.hop_distribution
    if not hops or any(type(h) is not int or h < 1 or w < 0 for h, w in hops.items()):
        raise InfeasibleConfig("hop_distribution needs integer hops >= 1, weights >= 0")
    # summed in the draw's order: a NaN or +inf weight, or a sum past the
    # float range, would draw every link at one count
    total = sum(w for _, w in sorted(hops.items()))
    if not math.isfinite(total):
        raise NonFiniteInput(f"hop_distribution weights must have a finite sum, got {total}")
    if total <= 0:
        raise InfeasibleConfig("hop_distribution weights sum to zero")


def generate_topology(config: GeneratorConfig) -> NetworkTopology:
    """Grow a random tree and draw interference pairs within the budget.

    Small BS ids are a shuffled 1..N; the first macro_degree of them hang
    off the macro, the rest attach uniformly at random to a small BS that
    still has a child slot. Each link's hop count is one weighted draw from
    hop_distribution, in ascending link id. Radio chain counts default to
    the number of attached links per BS (enough for every link);
    setting-specific counts come from adapt_topology.
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

    ids = sorted(parent_of)
    hops, weights = zip(*sorted(config.hop_distribution.items()))
    links = [
        make_link(bs, parent_of[bs], bs, hop_count, config.phy_rate_gbps)
        for bs, hop_count in zip(ids, rng.choices(hops, weights, k=len(ids)))
    ]

    pairs = _draw_pairs(rng, links, config.interference_pair_budget)

    stations = [BaseStation(id=0, kind=MACRO, radio_chains=child_count[0])]
    stations += [
        BaseStation(id=bs, kind=SMALL, radio_chains=child_count[bs] + 1) for bs in ids
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
    """The topology without interference pairs, sharing its tree index."""
    return topology._variant(interference_pairs=())


def adapt_topology(
    topology: NetworkTopology,
    setting: Setting,
    macro_chains: int | None = None,
) -> NetworkTopology:
    """Rewrite a topology for one radio-chain regime.

    Enough-radio-chains keeps one chain per attached link; limited keeps a
    single chain per small BS and macro_chains at the macro. The
    interference regime is the caller's concern (see strip_interference).
    Only the chain counts change, so the result shares the tree index.
    """
    children = Counter(link.parent for link in topology.links)
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
        stations.append(BaseStation(s.id, s.kind, max(1, count)))
    return topology._variant(stations=stations)
