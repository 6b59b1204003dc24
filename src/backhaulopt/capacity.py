"""Physical-layer rate model and per-link capacity profiles.

A logical link is served either by one physical link (single hop) or by a
relay path whose interior follows the alternating odd/even transmission
pattern. The endpoint abstraction of that pattern is captured by three
numbers: the logical link capacity and the maximum active-time fractions of
the first and last physical links within the link's own schedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from backhaulopt.errors import InvalidHopCount, NonFiniteInput, NonPositiveInput

# OFDM numerology used throughout the experiments: 4.16 us slots carrying one
# symbol on 6912 data subcarriers, 256-QAM (8 bits per symbol), no coding
# overhead accounted.
SLOT_US = 4.16
SUBCARRIERS = 6912
BITS_PER_SYMBOL = 8


def physical_rate(slot_us: float, subcarriers: int, bits_per_symbol: int) -> float:
    """Raw physical link rate in Gbps for one symbol per slot.

    bits per slot = subcarriers * bits_per_symbol; dividing by the slot
    duration in microseconds gives Mbps, and by 1000 Gbps.
    """
    if slot_us <= 0 or subcarriers <= 0 or bits_per_symbol <= 0:
        raise NonPositiveInput(
            f"slot_us={slot_us}, subcarriers={subcarriers}, "
            f"bits_per_symbol={bits_per_symbol} must all be positive"
        )
    return subcarriers * bits_per_symbol / slot_us / 1000.0


DEFAULT_PHY_RATE_GBPS = physical_rate(SLOT_US, SUBCARRIERS, BITS_PER_SYMBOL)


@dataclass(frozen=True)
class LinkCapacityProfile:
    """Endpoint abstraction of a logical link's intra-path schedule.

    capacity_gbps: data rate the logical link sustains when fully scheduled.
    p_first_max: largest fraction of the link's schedule during which the
        first physical link (at the parent BS) is active.
    p_last_max: same for the last physical link (at the child BS).
    """

    capacity_gbps: float
    p_first_max: float
    p_last_max: float


@functools.lru_cache(typed=True)
def link_profile(hop_count: int, phy_rate_gbps: float) -> LinkCapacityProfile:
    """Capacity profile for a logical link with the given hop count.

    Single hop: the physical link is the logical link, so the capacity is the
    full physical rate and both endpoint fractions are 1. Two or more hops:
    the alternating relay schedule halves the end-to-end rate and each
    endpoint physical link is active during half of the link's schedule,
    independent of the exact hop count.

    Memoized: the profile is frozen, so links share it. The cache tells
    argument types apart, so 1.0 or True hops never meets the entry of 1 hop
    and still fails the check; a call that raises caches nothing.
    """
    if type(hop_count) is not int or hop_count < 1:
        raise InvalidHopCount(f"hop_count must be a positive integer, got {hop_count!r}")
    if not math.isfinite(phy_rate_gbps):
        raise NonFiniteInput(f"phy_rate_gbps must be finite, got {phy_rate_gbps}")
    if phy_rate_gbps <= 0 or type(phy_rate_gbps) is bool:
        raise NonPositiveInput(f"phy_rate_gbps must be a positive number, got {phy_rate_gbps!r}")
    if hop_count == 1:
        return LinkCapacityProfile(phy_rate_gbps, 1.0, 1.0)
    return LinkCapacityProfile(phy_rate_gbps / 2.0, 0.5, 0.5)
