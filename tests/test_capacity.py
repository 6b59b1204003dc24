"""Rate constant and per-link capacity profiles."""

import dataclasses
import inspect
import math
import pickle
import typing

import pytest

from backhaulopt.capacity import (
    DEFAULT_PHY_RATE_GBPS,
    LinkCapacityProfile,
    link_profile,
    physical_rate,
)
from backhaulopt.errors import InvalidHopCount, NonFiniteInput, NonPositiveInput
from backhaulopt.model import BaseStation, LogicalLink, make_link


def test_reference_rate_lands_in_published_band():
    rate = physical_rate(4.16, 6912, 8)
    # 6912 subcarriers x 8 bits / 4.16 us = 13292.307... Mbps
    assert 13.29 <= rate <= 13.30
    assert rate == pytest.approx(13.292307692307692, abs=1e-12)
    assert DEFAULT_PHY_RATE_GBPS == rate


def test_single_hop_profile_keeps_full_rate():
    assert link_profile(1, 13.3) == LinkCapacityProfile(13.3, 1.0, 1.0)


def test_multi_hop_profile_halves_everything():
    for hops in (2, 3, 7):
        prof = link_profile(hops, 13.3)
        assert prof.capacity_gbps == 6.65  # exactly half
        assert prof.p_first_max == 0.5
        assert prof.p_last_max == 0.5


def test_default_multi_hop_capacity_is_half_the_default_rate():
    prof = link_profile(2, DEFAULT_PHY_RATE_GBPS)
    assert prof.capacity_gbps == DEFAULT_PHY_RATE_GBPS / 2


def test_rejects_nonpositive_radio_parameters():
    with pytest.raises(NonPositiveInput):
        physical_rate(0.0, 6912, 8)
    with pytest.raises(NonPositiveInput):
        physical_rate(4.16, -1, 8)
    with pytest.raises(NonPositiveInput):
        link_profile(1, 0.0)


def test_rejects_bad_hop_counts():
    with pytest.raises(InvalidHopCount):
        link_profile(0, 13.3)
    with pytest.raises(InvalidHopCount):
        link_profile(-2, 13.3)
    with pytest.raises(InvalidHopCount):
        link_profile(1.5, 13.3)


def test_memoized_profiles_still_check_every_call():
    # the cache tells 1 from 1.0 and caches no call that raises
    rate = 13.3
    assert link_profile(1, rate) is link_profile(1, rate)
    with pytest.raises(InvalidHopCount):
        link_profile(1.0, rate)
    for _ in range(2):
        with pytest.raises(NonFiniteInput):
            link_profile(1, math.nan)
    for name in ("capacity_gbps", "p_first_max", "p_last_max"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteInput):
                make_link(1, 0, 1, 2, rate, **{name: value})
    link = make_link(1, 0, 1, 2, rate, p_last_max=0.25)
    assert (link.capacity_gbps, link.p_first_max, link.p_last_max) == (6.65, 0.5, 0.25)


RECORDS = [
    (BaseStation, (3, "small", 2), "BaseStation(id=3, kind='small', radio_chains=2)"),
    (LogicalLink, (3, 1, 3, 2, 13.3, 6.65, 0.5, 0.5),
     "LogicalLink(id=3, parent=1, child=3, hop_count=2, phy_rate_gbps=13.3, "
     "capacity_gbps=6.65, p_first_max=0.5, p_last_max=0.5)"),
]


def test_slotted_model_types_pickle():
    # BaseStation and LogicalLink are frozen slotted dataclasses; their own
    # __init__ stores the fields through the slots, and each record still
    # reads, compares, hashes, copies and refuses as the generated one did
    for cls, args, text in RECORDS:
        value = cls(*args)
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls).parameters) == names
        hints = typing.get_type_hints(cls.__init__)
        assert hints == {**typing.get_type_hints(cls), "return": type(None)}
        assert tuple(getattr(value, n) for n in names) == args
        assert cls(**dict(zip(names, args))) == value
        assert repr(value) == text
        assert hash(value) == hash(args)
        assert value == cls(*args) and value != args
        assert value != cls(*args[:-1], args[-1] + 1)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        changed = dataclasses.replace(value, id=4)
        assert (changed.id, tuple(getattr(changed, n) for n in names[1:])) == (4, args[1:])
        assert value.id == 3
        missing = f"missing 1 required positional argument: '{names[-1]}'"
        with pytest.raises(TypeError, match=missing):
            cls(*args[:-1])
        with pytest.raises(TypeError, match=f"takes {len(args) + 1} positional arguments but"):
            cls(*args, 0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'color'"):
            cls(*args, color=0)
        with pytest.raises(TypeError, match="multiple values for argument 'id'"):
            cls(*args[:-1], id=0)
