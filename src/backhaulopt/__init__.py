"""Throughput optimization for tree-shaped mmWave backhaul networks.

The package models a macro BS feeding small-cell BSs over multi-hop relay
links, finds the largest supportable traffic demand by linear programming
under four interference/radio-chain regimes, and emits a per-radio-chain
transmission schedule that realizes the optimum.
"""

from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS, link_profile, physical_rate
from backhaulopt.formulations import (
    Interference,
    Objective,
    RadioChains,
    Setting,
    jain_index,
    min_radio_chains,
    parse_setting,
    solve_equal_demand,
    solve_objective,
)
from backhaulopt.generator import GeneratorConfig, adapt_topology, generate_topology
from backhaulopt.model import (
    BaseStation,
    LogicalLink,
    NetworkTopology,
    load_topology,
    make_link,
    save_topology,
)
from backhaulopt.scheduler import Schedule, build_schedule
from backhaulopt.validator import ValidationReport, validate_schedule

__version__ = "1.0.0"

__all__ = [
    "BaseStation",
    "DEFAULT_PHY_RATE_GBPS",
    "GeneratorConfig",
    "Interference",
    "LogicalLink",
    "NetworkTopology",
    "Objective",
    "RadioChains",
    "Schedule",
    "Setting",
    "ValidationReport",
    "adapt_topology",
    "build_schedule",
    "generate_topology",
    "jain_index",
    "link_profile",
    "load_topology",
    "make_link",
    "min_radio_chains",
    "parse_setting",
    "physical_rate",
    "save_topology",
    "solve_equal_demand",
    "solve_objective",
    "validate_schedule",
]
