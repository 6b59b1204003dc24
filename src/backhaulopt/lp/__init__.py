"""Dense LP machinery: problem container and two-phase simplex solver."""

from backhaulopt.lp.problem import (
    Constraint,
    LinearProgram,
    LpSolution,
    LpStatus,
    Relation,
)
from backhaulopt.lp.simplex import active_kernel, solve

__all__ = [
    "Constraint",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "Relation",
    "active_kernel",
    "solve",
]
