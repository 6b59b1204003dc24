"""Linear program container and solution types.

Maximization over nonnegative variables with optional per-variable bounds
and <=, >=, = row constraints. Small and dense on purpose: every LP in this
package has at most a few hundred rows.

The rows live in one (k, num_vars) float64 matrix with a relation per row
and a right-hand-side array; a builder fills a block by index and adds a
copy in one add_constraints call. `constraints` reads the same storage back
one row at a time. Every number that enters is checked to be finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from backhaulopt.errors import DimensionMismatch, NonFiniteInput, NonPositiveInput


class Relation(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """One row of a LinearProgram: a read-only view of its matrix row."""

    coeffs: np.ndarray
    relation: Relation
    rhs: float


class LinearProgram:
    """maximize c.x subject to row constraints and lower <= x <= upper.

    The constraint rows are `matrix` (one row per constraint, in the order
    they were added), `relations` and `rhs`, all read-only: rows go in only
    through add_constraint and add_constraints, which check them and copy
    them, so the program never shares memory with a caller's array.
    """

    def __init__(self, num_vars: int, names: list[str] | None = None):
        if num_vars < 1:
            raise NonPositiveInput(f"num_vars must be >= 1, got {num_vars}")
        if names is not None and len(names) != num_vars:
            raise DimensionMismatch(f"{len(names)} names for {num_vars} variables")
        self.num_vars = num_vars
        self.names = list(names) if names is not None else [f"x{i}" for i in range(num_vars)]
        self.objective = np.zeros(num_vars)
        self._relations: list[Relation] = []
        self._rows = np.empty((0, num_vars))
        self._rhs = np.empty(0)
        self.lower = np.zeros(num_vars)
        self.upper = np.full(num_vars, np.inf)

    @property
    def relations(self) -> tuple[Relation, ...]:
        """The relation of each row."""
        return tuple(self._relations)

    @property
    def matrix(self) -> np.ndarray:
        """The (k, num_vars) constraint matrix."""
        return _read_only(self._rows)

    @property
    def rhs(self) -> np.ndarray:
        """The k right-hand sides."""
        return _read_only(self._rhs)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as Constraint(coeffs, relation, rhs), built on each access.

        coeffs are read-only views of the matrix rows; rhs is a Python float.
        """
        return tuple(
            Constraint(row, rel, float(b))
            for row, rel, b in zip(self.matrix, self._relations, self.rhs)
        )

    def set_objective(self, coeffs) -> None:
        c = np.array(coeffs, dtype=float)
        if c.shape != (self.num_vars,):
            raise DimensionMismatch(f"objective length {c.size} != {self.num_vars} variables")
        if not np.isfinite(c).all():
            raise NonFiniteInput("objective coefficients must be finite")
        self.objective = c

    def add_constraint(self, coeffs, relation: Relation, rhs: float) -> None:
        a = np.asarray(coeffs, dtype=float)
        if a.shape != (self.num_vars,):
            raise DimensionMismatch(f"constraint length {a.size} != {self.num_vars} variables")
        self.add_constraints(a[None, :], relation, rhs)

    def add_constraints(self, rows, relation, rhs) -> None:
        """Append a block of rows.

        rows is an (r, num_vars) array; relation is one Relation for the
        whole block or a sequence of r; rhs is one number or a sequence of r.
        """
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.num_vars:
            raise DimensionMismatch(f"constraint block {a.shape} for {self.num_vars} variables")
        r = a.shape[0]
        b = np.asarray(rhs, dtype=float)
        if b.shape not in ((), (r,)):
            raise DimensionMismatch(f"{b.size} right-hand sides for {r} rows")
        rels = [relation] * r if isinstance(relation, Relation) else list(relation)
        if len(rels) != r or not all(isinstance(rel, Relation) for rel in rels):
            raise DimensionMismatch(f"{r} rows need {r} relations")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFiniteInput("constraint coefficients and right-hand sides must be finite")
        self._rows = np.concatenate([self._rows, a])
        self._rhs = np.concatenate([self._rhs, np.broadcast_to(b, (r,))])
        self._relations += rels

    def set_bounds(self, index: int, lower: float = 0.0, upper: float = np.inf) -> None:
        if not 0 <= index < self.num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        name = self.names[index]
        if not math.isfinite(lower):
            raise NonFiniteInput(f"lower bound of {name} must be finite, got {lower}")
        if math.isnan(upper) or upper == -math.inf:
            raise NonFiniteInput(f"upper bound of {name} must be a number or +inf, got {upper}")
        if lower < 0:
            raise NonPositiveInput(f"lower bound of {name} must be >= 0")
        if upper < lower:
            raise NonPositiveInput(f"empty bound interval for {name}")
        self.lower[index] = float(lower)
        self.upper[index] = float(upper)

    def dump(self) -> str:
        """Human-readable rendering, one constraint per line."""

        def terms(coeffs):
            parts = []
            for c, name in zip(coeffs, self.names):
                if c == 0:
                    continue
                sign = "-" if c < 0 else ("+" if parts else "")
                mag = abs(c)
                parts.append(f"{sign} {mag:g} {name}" if parts else f"{sign}{mag:g} {name}")
            return " ".join(parts) if parts else "0"

        lines = [f"maximize {terms(self.objective)}", "subject to"]
        for con in self.constraints:
            lines.append(f"  {terms(con.coeffs)} {con.relation.value} {con.rhs:g}")
        for i in range(self.num_vars):
            hi = "inf" if np.isinf(self.upper[i]) else f"{self.upper[i]:g}"
            lines.append(f"  {self.lower[i]:g} <= {self.names[i]} <= {hi}")
        return "\n".join(lines)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class LpSolution:
    status: LpStatus
    objective_value: float | None = None
    assignment: np.ndarray | None = None
    iterations: int = 0
    residual: float = 0.0  # worst constraint violation of the returned point

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL
