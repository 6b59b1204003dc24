"""Two-phase dense simplex with Bland's anti-cycling rule.

The pivot loop lives in _kernel_py.run_pivots. solve takes the kernel as an
argument so a caller can wrap run_pivots, for instance to time each phase.
"""

from __future__ import annotations

import numpy as np

from backhaulopt.errors import SolverFailure
from backhaulopt.lp import _kernel_py
from backhaulopt.lp.problem import LinearProgram, LpSolution, LpStatus, Relation

PIVOT_TOL = 1e-9


def _senses(relations) -> np.ndarray:
    """+1.0 for each <= row, -1.0 for each >= row and 0.0 for each = row.

    Told apart by identity: hashing an Enum member runs Python code, so a
    dict lookup per row costs about four times as much."""
    le, ge = Relation.LE, Relation.GE
    return np.array([1.0 if rel is le else -1.0 if rel is ge else 0.0 for rel in relations])


def active_kernel():
    """The pivot kernel module solve uses when none is passed."""
    return _kernel_py


def solve(lp: LinearProgram, kernel=None) -> LpSolution:
    """Maximize lp.objective over lp's constraints and bounds.

    The variables are shifted to y = x - lower >= 0. Each finite upper bound
    becomes one more <= row, every row with a negative right-hand side is
    negated, and the tableau gets one slack column per <= or >= row and one
    artificial column per >= or = row, numbered in row order. Phase 1
    minimizes the sum of the artificials and drives the basic ones out;
    phase 2 maximizes the objective over the structural and slack columns.
    """
    if kernel is None:
        kernel = _kernel_py
    n = lp.num_vars
    shift = lp.lower.copy()
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    k = len(lp.relations)
    m = k + bounded.size

    # rows over shifted variables y = x - lower >= 0; sense is +1 for <=,
    # -1 for >= and 0 for =. One dot product per row: a matrix product
    # would round the shifted right-hand sides differently. Without a
    # shift every product is +0.0 and subtracting it changes nothing.
    rhs = np.empty(m)
    rhs[:k] = lp.rhs
    if shift.any():
        rhs[:k] -= [row.dot(shift) for row in lp.matrix]
    rhs[k:] = lp.upper[bounded] - shift[bounded]
    row_sense = _senses(lp.relations)  # mapped once: the residual reads it too
    sense = np.ones(m)
    sense[:k] = row_sense

    # normalize right-hand sides to be nonnegative
    flip = rhs < 0
    rhs[flip] = -rhs[flip]
    sense[flip] = -sense[flip]

    has_slack = sense != 0
    has_art = sense <= 0
    n_slack = int(np.count_nonzero(has_slack))
    n_art = int(np.count_nonzero(has_art))
    ncols = n + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    A = T[:m, :n]
    A[:k] = lp.matrix
    A[k + np.arange(bounded.size), bounded] = 1.0
    A[flip] = -A[flip]
    T[:m, ncols] = rhs
    slack_col = n - 1 + np.cumsum(has_slack)
    art_col = n + n_slack - 1 + np.cumsum(has_art)
    slack_rows = np.flatnonzero(has_slack)
    art_rows = np.flatnonzero(has_art)
    T[slack_rows, slack_col[slack_rows]] = sense[slack_rows]
    T[art_rows, art_col[art_rows]] = 1.0
    basis = np.where(has_art, art_col, slack_col).astype(np.int64)

    max_iter = 10000 + 200 * (m + ncols)
    rhs_scale = 1.0 + float(rhs.max(initial=0.0))
    iterations = 0

    # phase 1: minimize the sum of artificial variables
    if n_art:
        # the negated sum of the artificial rows. A reduction over axis 0 adds
        # the rows in row order, and -(a + b) is (-a) - b exactly, so this is
        # the row that subtracting them one at a time from zero gives, bit
        # for bit; 0.0 - makes each zero +0.0, as that subtraction does. The
        # rows of a demand LP are one block, read as a view, not copied
        lo, hi = art_rows[0], art_rows[-1] + 1
        art = T[lo:hi] if hi - lo == n_art else T[art_rows]
        T[m, :] = 0.0 - np.add.reduce(art, axis=0)
        code, iters = kernel.run_pivots(T, basis, n + n_slack, PIVOT_TOL, max_iter)
        iterations += iters
        if code == _kernel_py.ITERATION_LIMIT:
            raise SolverFailure("simplex iteration limit hit in phase 1")
        if code == _kernel_py.UNBOUNDED:
            raise SolverFailure("phase-1 objective cannot be unbounded")
        if -T[m, ncols] > PIVOT_TOL * rhs_scale:
            return LpSolution(LpStatus.INFEASIBLE, iterations=iterations)

        # drive basic artificials out; a row with no real pivot is redundant
        drop_rows = []
        for r in np.flatnonzero(basis >= n + n_slack):
            nonzero = np.flatnonzero(np.abs(T[r, : n + n_slack]) > PIVOT_TOL)
            if nonzero.size == 0:
                drop_rows.append(r)
                continue
            pivot_col = int(nonzero[0])
            _kernel_py.eliminate(T, r, pivot_col, np.flatnonzero(T[:, pivot_col]))
            basis[r] = pivot_col
            iterations += 1
        if drop_rows:
            T = np.delete(T, drop_rows, axis=0)
            basis = np.delete(basis, drop_rows)
            m -= len(drop_rows)

    # phase 2: minimize -objective over structural + slack columns. The
    # artificial columns are done with, so the right-hand side moves into the
    # first of them and phase 2 pivots on a view of the same tableau.
    T[:, n + n_slack] = T[:, ncols]
    T2 = T[:, : n + n_slack + 1]
    T2[m, :] = 0.0
    T2[m, :n] = -lp.objective
    # basic columns are unit vectors, so a row whose basic column has a zero
    # cost would only subtract zeros; the others go in row order
    for r in np.flatnonzero(T2[m, basis]):
        T2[m, :] -= T2[m, basis[r]] * T2[r, :]
    code, iters = kernel.run_pivots(T2, basis, n + n_slack, PIVOT_TOL, max_iter)
    iterations += iters
    if code == _kernel_py.ITERATION_LIMIT:
        raise SolverFailure("simplex iteration limit hit in phase 2")
    if code == _kernel_py.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)

    y = np.zeros(n + n_slack)
    y[basis] = T2[:m, n + n_slack]
    y[(y < 0) & (y > -PIVOT_TOL)] = 0.0
    x = y[:n] + shift
    value = float(lp.objective @ x)
    residual = _max_violation(lp, x, row_sense)
    if residual > PIVOT_TOL * rhs_scale:
        raise SolverFailure(f"simplex optimum violates the constraints by {residual:.3g}")
    return LpSolution(
        LpStatus.OPTIMAL,
        objective_value=value,
        assignment=x,
        iterations=iterations,
        residual=residual,
    )


def _max_violation(lp: LinearProgram, x: np.ndarray, sense: np.ndarray) -> float:
    """Largest constraint/bound violation of x (diagnostic); sense is
    _senses(lp.relations)."""
    # one dot product per row, as in the rhs shift: a matrix product would
    # round the left-hand sides differently
    excess = np.array([row.dot(x) for row in lp.matrix]) - lp.rhs
    excess = np.where(sense == 0.0, np.abs(excess), sense * excess)
    worst = max(0.0, float(np.max(excess, initial=0.0)))  # +0.0, never -0.0
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    finite = np.isfinite(lp.upper)
    if finite.any():
        worst = max(worst, float(np.max((x - lp.upper)[finite], initial=0.0)))
    return worst
