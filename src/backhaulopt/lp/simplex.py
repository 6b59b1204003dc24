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


def active_kernel():
    """The pivot kernel module solve uses when none is passed."""
    return _kernel_py


def solve(lp: LinearProgram, kernel=None) -> LpSolution:
    """Maximize lp.objective over lp's constraints and bounds."""
    if kernel is None:
        kernel = _kernel_py
    n = lp.num_vars
    shift = lp.lower.copy()

    # rows over shifted variables y = x - lower >= 0
    rows: list[tuple[np.ndarray, Relation, float]] = []
    for con in lp.constraints:
        rows.append((con.coeffs.copy(), con.relation, con.rhs - float(con.coeffs @ shift)))
    for i in range(n):
        if np.isfinite(lp.upper[i]):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append((e, Relation.LE, lp.upper[i] - shift[i]))

    # normalize right-hand sides to be nonnegative
    norm_rows = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = -coeffs
            rhs = -rhs
            rel = {Relation.LE: Relation.GE, Relation.GE: Relation.LE, Relation.EQ: Relation.EQ}[rel]
        norm_rows.append((coeffs, rel, rhs))

    m = len(norm_rows)
    n_slack = sum(1 for _, rel, _ in norm_rows if rel in (Relation.LE, Relation.GE))
    n_art = sum(1 for _, rel, _ in norm_rows if rel in (Relation.GE, Relation.EQ))
    ncols = n + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    basis = np.zeros(m, dtype=np.int64)

    slack_at = n
    art_at = n + n_slack
    for r, (coeffs, rel, rhs) in enumerate(norm_rows):
        T[r, :n] = coeffs
        T[r, ncols] = rhs
        if rel is Relation.LE:
            T[r, slack_at] = 1.0
            basis[r] = slack_at
            slack_at += 1
        elif rel is Relation.GE:
            T[r, slack_at] = -1.0
            slack_at += 1
            T[r, art_at] = 1.0
            basis[r] = art_at
            art_at += 1
        else:
            T[r, art_at] = 1.0
            basis[r] = art_at
            art_at += 1

    max_iter = 10000 + 200 * (m + ncols)
    rhs_scale = 1.0 + max((abs(rhs) for _, _, rhs in norm_rows), default=0.0)
    iterations = 0

    # phase 1: minimize the sum of artificial variables
    if n_art:
        for r in range(m):
            if basis[r] >= n + n_slack:
                T[m, :] -= T[r, :]
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
        for r in range(m):
            if basis[r] < n + n_slack:
                continue
            pivot_col = -1
            for j in range(n + n_slack):
                if abs(T[r, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                drop_rows.append(r)
                continue
            _kernel_py.eliminate(T, r, pivot_col)
            basis[r] = pivot_col
            iterations += 1
        if drop_rows:
            keep = [r for r in range(m) if r not in drop_rows]
            T = T[keep + [m], :]
            basis = basis[keep]
            m = len(keep)

    # phase 2: minimize -objective over structural + slack columns
    keep_cols = list(range(n + n_slack)) + [ncols]
    T2 = np.ascontiguousarray(T[:, keep_cols])
    obj = np.zeros(n + n_slack + 1)
    obj[:n] = -lp.objective
    T2[m, :] = obj
    for r in range(m):
        f = T2[m, basis[r]]
        if f != 0.0:
            T2[m, :] -= f * T2[r, :]
    code, iters = kernel.run_pivots(T2, basis, n + n_slack, PIVOT_TOL, max_iter)
    iterations += iters
    if code == _kernel_py.ITERATION_LIMIT:
        raise SolverFailure("simplex iteration limit hit in phase 2")
    if code == _kernel_py.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)

    y = np.zeros(n + n_slack)
    for r in range(m):
        y[basis[r]] = T2[r, n + n_slack]
    y[(y < 0) & (y > -1e-9)] = 0.0
    x = y[:n] + shift
    value = float(lp.objective @ x)
    residual = _max_violation(lp, x)
    if residual > PIVOT_TOL * rhs_scale:
        raise SolverFailure(f"simplex optimum violates the constraints by {residual:.3g}")
    return LpSolution(
        LpStatus.OPTIMAL,
        objective_value=value,
        assignment=x,
        iterations=iterations,
        variables={name: float(v) for name, v in zip(lp.names, x)},
        residual=residual,
    )


def _max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x (diagnostic)."""
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
