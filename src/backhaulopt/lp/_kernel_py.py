"""Simplex pivot loop over a dense NumPy tableau.

Formulation tableaus are mostly zeros: at 200 small BSs a pivot column has
about six nonzero rows out of several hundred. So each pivot scans its
column once, and that one list of nonzero rows serves both steps: the ratio
test compares scalars over those few rows, and the update clears the column
from those rows only. Every other row would only have zeros subtracted from
it.
"""

from __future__ import annotations

import numpy as np

# return codes of run_pivots
OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def eliminate(tableau, row, col, rows):
    """Pivot on (row, col): scale the row, clear col from every other row.

    rows lists the rows whose entry in col is nonzero, in ascending order.
    """
    T = tableau
    T[row, :] /= T[row, col]
    pivot_row = T[row, :]
    # one row at a time: temporaries stay one row long, so peak memory does
    # not grow with the number of rows a pivot touches
    for i in rows:
        if i != row:
            Ti = T[i]
            Ti -= Ti[col] * pivot_row


def run_pivots(tableau, basis, ncols_enter, tol, max_iter):
    """Run Bland-rule pivots on a minimization tableau until optimal.

    tableau: (m+1) x (n+1) float64 array; rows 0..m-1 are constraints with the
        right-hand side in the last column, row m is the reduced-cost row.
    basis: int64 array of m basic column indices, updated in place.
    ncols_enter: columns 0..ncols_enter-1 are eligible to enter the basis.
    Returns (code, pivots_performed).

    One scan of the entering column per pivot yields its nonzero rows. The
    ratio test runs over them as Python floats, which divide and compare
    exactly as float64 arrays do, and eliminate updates the same rows.
    """
    T = tableau
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    reduced = T[m, :ncols_enter]
    entry = T.item
    iters = 0
    while iters < max_iter:
        improving = reduced < -tol
        col = int(improving.argmax())  # Bland: smallest eligible index enters
        if not improving[col]:
            return OPTIMAL, iters

        rows = T[:, col].nonzero()[0].tolist()
        # Bland: of the rows with the least ratio, the smallest basic index
        # leaves. The cost row's entry is negative, so it never qualifies.
        row = -1
        best = 0.0
        for i in rows:
            a = entry(i, col)
            if a > tol:
                ratio = entry(i, last) / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            return UNBOUNDED, iters

        eliminate(T, row, col, rows)
        basis[row] = col
        iters += 1
    return ITERATION_LIMIT, iters
