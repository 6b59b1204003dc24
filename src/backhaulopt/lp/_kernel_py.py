"""Simplex pivot loop over a dense NumPy tableau.

A pivot updates only the rows whose entry in the pivot column is nonzero:
the other rows would only have zeros subtracted from them. Formulation
tableaus are mostly zeros, so a pivot typically touches a handful of rows.
"""

from __future__ import annotations

import numpy as np

# return codes of run_pivots
OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def eliminate(tableau, row, col):
    """Pivot on (row, col): scale the row, clear col from every other row."""
    T = tableau
    T[row, :] /= T[row, col]
    pivot_row = T[row, :]
    # one row at a time: temporaries stay one row long, so peak memory does
    # not grow with the number of rows a pivot touches
    for i in np.flatnonzero(T[:, col]):
        if i != row:
            T[i, :] -= T[i, col] * pivot_row


def run_pivots(tableau, basis, ncols_enter, tol, max_iter):
    """Run Bland-rule pivots on a minimization tableau until optimal.

    tableau: (m+1) x (n+1) float64 array; rows 0..m-1 are constraints with the
        right-hand side in the last column, row m is the reduced-cost row.
    basis: int64 array of m basic column indices, updated in place.
    ncols_enter: columns 0..ncols_enter-1 are eligible to enter the basis.
    Returns (code, pivots_performed).
    """
    T = tableau
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    iters = 0
    while iters < max_iter:
        red = T[m, :ncols_enter]
        improving = np.flatnonzero(red < -tol)
        if improving.size == 0:
            return OPTIMAL, iters
        col = int(improving[0])  # Bland: smallest eligible index enters

        pivcol = T[:m, col]
        positive = np.flatnonzero(pivcol > tol)
        if positive.size == 0:
            return UNBOUNDED, iters
        ratios = T[positive, last] / pivcol[positive]
        best = ratios.min()
        ties = positive[ratios == best]
        row = int(ties[np.argmin(basis[ties])])  # Bland: smallest basic index leaves

        eliminate(T, row, col)
        basis[row] = col
        iters += 1
    return ITERATION_LIMIT, iters
