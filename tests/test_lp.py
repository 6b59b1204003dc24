"""Two-phase simplex: frozen optima, frozen pivots, cycling resistance, failures."""

import math

import numpy as np
import pytest

import oracles
from backhaulopt.errors import (
    BackhaulError,
    DimensionMismatch,
    NonFiniteInput,
    NonPositiveInput,
    SolverFailure,
)
from backhaulopt.formulations import build_aggregate_lp, build_equal_demand_lp, parse_setting
from backhaulopt.generator import GeneratorConfig, adapt_topology, generate_topology
from backhaulopt.lp import LinearProgram, LpStatus, Relation, solve
from backhaulopt.lp import _kernel_py, simplex


def test_one_row_box():
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    lp.add_constraint([1.0, 1.0], Relation.LE, 1.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_mixed_relations_frozen_optimum():
    # max 3x + 2y,  x + y <= 4,  x <= 2  ->  (2, 2), value 10
    lp = LinearProgram(2)
    lp.set_objective([3.0, 2.0])
    lp.add_constraint([1.0, 1.0], Relation.LE, 4.0)
    lp.set_bounds(0, upper=2.0)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(10.0, abs=1e-9)
    assert sol.assignment == pytest.approx([2.0, 2.0], abs=1e-9)


def test_equality_and_ge_rows():
    # max x + 2y,  x + y = 3,  y >= 1,  y <= 2  ->  (1, 2), value 5
    lp = LinearProgram(2)
    lp.set_objective([1.0, 2.0])
    lp.add_constraint([1.0, 1.0], Relation.EQ, 3.0)
    lp.add_constraint([0.0, 1.0], Relation.GE, 1.0)
    lp.set_bounds(1, upper=2.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0, abs=1e-9)
    assert sol.assignment == pytest.approx([1.0, 2.0], abs=1e-9)


def test_shifted_lower_bounds():
    # max -x with 1 <= x <= 3 sits at the shifted origin
    lp = LinearProgram(1)
    lp.set_objective([-1.0])
    lp.set_bounds(0, lower=1.0, upper=3.0)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)
    assert sol.assignment[0] == pytest.approx(1.0, abs=1e-12)


def test_tableau_assembly_frozen():
    # every assembly path at once: <=, >= and = rows that all have negative
    # right-hand sides (each is flipped), lower-bound shifts, an active
    # upper-bound row, and a doubled = row whose artificial phase 1 cannot
    # drive out, so the row is dropped; recorded with the row-by-row assembly
    lp = LinearProgram(3)
    lp.set_objective([1.0, 2.0, 0.7])
    lp.add_constraint([-1.0, -1.0, 0.0], Relation.LE, -2.0)
    lp.add_constraint([-1.0, 0.0, -1.0], Relation.GE, -6.1)
    lp.add_constraint([0.0, -1.0, -1.0], Relation.EQ, -3.3)
    lp.add_constraint([0.0, -2.0, -2.0], Relation.EQ, -6.6)
    lp.set_bounds(0, lower=0.3)
    lp.set_bounds(1, lower=0.2, upper=2.9)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.iterations == 5
    assert sol.objective_value.hex() == "0x1.78f5c28f5c28fp+3"
    assert [v.hex() for v in sol.assignment] == [
        "0x1.6cccccccccccdp+2", "0x1.7333333333333p+1", "0x1.9999999999998p-2",
    ]


def test_infeasible_rows_detected():
    lp = LinearProgram(1)
    lp.set_objective([1.0])
    lp.add_constraint([1.0], Relation.GE, 3.0)
    lp.add_constraint([1.0], Relation.LE, 1.0)
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram(2)
    lp.set_objective([1.0, 0.0])
    lp.add_constraint([0.0, 1.0], Relation.LE, 1.0)
    assert solve(lp).status is LpStatus.UNBOUNDED


def _duplicate_rows():
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    for _ in range(3):
        lp.add_constraint([1.0, 1.0], Relation.LE, 2.0)
    lp.add_constraint([1.0, 0.0], Relation.LE, 2.0)
    return lp


def test_degenerate_duplicate_rows():
    sol = solve(_duplicate_rows())
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def _beale():
    # the classic cycling instance for naive pivoting
    lp = LinearProgram(4)
    lp.set_objective([0.75, -150.0, 0.02, -6.0])
    lp.add_constraint([0.25, -60.0, -0.04, 9.0], Relation.LE, 0.0)
    lp.add_constraint([0.5, -90.0, -0.02, 3.0], Relation.LE, 0.0)
    lp.add_constraint([0.0, 0.0, 1.0, 0.0], Relation.LE, 1.0)
    return lp


def test_beale_cycling_example_terminates():
    # Bland's rule must finish at value 1/20 (x1 = 1/25, x3 = 1)
    sol = solve(_beale())
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05, abs=1e-9)
    assert sol.iterations < 100


def test_input_validation():
    lp = LinearProgram(2)
    with pytest.raises(DimensionMismatch):
        lp.set_objective([1.0])
    with pytest.raises(DimensionMismatch):
        lp.add_constraint([1.0], Relation.LE, 0.0)
    with pytest.raises(NonPositiveInput):
        lp.set_bounds(0, lower=-1.0)


def test_block_shape_validation():
    lp = LinearProgram(2)
    with pytest.raises(DimensionMismatch):
        lp.add_constraints([1.0, 1.0], Relation.LE, 1.0)  # one row, not a block
    with pytest.raises(DimensionMismatch):
        lp.add_constraints([[1.0, 1.0, 1.0]], Relation.LE, 1.0)
    with pytest.raises(DimensionMismatch):
        lp.add_constraints([[1.0, 1.0], [0.0, 1.0]], Relation.LE, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        lp.add_constraints([[1.0, 1.0], [0.0, 1.0]], [Relation.LE], 1.0)
    with pytest.raises(DimensionMismatch):
        lp.add_constraints([[1.0, 1.0]], ["<="], 1.0)
    assert lp.constraints == ()


def _four_by_two():
    """max x + y subject to x + y <= 4: optimum 4."""
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    lp.add_constraint([1.0, 1.0], Relation.LE, 4.0)
    return lp


# every way a NaN or an infinity can enter a program; each must raise at once
# and leave the program as it was
NON_FINITE = {
    "nan rhs": lambda lp: lp.add_constraint([1.0, 0.0], Relation.LE, math.nan),
    "inf rhs": lambda lp: lp.add_constraint([1.0, 0.0], Relation.GE, -math.inf),
    "nan coefficient": lambda lp: lp.add_constraint([math.nan, 1.0], Relation.LE, 1.0),
    "inf coefficient in a block": lambda lp: lp.add_constraints(
        [[1.0, 0.0], [math.inf, 1.0]], Relation.LE, [1.0, 2.0]
    ),
    "nan rhs in a block": lambda lp: lp.add_constraints(
        [[1.0, 0.0], [0.0, 1.0]], Relation.LE, [1.0, math.nan]
    ),
    "nan objective": lambda lp: lp.set_objective([math.nan, 1.0]),
    "inf objective": lambda lp: lp.set_objective([1.0, math.inf]),
    "nan lower bound": lambda lp: lp.set_bounds(0, math.nan),
    "inf lower bound": lambda lp: lp.set_bounds(0, math.inf),
    "nan upper bound": lambda lp: lp.set_bounds(0, 0.0, math.nan),
    "-inf upper bound": lambda lp: lp.set_bounds(0, 0.0, -math.inf),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_is_rejected(case):
    lp = _four_by_two()
    with pytest.raises(NonFiniteInput):
        NON_FINITE[case](lp)
    assert len(lp.constraints) == 1
    assert lp.lower.tolist() == [0.0, 0.0] and lp.upper.tolist() == [math.inf, math.inf]
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL and sol.objective_value == 4.0


def test_infinite_upper_bound_is_no_bound():
    lp = _four_by_two()
    lp.set_bounds(0, 1.0, math.inf)
    assert solve(lp).objective_value == 4.0


def test_constraints_view_reads_the_matrix():
    lp = LinearProgram(3)
    lp.add_constraints(
        [[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]], [Relation.LE, Relation.EQ], [4.0, -1.0]
    )
    lp.add_constraint([0.5, 0.5, 0.5], Relation.GE, 0.25)
    rows = lp.constraints
    assert [con.relation for con in rows] == [Relation.LE, Relation.EQ, Relation.GE]
    assert [type(con.rhs) for con in rows] == [float] * 3
    assert [con.rhs for con in rows] == [4.0, -1.0, 0.25]
    assert np.array_equal(np.stack([con.coeffs for con in rows]), lp.matrix)
    # rows enter only through the checked adds: every view is read-only
    for write in (
        lambda: rows[0].coeffs.__setitem__(0, 7.0),
        lambda: lp.matrix.__setitem__((0, 0), 7.0),
        lambda: lp.rhs.__setitem__(0, 7.0),
    ):
        with pytest.raises(ValueError):
            write()
    assert lp.matrix[0, 0] == 1.0 and lp.rhs[0] == 4.0


def test_added_blocks_are_copied():
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    lp = LinearProgram(2)
    lp.set_objective([1.0, 0.0])
    lp.add_constraints(block, Relation.LE, [4.0, 0.0])
    assert block.flags.writeable
    block[0, 0] = 9.0  # the caller's array stays the caller's
    view = np.ones((4, 2))[::2]
    lp.add_constraints(view, Relation.GE, 0.0)
    view[0, 0] = 9.0
    assert lp.matrix.tolist() == [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0]]
    assert not lp.matrix.flags.writeable and not lp.rhs.flags.writeable
    assert solve(lp).objective_value == 2.0
    fresh = LinearProgram(2)
    rejected = np.array([[1.0, math.nan]])
    with pytest.raises(NonFiniteInput):
        fresh.add_constraints(rejected, Relation.LE, 1.0)
    assert fresh.constraints == () and rejected.flags.writeable


def test_residual_reported_small():
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    lp.add_constraint([2.0, 1.0], Relation.LE, 3.0)
    lp.add_constraint([1.0, 3.0], Relation.GE, 1.0)
    sol = solve(lp)
    assert sol.residual <= 1e-9


def test_dump_mentions_names():
    lp = LinearProgram(2, names=["a", "b"])
    lp.set_objective([1.0, -1.0])
    lp.add_constraint([1.0, 1.0], Relation.LE, 1.0)
    text = lp.dump()
    assert "maximize" in text and "a" in text and "b" in text


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    lp = LinearProgram(n)
    lp.set_objective(rng.integers(-5, 6, n).astype(float))
    for _ in range(int(rng.integers(1, 6))):
        # EQ rows kept rare: with random coefficients they mostly produce
        # infeasible programs and starve the optimal bucket
        rel = (Relation.LE, Relation.LE, Relation.GE, Relation.GE, Relation.EQ)[
            int(rng.integers(0, 5))
        ]
        lp.add_constraint(
            rng.integers(-4, 5, n).astype(float), rel, float(rng.integers(0, 8))
        )
    for j in range(n):
        if rng.random() < 0.3:
            lp.set_bounds(j, upper=float(rng.integers(1, 6)))
    return lp


def test_matches_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(150):
        lp = _random_lp(rng)
        c, rows, rhs = oracles.lp_rows(lp)
        want_status, want_value, _ = oracles.enumerate_max(c, rows, rhs)
        sol = solve(lp)
        assert sol.status.value == want_status, lp.dump()
        if want_status == "optimal":
            assert sol.objective_value == pytest.approx(want_value, abs=1e-6), lp.dump()
        statuses[want_status] += 1
    # the sample must actually exercise all three outcomes
    assert statuses["infeasible"] > 5
    assert statuses["unbounded"] > 5
    assert statuses["optimal"] > 40


def test_residual_matches_the_row_by_row_reference():
    rng = np.random.default_rng(7)
    lps = [_random_lp(rng) for _ in range(150)] + [*_formulation_lps(3).values()]
    checked = 0
    for lp in lps:
        sol = solve(lp)
        if sol.is_optimal:
            want = oracles.reference_residual(lp, sol.assignment)
            assert sol.residual.hex() == want.hex(), lp.dump()
            checked += 1
    assert checked > 40


def _formulation_lps(seed, n=80):
    """The three objectives' LPs on one generated LI-LR(2) tree, n/3 pairs."""
    setting, macro_chains = parse_setting("LI-LR(2)")
    base = generate_topology(
        GeneratorConfig(seed=seed, num_small_bs=n, macro_degree=4, interference_pair_budget=n // 3)
    )
    topo = adapt_topology(base, setting, macro_chains)
    equal, _ = build_equal_demand_lp(topo, setting)
    floor = solve(equal).objective_value
    fair, _ = build_aggregate_lp(topo, setting, {b: floor for b in topo.small_bs_ids()})
    return {
        "equal_demand": equal,
        "aggregate": build_aggregate_lp(topo, setting)[0],
        "aggregate_fair": fair,
    }


# (seed, objective) -> (pivots, objective value as float.hex); any change to
# the pivot rules or to the arithmetic of a pivot shows up here
FROZEN_PIVOTS = {
    (3, "equal_demand"): (81, "0x1.5d021ee6dabc6p-4"),
    (3, "aggregate"): (88, "0x1.3f03f03f03f04p+4"),
    (3, "aggregate_fair"): (84, "0x1.3f03f03f03f04p+4"),
    (11, "equal_demand"): (81, "0x1.4414414414414p-3"),
    (11, "aggregate"): (93, "0x1.a95a95a95a95ap+4"),
    (11, "aggregate_fair"): (89, "0x1.4bacbacbacbacp+4"),
}


@pytest.mark.parametrize("seed", [3, 11])
def test_formulation_lps_keep_their_pivots_and_optimum(seed):
    for objective, lp in _formulation_lps(seed).items():
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        got = (sol.iterations, sol.objective_value.hex())
        assert got == FROZEN_PIVOTS[seed, objective], objective


def _rebuilt(lp, one_block):
    """The same program, its rows added one at a time or in one block."""
    out = LinearProgram(lp.num_vars, lp.names)
    out.set_objective(lp.objective)
    if one_block:
        out.add_constraints(lp.matrix, lp.relations, lp.rhs)
    else:
        for con in lp.constraints:
            out.add_constraint(con.coeffs, con.relation, con.rhs)
    for j in range(lp.num_vars):
        out.set_bounds(j, lp.lower[j], lp.upper[j])
    return out


def _solve_image(lp):
    sol = solve(lp)
    return (
        sol.status,
        sol.iterations,
        sol.assignment.tobytes(),
        sol.objective_value.hex(),
        float(sol.residual).hex(),
    )


def test_row_by_row_and_one_block_solve_identically():
    lps = [*_formulation_lps(3).values()]
    lps.append(_formulation_lps(11)["aggregate_fair"])
    for lp in lps:
        rows, block = _rebuilt(lp, one_block=False), _rebuilt(lp, one_block=True)
        assert np.array_equal(rows.matrix, block.matrix)
        assert _solve_image(rows) == _solve_image(block) == _solve_image(lp)


class _SideBySide:
    """Runs the reference pivot loop on copies, then the package kernel."""

    def __init__(self):
        self.reference = oracles.ReferencePivots()
        self.codes = []

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        want_tableau, want_basis = tableau.copy(), basis.copy()
        want = self.reference.run_pivots(want_tableau, want_basis, ncols_enter, tol, max_iter)
        got = _kernel_py.run_pivots(tableau, basis, ncols_enter, tol, max_iter)
        assert got == want
        assert tableau.tobytes() == want_tableau.tobytes()
        assert basis.tobytes() == want_basis.tobytes()
        self.codes.append(got[0])
        return got


def test_pivot_path_matches_the_reference_loop():
    # every phase of every program: the same tableau bits, basis and pivot
    # count as a plain Bland loop that scans each column in full
    rng = np.random.default_rng(42)
    lps = [_random_lp(rng) for _ in range(150)] + [_beale(), _duplicate_rows()]
    lps += [*_formulation_lps(3).values(), *_formulation_lps(1, n=200).values()]
    side = _SideBySide()
    for lp in lps:
        solve(lp, kernel=side)
    assert {_kernel_py.OPTIMAL, _kernel_py.UNBOUNDED} <= set(side.codes)
    assert len(side.codes) > len(lps)  # phase 1 ran too
    # ties in the ratio test were broken by the smallest basic index
    assert side.reference.tied > 0


class _PhaseOneRow:
    """Checks the cost row phase 1 starts from against the artificial rows
    subtracted from zero one at a time, then runs the package kernel."""

    def __init__(self):
        self.blocks = []  # per phase 1: whether its artificial rows are one block

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        art_rows = np.flatnonzero(basis >= ncols_enter)
        if art_rows.size:  # only phase 1 starts with artificial basics
            want = np.zeros(tableau.shape[1])
            for r in art_rows:
                want -= tableau[r, :]
            assert tableau[-1].tobytes() == want.tobytes()
            self.blocks.append(art_rows[-1] - art_rows[0] + 1 == art_rows.size)
        return _kernel_py.run_pivots(tableau, basis, ncols_enter, tol, max_iter)


def test_phase_one_cost_row_matches_the_row_by_row_loop():
    # one reduction over the artificial rows gives the loop's row bit for bit,
    # whether they are one block of the tableau or scattered through it
    rng = np.random.default_rng(42)
    lps = [_random_lp(rng) for _ in range(150)] + [*_formulation_lps(3).values()]
    kernel = _PhaseOneRow()
    for lp in lps:
        solve(lp, kernel=kernel)
    assert len(kernel.blocks) > 100
    assert kernel.blocks.count(False) > 10 and kernel.blocks[-3:] == [True] * 3


class _StuckKernel:
    """Stops every pivot loop at once, reporting the iteration limit."""

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        return _kernel_py.ITERATION_LIMIT, max_iter


def test_iteration_limit_raises_solver_failure():
    with_artificials = LinearProgram(2)
    with_artificials.set_objective([1.0, 1.0])
    with_artificials.add_constraint([1.0, 1.0], Relation.GE, 1.0)
    slack_only = LinearProgram(2)
    slack_only.set_objective([1.0, 1.0])
    slack_only.add_constraint([1.0, 1.0], Relation.LE, 1.0)
    for lp, phase in ((with_artificials, "phase 1"), (slack_only, "phase 2")):
        with pytest.raises(SolverFailure, match=phase):
            solve(lp, kernel=_StuckKernel())
    assert issubclass(SolverFailure, BackhaulError)


class _DriftingKernel:
    """Pivots correctly, then nudges every basic value off the optimum."""

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        code, iters = _kernel_py.run_pivots(tableau, basis, ncols_enter, tol, max_iter)
        tableau[:-1, -1] += 1e-6
        return code, iters


def test_residual_above_tolerance_raises_solver_failure():
    lp = LinearProgram(1)
    lp.set_objective([1.0])
    lp.add_constraint([1.0], Relation.LE, 1.0)
    with pytest.raises(SolverFailure, match="violates"):
        solve(lp, kernel=_DriftingKernel())


def test_active_kernel_is_the_default_kernel():
    # perfbench wraps active_kernel() to time the two phases separately
    assert simplex.active_kernel() is _kernel_py
