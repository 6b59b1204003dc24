"""Outside-in tracing: spans around the calls one layer makes into the next.

The tracer replaces module attributes (the names through which a caller
reaches a callee, such as ``backhaulopt.experiment.build_schedule``) with
wrappers that record a span per call, and restores them on uninstall. No
code under ``src/`` changes. Spans live in memory and are written out when
the traced run ends.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the index
of the enclosing span or -1, ``op`` the op id, ``attrs`` the counts read
from the returned object (LP iterations and residual, violations, whether a
schedule was placed).
"""

from __future__ import annotations

import inspect
import time

from backhaulopt import cli, experiment, formulations, model, validator
from backhaulopt.errors import PlacementFailure
from backhaulopt.lp import simplex

import workloads

NAME, START, END, PARENT, OP, ATTRS = range(6)

# (module, attribute, span name): every name through which one layer calls
# the next on the benchmark's paths. Calls inside a layer to itself (say
# solve_aggregate -> solve_equal_demand) are not boundaries and stay unwrapped.
BOUNDARIES = [
    (workloads, "run_trial", "experiment.trial"),
    (experiment, "generate_topology", "generator.generate"),
    (workloads, "generate_topology", "generator.generate"),
    (experiment, "adapt_topology", "generator.adapt"),
    (experiment, "strip_interference", "generator.adapt"),
    (workloads, "adapt_topology", "generator.adapt"),
    (experiment, "solve_equal_demand", "formulations.solve"),
    (experiment, "solve_objective", "formulations.solve"),
    (workloads, "solve_objective", "formulations.solve"),
    (formulations, "build_equal_demand_lp", "formulations.build"),
    (formulations, "build_aggregate_lp", "formulations.build"),
    (formulations, "solve", "lp.solve"),
    (experiment, "build_schedule", "scheduler.build"),
    (workloads, "build_schedule", "scheduler.build"),
    (experiment, "validate_schedule", "validator.validate"),
    (cli, "validate_schedule", "validator.validate"),
    (workloads, "validate_schedule", "validator.validate"),
    (formulations, "subtree_bs_set", "model.subtree"),
    (validator, "subtree_bs_set", "model.subtree"),
    (model, "subtree_bs_set", "model.subtree"),
    (cli, "load_topology", "cli.parse"),
    (cli, "solution_from_dict", "cli.parse"),
    (cli, "schedule_from_dict", "cli.parse"),
    (cli, "main", "cli.main"),
]


def has_phase_hook() -> bool:
    """True while simplex.solve accepts a kernel and exposes the default one."""
    return hasattr(simplex, "active_kernel") and "kernel" in inspect.signature(
        formulations.solve).parameters


def tableau_cells(lp) -> int:
    """Dense tableau size of one solve, computed from the public LP shape.

    (rows + finite upper bounds + 1) x (vars + slacks + artificials + 1),
    with the simplex's row normalization: a row whose shifted right-hand
    side is negative flips its relation.
    """
    relations = []
    for con in lp.constraints:
        rhs = con.rhs - float(con.coeffs @ lp.lower)
        rel = con.relation.name
        if rhs < 0 and rel != "EQ":
            rel = "GE" if rel == "LE" else "LE"
        relations.append(rel)
    for lo, hi in zip(lp.lower, lp.upper):
        if hi != float("inf"):
            relations.append("LE" if hi - lo >= 0 else "GE")
    slacks = sum(rel in ("LE", "GE") for rel in relations)
    artificials = sum(rel in ("GE", "EQ") for rel in relations)
    return (len(relations) + 1) * (lp.num_vars + slacks + artificials + 1)


class _PhaseKernel:
    """Delegates run_pivots to the default kernel, one span per phase.

    Phase 1 pivots over a tableau that still carries artificial columns, so
    fewer columns may enter than the tableau has; phase 2 drops them.
    """

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def run_pivots(self, tableau, basis, ncols_enter, tol, max_iter):
        phase = "lp.phase1" if ncols_enter < tableau.shape[1] - 1 else "lp.phase2"
        span = self._tracer.open(phase)
        try:
            code, iters = self._inner.run_pivots(tableau, basis, ncols_enter, tol, max_iter)
            span[ATTRS]["pivots"] = int(iters)
            return code, iters
        finally:
            self._tracer.close(span)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1
        self.phase_hook = has_phase_hook()

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def plain(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        def lp_solve(lp, *args, **kwargs):
            span = tracer.open(name)
            try:
                span[ATTRS]["cells"] = tableau_cells(lp)
                if tracer.phase_hook and not args and "kernel" not in kwargs:
                    kwargs["kernel"] = _PhaseKernel(tracer, simplex.active_kernel())
                sol = fn(lp, *args, **kwargs)
                span[ATTRS]["pivots"] = sol.iterations
                span[ATTRS]["residual"] = sol.residual
                return sol
            finally:
                tracer.close(span)

        def schedule(*args, **kwargs):
            span = tracer.open(name)
            span[ATTRS]["placed"] = 0
            try:
                out = fn(*args, **kwargs)
                span[ATTRS]["placed"] = 1
                return out
            except PlacementFailure:
                span[ATTRS]["failures"] = 1
                raise
            finally:
                tracer.close(span)

        def validate(*args, **kwargs):
            span = tracer.open(name)
            try:
                report = fn(*args, **kwargs)
                span[ATTRS]["violations"] = len(report.violations)
                return report
            finally:
                tracer.close(span)

        return {"lp.solve": lp_solve, "scheduler.build": schedule,
                "validator.validate": validate}.get(name, plain)

    def install(self) -> None:
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """One CSV line per span: name, start, end, parent, op, attrs."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op,attrs\n")
            for s in self.spans:
                attrs = ";".join(f"{k}={v}" for k, v in sorted(s[ATTRS].items()))
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{attrs}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(idx, [])):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((s[END] - s[START]) - covered)
    return out


PHASE_METRICS = ("lp.phase1_s", "lp.phase2_s", "lp.phase1_pivots", "lp.phase2_pivots",
                 "lp.setup_s")


def layer_metrics(spans: list[list], ops: int, phase_hook: bool) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)}; times are seconds per op.

    Counts are totals over the traced ops. A layer the workload never enters
    reads 0. Without the kernel hook the phase split is missing, not zero.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[tuple[str, str], float] = {}
    residual = 0.0
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in s[ATTRS].items():
            if key == "residual":
                residual = max(residual, value)
            else:
                attrs[(name, key)] = attrs.get((name, key), 0) + value

    def per_op(table, name):
        return (table.get(name, 0.0) / ops, "s/op")

    def count(value):
        return (int(value), "count")

    solves = calls.get("lp.solve", 0)
    pivots = attrs.get(("lp.solve", "pivots"), 0)
    sched_calls = calls.get("scheduler.build", 0)
    out = {
        "generator.generate_s": per_op(total, "generator.generate"),
        "generator.generate_calls": count(calls.get("generator.generate", 0)),
        "generator.adapt_s": per_op(total, "generator.adapt"),
        "formulations.build_s": per_op(total, "formulations.build"),
        "formulations.solve_calls": count(calls.get("formulations.solve", 0)),
        "formulations.self_s": per_op(own, "formulations.solve"),
        "lp.solves": count(solves),
        "lp.solve_s": per_op(total, "lp.solve"),
        "lp.pivots": count(pivots),
        "lp.pivots_per_solve": (pivots / solves if solves else 0.0, "pivots"),
        "lp.tableau_cells": count(attrs.get(("lp.solve", "cells"), 0)),
        "lp.max_residual": (residual, "abs"),
        "scheduler.build_s": per_op(total, "scheduler.build"),
        "scheduler.calls": count(sched_calls),
        "scheduler.placed_ratio": (
            attrs.get(("scheduler.build", "placed"), 0) / sched_calls if sched_calls else 0.0,
            "ratio"),
        "validator.validate_s": per_op(total, "validator.validate"),
        "validator.calls": count(calls.get("validator.validate", 0)),
        "validator.violations": count(attrs.get(("validator.validate", "violations"), 0)),
        "model.subtree_calls": count(calls.get("model.subtree", 0)),
        "model.subtree_s": per_op(total, "model.subtree"),
        "cli.parse_s": per_op(total, "cli.parse"),
        "cli.self_s": per_op(own, "cli.main"),
        "experiment.trial_s": per_op(total, "experiment.trial"),
        "experiment.self_s": per_op(own, "experiment.trial"),
    }
    if phase_hook:
        out["lp.phase1_s"] = per_op(total, "lp.phase1")
        out["lp.phase2_s"] = per_op(total, "lp.phase2")
        out["lp.phase1_pivots"] = count(attrs.get(("lp.phase1", "pivots"), 0))
        out["lp.phase2_pivots"] = count(attrs.get(("lp.phase2", "pivots"), 0))
        out["lp.setup_s"] = per_op(own, "lp.solve")
    return out
