"""Tests of the benchmark's own logic: span arithmetic, metric rules, checks.

Run with: python3 -m pytest perfbench/tests
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from backhaulopt.experiment import ExperimentConfig, run_trial, write_results
from backhaulopt.lp import LinearProgram, Relation, simplex


def span(name, start, end, parent=-1, **attrs):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("experiment.trial", 0.0, 10.0),
        span("formulations.solve", 1.0, 4.0, parent=0),
        span("lp.solve", 2.0, 3.0, parent=1),
        span("scheduler.build", 5.0, 9.0, parent=0),
        # overlaps its sibling and runs past the parent's end: only the part
        # inside the parent not already covered counts
        span("validator.validate", 8.0, 10.5, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.5])


def test_layer_metrics_on_synthetic_spans():
    spans = [
        span("op", 0.0, 10.0),
        span("experiment.trial", 0.0, 10.0, parent=0),
        span("formulations.solve", 1.0, 4.0, parent=1),
        span("lp.solve", 2.0, 3.5, parent=2, pivots=7, cells=12, residual=1e-12),
        span("lp.phase1", 2.0, 2.5, parent=3, pivots=5),
        span("lp.phase2", 2.5, 3.0, parent=3, pivots=2),
        span("scheduler.build", 5.0, 6.0, parent=1, placed=1),
        span("scheduler.build", 6.0, 7.0, parent=1, placed=0, failures=1),
    ]
    m = tracing.layer_metrics(spans, ops=2, phase_hook=True)
    assert m["experiment.trial_s"] == (5.0, "s/op")
    assert m["experiment.self_s"] == (2.5, "s/op")
    assert m["formulations.self_s"] == (0.75, "s/op")
    assert m["lp.setup_s"] == (0.25, "s/op")
    assert m["lp.pivots"] == (7, "count")
    assert m["lp.phase1_pivots"] == (5, "count")
    assert m["lp.tableau_cells"] == (12, "count")
    assert m["lp.max_residual"] == (1e-12, "abs")
    assert m["scheduler.placed_ratio"] == (0.5, "ratio")
    assert m["cli.parse_s"] == (0.0, "s/op")
    without_hook = tracing.layer_metrics(spans, ops=2, phase_hook=False)
    assert not set(tracing.PHASE_METRICS) & set(without_hook)


def test_tableau_cells_matches_the_phase_one_tableau():
    lp = LinearProgram(3)
    lp.set_objective([1.0, 2.0, 0.5])
    lp.add_constraint([1.0, 1.0, 0.0], Relation.LE, 4.0)
    lp.add_constraint([1.0, 0.0, 1.0], Relation.GE, 1.0)
    lp.add_constraint([0.0, 1.0, 1.0], Relation.EQ, 2.0)
    lp.set_bounds(0, 0.5, 3.0)
    shapes = []

    class Recorder:
        def run_pivots(self, tableau, *args):
            shapes.append(tableau.shape)
            return simplex.active_kernel().run_pivots(tableau, *args)

    assert simplex.solve(lp, kernel=Recorder()).is_optimal
    rows, cols = shapes[0]
    assert tracing.tableau_cells(lp) == rows * cols


def test_p90_withheld_below_one_hundred_ops():
    short = run.summarize([(0.01, 0.01, 0.002)] * 99, wall=1.0)
    assert "op_p90_s" not in short
    assert short["op_p50_s"] == (0.01, "s", 99)
    full = run.summarize([(0.01, 0.02, 0.002)] * 90 + [(0.02, 0.02, 0.004)] * 10, wall=2.0)
    assert full["op_p90_s"][2] == 100
    assert full["ops_per_s"] == (50.0, "op/s", 100)


def test_cal_metrics_divide_each_op_by_the_reference_time_before_it():
    # the host runs at half speed for the second half: every time doubles
    ops = [(0.01, 0.02, 0.002)] * 50 + [(0.02, 0.04, 0.004)] * 50
    m = run.summarize(ops, wall=3.0)
    assert m["op_p50_cal"] == (pytest.approx(5.0), "cal", 100)
    assert m["ops_per_cal"] == (pytest.approx(0.1), "op/cal", 100)


def test_trial_row_is_formatted_as_write_results_writes_it(tmp_path):
    results = [run_trial(ExperimentConfig(seed=5), t) for t in range(2)]
    write_results(results, str(tmp_path))
    tables = {}
    for name in ("max_demand_by_setting", "aggregate_by_objective", "jain_by_objective",
                 "min_radio_chains_hist"):
        with open(tmp_path / f"{name}.csv") as fh:
            tables[name] = list(csv.reader(fh))[1:]
    for t, result in enumerate(results):
        cells = workloads.trial_row(result).split(",")
        expected = tables["max_demand_by_setting"][t]
        for name in ("aggregate_by_objective", "jain_by_objective", "min_radio_chains_hist"):
            expected += tables[name][t][2:]
        assert cells[: len(expected)] == expected


def test_perturbed_experiment_answer_counts_as_a_failure():
    refs = run.load_references()
    w = workloads.setup("experiment-paper", 1, "", refs)
    assert w.refs is not None

    class Perturbed:
        def op(self, i):
            result = w.op(i)
            if i % 2:
                result.d_b["LI-ER"] += 1e-6
            return result

        check = staticmethod(w.check)

    tally = run.Tally()
    for i in range(4):
        tally.record(run.run_op(Perturbed(), i)[2])
    assert (tally.attempted, tally.failed, tally.error_rate) == (4, 2, 0.5)


def test_perturbed_plan_answer_fails_the_reference_check():
    w = workloads.setup("plan-large", 1, "", run.load_references())
    out = w.op(0)
    assert w.check(0, out) == []
    sol = out["aggregate"][0]
    first = min(sol.per_bs)
    sol.per_bs[first] *= 1.0 + 1e-8
    assert any("reference" in p for p in w.check(0, out))


@pytest.fixture(scope="module")
def revalidate(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("triples")
    return workloads.setup("revalidate-io", 1, str(workdir), run.load_references())


def test_tampered_triple_exits_one(revalidate):
    answers = [revalidate.op(i) for i in range(workloads.TAMPER_EVERY)]
    assert [code for code, _ in answers] == [0, 0, 0, 1]
    assert "InterferenceOverlap" in answers[-1][1]
    assert all(revalidate.check(i, a) == [] for i, a in enumerate(answers))


def test_wrong_exit_code_or_line_is_a_failure(revalidate):
    code, text = revalidate.op(3)
    assert revalidate.check(3, (0, text))
    assert revalidate.check(3, (code, text.replace("realized", "reported")))


def test_tracer_restores_every_wrapped_name(revalidate):
    before = [getattr(module, attr) for module, attr, _ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    tally = run.Tally()
    metrics = run.traced_loop(revalidate, 4, tally, tracer)
    assert [getattr(module, attr) for module, attr, _ in tracing.BOUNDARIES] == before
    assert tally.failed == 0 and tally.attempted == 8
    assert metrics["validator.calls"] == (4, "count")
    assert metrics["validator.violations"][0] >= 1
    assert metrics["cli.parse_s"][0] > 0.0


def test_exits_nonzero_without_the_package(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
