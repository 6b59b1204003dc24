"""Property tests: a single bad number in a valid solution or schedule file
never lets `backhaulopt validate` report a clean schedule or crash, any
single mutated field of the three input files ends `validate` and `schedule`
with an exit code rather than an internal error, and a random valid tree
goes through solve, schedule and validate with no violations."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaulopt.cli import main
from backhaulopt.errors import PlacementFailure
from backhaulopt.experiment import SETTING_NAMES
from backhaulopt.formulations import Interference, RadioChains, parse_setting, solve_equal_demand
from backhaulopt.generator import (
    GeneratorConfig,
    adapt_topology,
    generate_topology,
    strip_interference,
)
from backhaulopt.scheduler import build_schedule
from backhaulopt.validator import validate_schedule

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(-10.0, -0.01)
# well outside the validator's 1e-9 interval tolerance around the frame [0, 1]
OUT_OF_FRAME = NEGATIVE | st.floats(1.01, 10.0)
# well outside its 1e-9 interval and 1e-6 Gbps rate tolerances
SHIFT = st.floats(-0.5, -1e-5) | st.floats(1e-5, 0.5)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    topo, sol, sched = (str(root / n) for n in ("t.json", "s.json", "f.json"))
    assert main(["generate", "--seed", "4", "--pairs", "2", "--out", topo]) == 0
    assert main(["solve", topo, "--setting", "LI-LR(2)", "--out", sol]) == 0
    assert main(["schedule", topo, sol, "--out", sched]) == 0
    assert main(["validate", topo, sol, sched]) == 0
    with open(sol) as fh:
        solution = json.load(fh)
    with open(sched) as fh:
        schedule = json.load(fh)
    return root, topo, solution, schedule


@st.composite
def tampers(draw, solution, schedule):
    """(which file, path to one number in it, the bad value)."""
    if draw(st.booleans()):
        # every number may go non-finite or negative; the frame fractions may
        # leave the frame or move inside it, and d_b may claim more than the
        # schedule realizes (per_bs may not: a lower demand stays servable)
        field = draw(st.sampled_from(["per_bs", "p_first", "p_last", "d_b_gbps"]))
        path = (field,) if field == "d_b_gbps" else (
            field, draw(st.sampled_from(sorted(solution[field]))))
        if field == "per_bs":
            return "solution", path, draw(NON_FINITE | NEGATIVE)
        if field == "d_b_gbps":
            value = draw(NON_FINITE | NEGATIVE | st.floats(1e-5, 1e6).map(
                lambda extra: solution["d_b_gbps"] + extra))
            return "solution", path, value
        clean = solution[field][path[1]]
        value = draw(NON_FINITE | OUT_OF_FRAME | SHIFT.map(lambda shift: clean + shift))
        return "solution", path, value
    link = draw(st.sampled_from(sorted(schedule["links"])))
    entry = schedule["links"][link]
    side = draw(st.sampled_from(["footprint", "parent_side", "child_side"]))
    index = draw(st.integers(0, len(entry[side]) - 1))
    end = draw(st.sampled_from([0, 1] if side == "footprint" else ["start", "end"]))
    return "schedule", ("links", link, side, index, end), draw(NON_FINITE | OUT_OF_FRAME)


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_bad_number_never_validates(files, data):
    root, topo, solution, schedule = files
    target, path, value = data.draw(tampers(solution, schedule))
    docs = {"solution": copy.deepcopy(solution), "schedule": copy.deepcopy(schedule)}
    _set(docs[target], path, value)
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"tampered_{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["validate", topo, paths["solution"], paths["schedule"]])
    assert code in (1, 3), (target, path, value, out.getvalue())


# values a mutated field may take: wrong types, and numbers at the edges of
# what a float or a radio-chain count can hold
WRONG = st.sampled_from([None, "x", [], [1, 2], {}, {"a": 1}, 1e308, -1e308, 2**70])


def _paths(doc, prefix=()):
    """Every path to a value nested in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_mutated_field_exits_cleanly(files, data):
    root, topo, solution, schedule = files
    with open(topo) as fh:
        docs = {"topology": json.load(fh), "solution": solution, "schedule": schedule}
    target = data.draw(st.sampled_from(sorted(docs)))
    docs = {name: copy.deepcopy(doc) for name, doc in docs.items()}
    path = data.draw(st.sampled_from(sorted(_paths(docs[target]), key=repr)))
    value = data.draw(WRONG)
    _set(docs[target], path, value)
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"mutated_{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    for argv in (
        ["validate", paths["topology"], paths["solution"], paths["schedule"]],
        ["schedule", paths["topology"], paths["solution"], "--out", str(root / "out.json")],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        assert code in (0, 1, 2, 3), (target, path, value, out.getvalue())
        assert "internal error:" not in out.getvalue(), (target, path, value, out.getvalue())


@st.composite
def trees(draw):
    """A generated tree of at most 30 small BSs and at most n pairs."""
    n = draw(st.integers(1, 30))
    degree = draw(st.integers(1, n))
    return generate_topology(
        GeneratorConfig(
            seed=draw(st.integers(0, 2**32 - 1)),
            num_small_bs=n,
            macro_degree=degree,
            max_small_children=draw(st.integers(1 if n > degree else 0, 3)),
            interference_pair_budget=draw(st.integers(0, n)),
        )
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=trees())
def test_random_trees_round_trip(base):
    bare = strip_interference(base)
    for name in SETTING_NAMES:
        setting, k = parse_setting(name)
        src = bare if setting.interference is Interference.MINIMAL else base
        topo = adapt_topology(src, setting, macro_chains=k)
        sol = solve_equal_demand(topo, setting)
        try:
            schedule = build_schedule(topo, sol.p_first)
        except PlacementFailure:
            # only a radio-chain budget can make the fractions unplaceable
            assert setting.radio_chains is RadioChains.LIMITED, name
            continue
        report = validate_schedule(
            topo,
            schedule,
            p_first=sol.p_first,
            demands=sol.per_bs,
            p_last=sol.p_last,
            d_b_gbps=sol.d_b_gbps,
        )
        assert report.ok, (name, [str(v) for v in report.violations[:3]])
        assert report.realized_equal_demand >= sol.d_b_gbps - 1e-6, name
