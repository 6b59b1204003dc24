"""Property tests: a single bad number in a valid solution or schedule file
never lets `backhaulopt validate` report a clean schedule or crash."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaulopt.cli import main

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# well outside the validator's 1e-9 interval tolerance around the frame [0, 1]
OUT_OF_FRAME = st.floats(-10.0, -0.01) | st.floats(1.01, 10.0)


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
        # validate reads p_first against the schedule, so only a frame
        # fraction has an out-of-frame value; every number may go non-finite
        field = draw(st.sampled_from(["per_bs", "p_first", "p_last", "d_b_gbps"]))
        value = draw(NON_FINITE | OUT_OF_FRAME if field == "p_first" else NON_FINITE)
        if field == "d_b_gbps":
            return "solution", (field,), value
        return "solution", (field, draw(st.sampled_from(sorted(solution[field])))), value
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
