"""The commands that run no LP start without NumPy and without backhaulopt.lp.

Each test runs a fresh interpreter, so the modules the test session has
already imported do not count.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv[1] is "numpy" or "blocked", argv[2] a directory for the files. Prints
# one JSON object: each command's exit code and stdout, the bytes of every
# file written, and which LP modules are loaded before and after an
# aggregate solve.
SCRIPT = r"""
import contextlib, io, json, os, sys

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
root = sys.argv[2]

import backhaulopt, backhaulopt.cli

runs = []

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = backhaulopt.cli.main([os.path.join(root, a) if a.endswith(".json") else a
                                     for a in argv])
    runs.append([list(argv), code, out.getvalue()])
    return code

def loaded():
    return sorted(name for name in ("numpy", "backhaulopt.lp") if sys.modules.get(name))

run("generate", "--seed", "1", "--pairs", "6", "--out", "LI.json")
run("generate", "--seed", "1", "--out", "MI.json")
for setting in ("MI-ER", "MI-LR(2)", "LI-ER", "LI-LR(1)", "LI-LR(2)"):
    topo = setting[:2] + ".json"
    run("solve", topo, "--setting", setting, "--out", setting + ".solution.json")
    run("schedule", topo, setting + ".solution.json", "--out", setting + ".schedule.json")
    run("validate", topo, setting + ".solution.json", setting + ".schedule.json")
    with open(os.path.join(root, setting + ".schedule.json")) as fh:
        data = json.load(fh)
    next(iter(data["links"].values()))["footprint"] = [[0.0, 0.01]]
    with open(os.path.join(root, setting + ".tampered.json"), "w") as fh:
        json.dump(data, fh)
    run("validate", topo, setting + ".solution.json", setting + ".tampered.json")
before = loaded()
code = run("solve", "LI.json", "--setting", "LI-LR(2)", "--objective", "aggregate",
           "--out", "aggregate.json")
files = {}
for name in sorted(os.listdir(root)):
    with open(os.path.join(root, name)) as fh:
        files[name] = fh.read()
print(json.dumps({"runs": runs, "files": files, "before": before, "after": loaded(),
                  "aggregate": code}))
"""


def _run(mode, root):
    root.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, str(root)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_commands_without_an_lp_never_load_numpy(tmp_path):
    got = _run("numpy", tmp_path)
    codes = [code for _, code, _ in got["runs"]]
    # two generates, then solve, schedule, validate clean and tampered per setting
    assert codes == [0, 0] + [0, 0, 0, 1] * 5 + [0]
    assert all("schedule OK" in out for argv, code, out in got["runs"]
               if argv[0] == "validate" and code == 0)
    assert got["before"] == []
    # the aggregate objective solves an LP, so the check above is not vacuous
    assert got["aggregate"] == 0
    assert got["after"] == ["backhaulopt.lp", "numpy"]


def test_commands_without_an_lp_run_without_numpy(tmp_path):
    want = _run("numpy", tmp_path / "numpy")
    got = _run("blocked", tmp_path / "blocked")
    # same exit codes, stdout bytes and files, up to the aggregate solve
    assert got["runs"][:-1] == want["runs"][:-1]
    del want["files"]["aggregate.json"]
    assert got["files"] == want["files"]
    # the LP route fails as an error, never as exit 1 (violations found)
    assert got["aggregate"] == 3
    assert got["after"] == []
