"""The files the CLI writes, forged copies of them, and every verdict on them.

write(out) runs cli.main in-process: experiment CSVs at three units of rate,
and 18 honest triples with three forged copies each. check(out) judges them.
Write the tree alone with: PYTHONPATH=src python tests/file_checks.py OUT
"""

import contextlib
import io
import math
import re
import sys
from pathlib import Path

from backhaulopt import cli
from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS
from backhaulopt.model import read_json, write_json

TOPOLOGIES = {"LI": ["--pairs", 6], "MI": [], "LI200": ["--small-bs", 200, "--pairs", 66]}
RUNS = [("MI", "MI-ER"), ("MI", "MI-LR(2)"), ("LI", "LI-ER"), ("LI", "LI-LR(1)"),
        ("LI", "LI-LR(2)"), ("LI200", "LI-LR(2)")]
OBJECTIVES = ("equal_demand", "aggregate", "aggregate_fair")
RATES = (0, 20, -20)  # experiment at the default rate times 2**k


def _cli(*argv, report=None) -> None:
    """cli.main in-process; report, if given, gets its stdout and exit code."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([str(a) for a in argv])
    if report:
        Path(report).write_text(f"{out.getvalue()}exit {code}\n")
    else:
        assert code == 0, f"{argv} exits {code}"


def _validate(topo, name, copy="", solution="") -> None:
    _cli("validate", topo, f"{name}{solution}.solution.json", f"{name}{copy}.schedule.json",
         report=f"{name}{copy}.validate.out")


def _integral_as_int(v):
    # -0.0 stays: the integer 0 would read as +0.0
    if type(v) is float and v.is_integer() and math.copysign(1.0, v) > 0:
        return int(v)
    if type(v) is dict:
        return {k: _integral_as_int(x) for k, x in v.items()}
    return [_integral_as_int(x) for x in v] if type(v) is list else v


def _double_drive(topo, name) -> tuple[int, int]:
    """The first two child links of the first BS, by id, whose first one transmits."""
    children, links = {}, read_json(f"{name}.schedule.json", "schedule")["links"]
    for link in sorted(read_json(topo, "topology")["links"], key=lambda l: l["id"]):
        children.setdefault(link["parent"], []).append(link["id"])
    return next(tuple(ids[:2]) for _, ids in sorted(children.items())
                if len(ids) > 1 and links[str(ids[0])]["parent_side"])


def _triples(out) -> list[tuple[str, str, str, str]]:
    return [(f"{out}/json/{topo}.json", f"{out}/json/{topo}-{setting}-{objective}", setting,
             objective) for topo, setting in RUNS for objective in OBJECTIVES]


def write(out) -> None:
    for k in RATES:
        _cli("experiment", "--trials", 8, "--pairs", 6, "--out-dir", f"{out}/k{k}",
             "--phy-rate", repr(math.ldexp(DEFAULT_PHY_RATE_GBPS, k)))
    Path(out, "json").mkdir()
    for topo, flags in TOPOLOGIES.items():
        _cli("generate", "--seed", 1, *flags, "--out", f"{out}/json/{topo}.json")
    for topo, name, setting, objective in _triples(out):
        _cli("solve", topo, "--setting", setting, "--objective", objective,
             "--out", f"{name}.solution.json")
        _cli("schedule", topo, f"{name}.solution.json", "--out", f"{name}.schedule.json")
        _validate(topo, name)
        # the chains view and meta that older schedule files carried, forged
        schedule = read_json(f"{name}.schedule.json", "schedule")
        write_json({**schedule, "chains": [{"bs": 0, "chain": 0, "intervals": [[0, 1]]}],
                    "meta": {"line12_overflow": [1, 2, 3]}}, f"{name}.forged.schedule.json")
        _validate(topo, name, ".forged")
        for kind in ("solution", "schedule"):
            write_json(_integral_as_int(read_json(f"{name}.{kind}.json", kind)),
                       f"{name}.ints.{kind}.json")
        _validate(topo, name, ".ints", ".ints")
        # the second link's parent_side is the first one's: their chain is double-driven
        first, second = _double_drive(topo, name)
        schedule["links"][str(second)]["parent_side"] = schedule["links"][str(first)]["parent_side"]
        write_json(schedule, f"{name}.doubled.schedule.json")
        _validate(topo, name, ".doubled")


def check(out) -> None:
    summaries = {k: Path(out, f"k{k}/summary.csv").read_bytes().decode().replace("\r", "")
                 for k in RATES}
    for k, summary in summaries.items():
        # every setting realizes its equal demand in all 8 trials
        realized = re.findall(r"^realized_rate\[.*\],1\.000000000$", summary, re.M)
        assert len(realized) == 6, f"k = {k}: {len(realized)} settings realize their demand"
    chains = {k: re.findall(r"^macro_chains=.*$", s, re.M) for k, s in summaries.items()}
    assert chains[20] == chains[0] == chains[-20], chains
    for path in sorted(Path(out, "json").glob("*.json")):
        write_json(read_json(path, "JSON"), f"{out}/reencoded.json")
        assert Path(out, "reencoded.json").read_bytes() == path.read_bytes(), \
            f"{path} does not re-encode byte for byte"
    for topo, name, _, _ in _triples(out):
        report, forged, ints, doubled = (Path(f"{name}{copy}.validate.out").read_text()
                                         for copy in ("", ".forged", ".ints", ".doubled"))
        assert report.endswith("\nexit 0\n"), f"{name}: {report.splitlines()[-1]}"
        assert forged == report, f"{name}: a forged chains view or meta changed the report"
        assert Path(f"{name}.ints.schedule.json").read_bytes() != \
            Path(f"{name}.schedule.json").read_bytes(), f"{name}: no integral number rewritten"
        assert ints == report, f"{name}: integral numbers written as integers changed the report"
        assert doubled.endswith("\nexit 1\n"), f"{name}: a double drive exits {doubled}"
        first, second = _double_drive(topo, name)
        assert re.search(rf"^ChainOverlap\(chain [0-9]+ at B[0-9]+ is double-driven for .* "
                         rf"\(links \[([0-9]+, )*{first}, ([0-9]+, )*{second}(, [0-9]+)*\]\)\)$",
                         doubled, re.M), f"{name}: no double drive of links {first} and {second}"


if __name__ == "__main__":
    write(sys.argv[1])
