"""Batch runner outputs and the command line front end."""

import copy
import csv
import hashlib
import json
import math
import os

import pytest

import helpers
from backhaulopt import cli, errors
from backhaulopt.capacity import DEFAULT_PHY_RATE_GBPS
from backhaulopt.cli import main
from backhaulopt.errors import BackhaulError, NonPositiveInput
from backhaulopt.experiment import (
    OBJECTIVE_NAMES,
    SETTING_NAMES,
    ExperimentConfig,
    run_experiment,
    run_trial,
    write_results,
)
from backhaulopt.formulations import jain_index
from backhaulopt.generator import GeneratorConfig, generate_topology
from backhaulopt.lp import _kernel_py
from backhaulopt.model import make_link, save_topology


def test_trial_covers_every_setting_and_objective():
    result = run_trial(ExperimentConfig(seed=11, interference_pair_budget=6), 0)
    assert set(result.d_b) == set(SETTING_NAMES)
    assert set(result.realized) == set(SETTING_NAMES)
    assert set(result.aggregate) == set(OBJECTIVE_NAMES)
    assert result.jain["equal_demand"] == 1.0
    assert result.macro_chains_needed >= 1


def test_csv_files_reproduce_byte_for_byte(tmp_path):
    config = ExperimentConfig(seed=3, trials=4, interference_pair_budget=4)
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_results(run_experiment(config), str(first))
    write_results(run_experiment(config), str(second))
    names = [
        "max_demand_by_setting.csv",
        "aggregate_by_objective.csv",
        "jain_by_objective.csv",
        "min_radio_chains_hist.csv",
        "summary.csv",
    ]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    with open(first / "max_demand_by_setting.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", *SETTING_NAMES]
    assert len(rows) == 1 + 4  # header + one row per trial


def test_experiment_tables_frozen(tmp_path):
    # the five tables, byte for byte, for two base seeds of 40 trials
    digest = hashlib.sha256()
    for seed in (1, 2027):
        config = ExperimentConfig(seed=seed, trials=40, interference_pair_budget=6)
        for path in write_results(run_experiment(config), str(tmp_path / str(seed))):
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    assert digest.hexdigest() == (
        "d59bd97eea061b74a7518358fc0fe4e1882bc7dc40c946668f820491acf0af1d"
    )


def test_cli_experiment_draws_the_papers_pairs_by_default(tmp_path):
    # generate draws no pairs unless asked; experiment draws the batch's 6,
    # so its LI columns are not copies of the MI columns
    assert cli.build_parser().parse_args(["generate"]).pairs == 0
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    assert main(["experiment", "--trials", "3", "--out-dir", str(default)]) == 0
    assert main(["experiment", "--trials", "3", "--out-dir", str(explicit),
                 "--pairs", str(ExperimentConfig().interference_pair_budget)]) == 0
    name = "max_demand_by_setting.csv"
    assert (default / name).read_bytes() == (explicit / name).read_bytes()
    with open(default / name) as fh:
        rows = list(csv.DictReader(fh))
    assert any(row["LI-ER"] != row["MI-ER"] for row in rows)


def test_cli_pipeline_round_trip(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    sol = tmp_path / "sol.json"
    sched = tmp_path / "sched.json"
    assert main(["generate", "--seed", "4", "--pairs", "2", "--out", str(topo)]) == 0
    assert main([
        "solve", str(topo), "--setting", "LI-LR(2)", "--out", str(sol),
    ]) == 0
    assert main(["schedule", str(topo), str(sol), "--out", str(sched)]) == 0
    assert main(["validate", str(topo), str(sol), str(sched)]) == 0
    out = capsys.readouterr().out
    assert "schedule OK" in out

    data = json.loads(sol.read_text())
    assert data["objective"] == "equal_demand"
    assert data["jain_index"] == 1.0


def test_cli_validate_flags_tampering(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sched.read_text())
    first = next(iter(data["links"]))
    data["links"][first]["footprint"] = [[0.0, 0.01]]
    sched.write_text(json.dumps(data))
    assert main(["validate", str(topo), str(sol), str(sched)]) == 1
    assert "violation" in capsys.readouterr().out


def test_cli_validate_flags_nan_schedule(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sched.read_text())
    for entry in data["links"].values():
        entry["footprint"] = [[float("nan")] * 2 for _ in entry["footprint"]]
        for side in ("parent_side", "child_side"):
            for piece in entry[side]:
                piece["start"] = piece["end"] = float("nan")
    sched.write_text(json.dumps(data))
    assert main(["validate", str(topo), str(sol), str(sched)]) == 1
    assert "violation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "footprint", [[[0.0, 1e308], [0.0, 1e308]], [[-1e308, 1e308], [1e308, -1e308]]]
)
def test_cli_validate_flags_huge_intervals(tmp_path, capsys, footprint):
    # finite endpoints whose lengths overflow a float sum, or cancel as
    # inf - inf, are violations, not an internal error
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sched.read_text())
    first = next(iter(data["links"]))
    data["links"][first]["footprint"] = footprint
    sched.write_text(json.dumps(data))
    assert main(["validate", str(topo), str(sol), str(sched)]) == 1
    out = capsys.readouterr()
    assert "FootprintMismatch" in out.out
    assert "internal error:" not in out.out + out.err


def test_cli_non_finite_input_exits_3(tmp_path, capsys):
    topo, sol = tmp_path / "t.json", tmp_path / "s.json"
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    data = json.loads(sol.read_text())
    data["p_first"][next(iter(data["p_first"]))] = float("nan")
    sol.write_text(json.dumps(data))
    assert main(["schedule", str(topo), str(sol)]) == 3
    data = json.loads(topo.read_text())
    data["links"][0]["phy_rate_gbps"] = float("nan")
    topo.write_text(json.dumps(data))
    assert main(["solve", str(topo), "--setting", "MI-ER"]) == 3
    assert "finite" in capsys.readouterr().err


def test_cli_validate_rejects_nan_solution(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sol.read_text())
    for key in ("p_first", "per_bs"):
        data[key] = dict.fromkeys(data[key], float("nan"))
    sol.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(topo), str(sol), str(sched)]) == 3
    captured = capsys.readouterr()
    assert "schedule OK" not in captured.out
    assert "finite" in captured.err


def test_cli_validate_rejects_negative_demands(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sol.read_text())
    data["per_bs"] = dict.fromkeys(data["per_bs"], -5.0)
    sol.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(topo), str(sol), str(sched)]) == 3
    captured = capsys.readouterr()
    assert "schedule OK" not in captured.out
    assert "negative" in captured.err


@pytest.mark.parametrize("value", [0.5, True])
def test_cli_validate_rejects_a_chain_that_is_not_a_json_integer(tmp_path, capsys, value):
    # int() truncated these to chain 0 or 1, and the schedule passed as OK
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "7", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    data = json.loads(sched.read_text())
    next(iter(data["links"].values()))["parent_side"][0]["chain"] = value
    sched.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(topo), str(sol), str(sched)]) == 3
    captured = capsys.readouterr()
    assert "schedule OK" not in captured.out
    assert "not a JSON integer" in captured.err


def test_cli_solve_rejects_hops_that_are_not_a_json_integer(tmp_path, capsys):
    # int() truncated 2.5 hops to 2, and the solve exited 0
    topo = tmp_path / "t.json"
    main(["generate", "--seed", "7", "--out", str(topo)])
    data = json.loads(topo.read_text())
    data["links"][0]["hops"] = 2.5
    topo.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["solve", str(topo), "--setting", "MI-ER"]) == 3
    assert "not a JSON integer" in capsys.readouterr().err


def _set_phy_rate(docs, value):
    docs["t"]["links"][0]["phy_rate_gbps"] = value


def _set_per_bs(docs, value):
    docs["s"]["per_bs"][next(iter(docs["s"]["per_bs"]))] = value


def _set_footprint_end(docs, value):
    next(iter(docs["f"]["links"].values()))["footprint"][0][1] = value


def _set_parent_start(docs, value):
    next(iter(docs["f"]["links"].values()))["parent_side"][0]["start"] = value


@pytest.mark.parametrize("value", ["0.25", False, 10**400], ids=["str", "bool", "big"])
@pytest.mark.parametrize(
    "tamper", [_set_phy_rate, _set_per_bs, _set_footprint_end, _set_parent_start]
)
def test_cli_validate_rejects_a_number_field_that_is_not_a_json_number(
    tmp_path, capsys, tamper, value
):
    # float() took the string and the bool, and overflowed on the integer
    paths = {n: tmp_path / f"{n}.json" for n in ("t", "s", "f")}
    main(["generate", "--seed", "7", "--out", str(paths["t"])])
    main(["solve", str(paths["t"]), "--setting", "MI-ER", "--out", str(paths["s"])])
    main(["schedule", str(paths["t"]), str(paths["s"]), "--out", str(paths["f"])])
    docs = {n: json.loads(p.read_text()) for n, p in paths.items()}
    tamper(docs, value)
    for n, p in paths.items():
        p.write_text(json.dumps(docs[n]))
    capsys.readouterr()
    assert main(["validate", *map(str, paths.values())]) == 3
    captured = capsys.readouterr()
    assert "schedule OK" not in captured.out
    assert "error:" in captured.err and "internal error:" not in captured.err


def _triple(tmp_path, *generate_flags, setting="MI-ER", objective="equal_demand"):
    paths = {n: tmp_path / f"{n}.json" for n in ("t", "s", "f")}
    main(["generate", *generate_flags, "--out", str(paths["t"])])
    main(["solve", str(paths["t"]), "--setting", setting, "--objective", objective,
          "--out", str(paths["s"])])
    main(["schedule", str(paths["t"]), str(paths["s"]), "--out", str(paths["f"])])
    return paths


# every number field a reader takes: file, path in it, and integer or number
NUMBER_FIELDS = {
    "piece chain": ("f", ("links", "2", "parent_side", 0, "chain"), "integer"),
    "piece start": ("f", ("links", "2", "parent_side", 0, "start"), "number"),
    "piece end": ("f", ("links", "2", "child_side", 0, "end"), "number"),
    "footprint start": ("f", ("links", "2", "footprint", 0, 0), "number"),
    "footprint end": ("f", ("links", "2", "footprint", 0, 1), "number"),
    "station id": ("t", ("stations", 1, "id"), "integer"),
    "radio_chains": ("t", ("stations", 1, "radio_chains"), "integer"),
    "link id": ("t", ("links", 1, "id"), "integer"),
    "parent": ("t", ("links", 1, "parent"), "integer"),
    "child": ("t", ("links", 1, "child"), "integer"),
    "hops": ("t", ("links", 1, "hops"), "integer"),
    "phy_rate_gbps": ("t", ("links", 1, "phy_rate_gbps"), "number"),
    "capacity_gbps": ("t", ("links", 1, "capacity_gbps"), "number"),
    "p_first_max": ("t", ("links", 1, "p_first_max"), "number"),
    "p_last_max": ("t", ("links", 1, "p_last_max"), "number"),
    "interference": ("t", ("interference", 0, 1), "integer"),
    "per_bs": ("s", ("per_bs", "2"), "number"),
    "p_first": ("s", ("p_first", "2"), "number"),
    "p_last": ("s", ("p_last", "2"), "number"),
    "min_radio_chains": ("s", ("min_radio_chains", "2"), "integer"),
}
MALFORMED = {"true": True, "str": "0.5", "null": None, "big": 10**400, "list": []}
# a 400-digit integer is a JSON integer, so an id or count reads it and the
# files are judged with it: these exit codes, the same as every other output
# here, were recorded before the readers took an int or a float without a call
BIG_ID_EXITS = {
    "piece chain": 1, "station id": 2, "radio_chains": 0, "link id": 2, "parent": 2,
    "child": 2, "hops": 0, "interference": 2, "min_radio_chains": 1,
}


def test_cli_validate_refuses_every_malformed_number_as_before(tmp_path, capsys):
    paths = _triple(tmp_path, "--seed", "7", "--pairs", "2", setting="LI-ER")
    clean = {n: p.read_text() for n, p in paths.items()}
    reader = {"t": "topology", "s": "solution", "f": "schedule"}
    digest = hashlib.sha256()
    for field, (doc, path, kind) in NUMBER_FIELDS.items():
        for name, value in MALFORMED.items():
            docs = {n: json.loads(text) for n, text in clean.items()}
            node = docs[doc]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            for n, p in paths.items():
                p.write_text(json.dumps(docs[n]))
            capsys.readouterr()
            code = main(["validate", *map(str, paths.values())])
            out, err = capsys.readouterr()
            digest.update(f"{field}/{name}\n{code}\n{out}{err}".encode())
            if kind == "integer" and name == "big":
                assert code == BIG_ID_EXITS[field], (field, out, err)
                continue
            reason = ("integer out of the float range" if name == "big"
                      else f"{value!r} is not a JSON {kind}")
            want = f"error: {reader[doc]} JSON does not match schema: {reason}\n"
            assert (code, out, err) == (3, "", want), (field, name)
    # every exit code and message, the 400-digit ids' reports included
    assert digest.hexdigest() == (
        "0b5c50054bdc70f7ed7650f09c27693fac3e6d8a7510a798f43f49bd4e751569"
    )


def _solve_and_validate_with_kind(tmp_path, capsys, kind):
    """solve's and validate's (exit code, stdout, stderr) on a triple whose
    station B1 has this kind."""
    paths = _triple(tmp_path, "--seed", "7", "--pairs", "2", setting="LI-ER")
    data = json.loads(paths["t"].read_text())
    data["stations"][1]["kind"] = kind
    paths["t"].write_text(json.dumps(data))
    runs = []
    for argv in (["solve", str(paths["t"]), "--setting", "LI-ER"],
                 ["validate", *map(str, paths.values())]):
        capsys.readouterr()
        runs.append((main(argv), *capsys.readouterr()))
    return runs


@pytest.mark.parametrize("kind", [1, True, None, ["macro"]])
def test_cli_refuses_a_station_kind_that_is_no_string(tmp_path, capsys, kind):
    # str() made these a kind name, so the file read as a topology with an
    # UnknownKind station and solve and validate exited 2
    want = f"error: topology JSON does not match schema: {kind!r} is not a JSON string\n"
    assert _solve_and_validate_with_kind(tmp_path, capsys, kind) == [(3, "", want)] * 2


def test_cli_judges_an_unknown_kind_string_as_before(tmp_path, capsys):
    for code, _, err in _solve_and_validate_with_kind(tmp_path, capsys, "relay"):
        assert code == 2
        assert "UnknownKind(B1 kind='relay')" in err


def _validate_solution(paths, solution, capsys):
    paths["s"].write_text(json.dumps(solution))
    capsys.readouterr()
    code = main(["validate", *map(str, paths.values())])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "field, claim",
    [
        ("aggregate_gbps", 1e6),
        ("jain_index", 7.0),
        ("min_radio_chains", -4),
        ("min_radio_chains", "missing"),
        ("min_radio_chains", "extra"),
    ],
)
def test_cli_validate_checks_the_derived_fields(tmp_path, capsys, field, claim):
    # each of these validated as "schedule OK" while validate ignored them
    paths = _triple(tmp_path, "--seed", "7")
    clean = json.loads(paths["s"].read_text())
    data = copy.deepcopy(clean)
    chains = data["min_radio_chains"]
    if claim == "missing":
        del chains[next(iter(chains))]
    elif claim == "extra":
        chains["999"] = 1
    elif field == "min_radio_chains":
        data[field] = dict.fromkeys(chains, claim)
    else:
        data[field] = claim
    code, out = _validate_solution(paths, data, capsys)
    assert code == 1
    assert "schedule OK" not in out.out
    assert f"DerivedFieldMismatch({field}" in out.out
    if claim == 1e6:
        assert f"claims 1000000 but is {clean[field]:.12g}" in out.out


def test_cli_validate_allows_absent_derived_fields_and_any_key_order(tmp_path, capsys):
    paths = _triple(tmp_path, "--seed", "7")
    clean = json.loads(paths["s"].read_text())
    without = {k: v for k, v in clean.items()
               if k not in ("aggregate_gbps", "jain_index", "min_radio_chains")}
    reordered = {**clean, "per_bs": dict(reversed(clean["per_bs"].items())),
                 "min_radio_chains": dict(reversed(clean["min_radio_chains"].items()))}
    for solution in (without, reordered):
        code, out = _validate_solution(paths, solution, capsys)
        assert code == 0 and "schedule OK" in out.out


@pytest.mark.parametrize(
    "field, value",
    [("aggregate_gbps", "26.5"), ("jain_index", None), ("min_radio_chains", [1, 2]),
     ("min_radio_chains", {"x": 1}), ("min_radio_chains", 1.0)],
)
def test_cli_validate_rejects_a_derived_field_of_the_wrong_type(tmp_path, capsys, field, value):
    paths = _triple(tmp_path, "--seed", "7")
    data = json.loads(paths["s"].read_text())
    if field == "min_radio_chains" and value == 1.0:
        data[field][next(iter(data[field]))] = value  # a count that is not a JSON integer
    else:
        data[field] = value
    code, out = _validate_solution(paths, data, capsys)
    assert code == 3
    assert "error:" in out.err and "internal error:" not in out.err


def _validate(paths, capsys, **docs):
    """Write the given documents ("s" solution, "f" schedule) and validate."""
    for name, data in docs.items():
        paths[name].write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["validate", *map(str, paths.values())])
    return code, capsys.readouterr()


@pytest.mark.parametrize("doc, field", [("f", "links"), ("s", "per_bs")])
def test_cli_validate_refuses_two_keys_for_one_id(tmp_path, capsys, doc, field):
    # int() reads "2" and "02" alike; the later entry won, and the first,
    # never judged, passed as "schedule OK"
    paths = _triple(tmp_path, "--seed", "4", "--pairs", "2", setting="LI-LR(2)")
    data = json.loads(paths[doc].read_text())
    entries = data[field]
    first = {"footprint": [[0.0, 1.0]], "parent_side": [], "child_side": []} if doc == "f" else 1e6
    data[field] = {"2": first, **{("02" if k == "2" else k): v for k, v in entries.items()}}
    code, out = _validate(paths, capsys, **{doc: data})
    assert code == 3
    assert "schedule OK" not in out.out
    assert "two keys name id 2" in out.err and "internal error:" not in out.err


def _claims_recomputed(data):
    """data with aggregate_gbps and jain_index recomputed over its per_bs."""
    return {**data, "aggregate_gbps": float(sum(data["per_bs"].values())),
            "jain_index": jain_index(data["per_bs"])}


@pytest.mark.parametrize("fields, expected", [
    (("per_bs",), ["UnknownBS(solution per_bs has B0, which is no small BS)",
                   "UnknownBS(solution per_bs has B999, which is no small BS)"]),
    (("p_first", "p_last"), [
        "UnknownLink(solution p_first has link 999, which the topology lacks)",
        "UnknownLink(solution p_last has link 999, which the topology lacks)"]),
])
def test_cli_validate_reports_solution_entries_for_unknown_ids(tmp_path, capsys, fields, expected):
    # a file claiming 1,000,024 Gbps through a BS the topology lacks validated as OK
    paths = _triple(tmp_path, "--seed", "4", "--pairs", "2", setting="LI-LR(2)")
    data = json.loads(paths["s"].read_text())
    for field in fields:
        extra = {"999": 1e6, "0": 1.0} if field == "per_bs" else {"999": 0.5}
        data[field] = {**data[field], **extra}
    code, out = _validate(paths, capsys, s=_claims_recomputed(data))
    assert code == 1
    assert out.out.splitlines()[:-2] == expected
    assert "schedule OK" not in out.out


@pytest.mark.parametrize("doc, field, value", [
    ("s", None, []),
    *[("s", f, v) for f in ("per_bs", "p_first", "p_last", "min_radio_chains")
      for v in ([], "x")],
    ("f", "links", []),
    ("f", "links", "x"),
])
def test_cli_validate_refuses_a_solution_or_schedule_of_the_wrong_shape(
    tmp_path, capsys, doc, field, value
):
    paths = _triple(tmp_path, "--seed", "4", "--pairs", "2", setting="LI-LR(2)")
    data = value if field is None else {**json.loads(paths[doc].read_text()), field: value}
    code, out = _validate(paths, capsys, **{doc: data})
    assert code == 3
    assert "schedule OK" not in out.out
    assert "does not match schema" in out.err and "internal error:" not in out.err


@pytest.mark.parametrize("doc, what", [("t", "topology"), ("s", "solution"), ("f", "schedule")])
def test_cli_validate_refuses_a_deeply_nested_file(tmp_path, capsys, doc, what):
    # json.load recurses once per nesting level, so this raises RecursionError
    paths = _triple(tmp_path, "--seed", "4")
    paths[doc].write_text("[" * 200_000)
    capsys.readouterr()
    code = main(["validate", *map(str, paths.values())])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: cannot read {what} from {paths[doc]}: ")
    assert "internal error:" not in err


def test_cli_validate_passes_its_own_schedule_at_a_high_rate(tmp_path, capsys):
    # at 2^20 times the paper's rate the scheduler's rounding to 1e-12 of the
    # frame is about 1e-5 Gbps; a check in Gbps flagged 166 links here
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    rate = str(math.ldexp(DEFAULT_PHY_RATE_GBPS, 20))
    main(["generate", "--seed", "1", "--small-bs", "200", "--pairs", "66",
          "--phy-rate", rate, "--out", str(topo)])
    main(["solve", str(topo), "--setting", "LI-LR(2)", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    capsys.readouterr()
    assert main(["validate", str(topo), str(sol), str(sched)]) == 0
    assert "schedule OK" in capsys.readouterr().out


def test_cli_validate_reads_p_last_and_d_b(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    clean = json.loads(sol.read_text())
    d_b = clean["d_b_gbps"]
    for key, value, per_bs, kind in (
        ("p_last", 0.99, clean["per_bs"], "RatioMismatch(link "),
        ("d_b_gbps", 1e6, clean["per_bs"], "DerivedFieldMismatch(d_b_gbps"),
        ("d_b_gbps", d_b / 2, clean["per_bs"], "DerivedFieldMismatch(d_b_gbps"),
        ("d_b_gbps", 1e6, {}, "DerivedFieldMismatch(d_b_gbps"),
    ):
        data = {**copy.deepcopy(clean), "per_bs": per_bs}
        data[key] = dict.fromkeys(data[key], value) if key == "p_last" else value
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(topo), str(sol), str(sched)]) == 1, (key, value)
        out = capsys.readouterr().out
        assert kind in out and "schedule OK" not in out, (key, value)


def test_cli_validate_checks_the_fair_floor(tmp_path, capsys):
    # every small BS demands at least the floor the fair objective solved with
    paths = _triple(tmp_path, "--seed", "4", "--pairs", "2", setting="LI-LR(2)",
                    objective="aggregate_fair")
    data = json.loads(paths["s"].read_text())
    code, out = _validate_solution(paths, data, capsys)
    assert code == 0 and "schedule OK" in out.out
    data["fair_floor_gbps"] = 1e6
    code, out = _validate_solution(paths, data, capsys)
    assert code == 1
    assert "DerivedFieldMismatch(fair_floor_gbps claims 1000000 " in out.out
    assert "schedule OK" not in out.out


def test_cli_validate_reports_a_chain_time_past_the_float_range(tmp_path, capsys):
    # two huge fractions at the macro sum to inf, which no chain count covers
    paths = _triple(tmp_path, "--seed", "4", "--pairs", "2", setting="LI-LR(2)",
                    objective="equal_demand")
    topo = json.loads(paths["t"].read_text())
    data = json.loads(paths["s"].read_text())
    for link in [l for l in topo["links"] if l["parent"] == 0][:2]:
        data["p_first"][str(link["id"])] = 1e308
    code, out = _validate_solution(paths, data, capsys)
    assert code == 1
    assert "internal error:" not in out.err
    assert "DerivedFieldMismatch(min_radio_chains[B0] claims 2 but is nothing)" in out.out


def test_cli_schedule_rejects_too_many_partners(tmp_path, capsys):
    topo, sol = tmp_path / "t.json", tmp_path / "s.json"
    main(["generate", "--seed", "4", "--small-bs", "3", "--macro-degree", "3",
          "--max-children", "0", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    data = json.loads(topo.read_text())
    data["interference"] = [[1, 2], [2, 3]]
    topo.write_text(json.dumps(data))
    assert main(["schedule", str(topo), str(sol)]) == 2
    assert "TooManyPartnersAtBS" in capsys.readouterr().err


def _write_detached_cycle(tmp_path):
    """B2 and B3 feed each other and the macro reaches neither; the solution
    is all zero and every schedule entry empty."""
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    topo.write_text(json.dumps({
        "stations": [{"id": b, "kind": "macro" if b == 0 else "small", "radio_chains": 1}
                     for b in range(4)],
        "links": [{"id": 1, "parent": 0, "child": 1, "hops": 1},
                  {"id": 2, "parent": 3, "child": 2, "hops": 1},
                  {"id": 3, "parent": 2, "child": 3, "hops": 1}],
        "interference": [],
    }))
    zero = {str(b): 0.0 for b in (1, 2, 3)}
    sol.write_text(json.dumps({"objective": "equal_demand", "d_b_gbps": 0.0,
                               "per_bs": zero, "p_first": zero, "p_last": zero}))
    sched.write_text(json.dumps({"links": {
        str(b): {"footprint": [], "parent_side": [], "child_side": []} for b in (1, 2, 3)
    }}))
    return str(topo), str(sol), str(sched)


def test_cli_validate_rejects_a_non_tree(tmp_path, capsys):
    topo, sol, sched = _write_detached_cycle(tmp_path)
    assert main(["validate", topo, sol, sched]) == 2
    out = capsys.readouterr()
    assert "schedule OK" not in out.out
    assert "NotATree" in out.err


def test_cli_schedule_rejects_a_non_tree(tmp_path, capsys):
    topo, sol, _ = _write_detached_cycle(tmp_path)
    assert main(["schedule", topo, sol]) == 2
    assert "NotATree" in capsys.readouterr().err


def _write_link_to_unknown_bs(tmp_path):
    """A solved and scheduled tree, then one link retargeted to a BS 9 that does not exist."""
    topo, sol, sched = (str(tmp_path / n) for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "3", "--small-bs", "8", "--macro-degree", "3",
          "--pairs", "2", "--out", topo])
    main(["solve", topo, "--setting", "LI-LR(2)", "--out", sol])
    main(["schedule", topo, sol, "--out", sched])
    with open(topo) as fh:
        data = json.load(fh)
    data["links"][-1]["child"] = 9
    with open(topo, "w") as fh:
        json.dump(data, fh)
    return topo, sol, sched


@pytest.mark.parametrize("command", ["solve", "schedule", "validate"])
def test_cli_rejects_a_link_to_an_unknown_bs(tmp_path, capsys, command):
    topo, sol, sched = _write_link_to_unknown_bs(tmp_path)
    argv = {
        "solve": ["solve", topo, "--setting", "LI-LR(2)"],
        "schedule": ["schedule", topo, sol],
        "validate": ["validate", topo, sol, sched],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "UnknownEndpoint" in out.err
    assert out.out == ""


def test_cli_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    topo = tmp_path / "t.json"
    main(["generate", "--seed", "4", "--out", str(topo)])

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "solve_objective", broken)
    capsys.readouterr()
    assert main(["solve", str(topo), "--setting", "MI-ER"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_cli_infeasible_exit_codes(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    main(["generate", "--seed", "4", "--pairs", "3", "--out", str(topo)])
    # MI setting refuses a topology that still carries interference pairs
    assert main(["solve", str(topo), "--setting", "MI-ER"]) == 2
    assert "infeasible" in capsys.readouterr().err
    # unreachable explicit fair floor
    assert main([
        "solve", str(topo), "--setting", "LI-ER",
        "--objective", "aggregate_fair", "--fair-floor", "1000",
    ]) == 2
    # valid counts that no tree can meet
    assert main(["generate", "--small-bs", "3", "--macro-degree", "4"]) == 2
    assert main(["generate", "--small-bs", "5", "--macro-degree", "2", "--max-children", "0"]) == 2


@pytest.mark.parametrize("command", ["generate", "experiment"])
@pytest.mark.parametrize("flag, value", [
    ("--small-bs", "0"),
    ("--small-bs", "-1"),
    ("--macro-degree", "0"),
    ("--max-children", "-1"),
    ("--pairs", "-3"),
    ("--phy-rate", "0"),
])
def test_cli_invalid_size_flag_exits_3(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "generate" else ["--out-dir", str(out)]
    assert main([command, flag, value, *target]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not out.exists()


# every error class in the package; exit 2 is the verdict "infeasible as
# posed", so a class joins this set only by deriving from Infeasible
_ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BackhaulError)),
    key=lambda c: c.__name__,
)
_EXIT_2 = {
    "Infeasible", "InfeasibleConfig", "InfeasibleFloor", "InterferenceNotMinimal",
    "InvalidTopology", "PlacementFailure",
}


@pytest.mark.parametrize("error", [*_ERROR_CLASSES, OSError], ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_error_class(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "generate_topology", failing)
    code = 2 if error.__name__ in _EXIT_2 else 3
    assert issubclass(error, errors.Infeasible) == (code == 2)
    assert main(["generate", "--out", str(tmp_path / "t.json")]) == code
    assert capsys.readouterr().err.startswith("infeasible:" if code == 2 else "error:")


def test_cli_fair_floor_needs_the_fair_objective(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    main(["generate", "--seed", "4", "--pairs", "3", "--out", str(topo)])
    for objective in ("aggregate", "equal_demand"):
        capsys.readouterr()
        assert main([
            "solve", str(topo), "--setting", "LI-LR(2)",
            "--objective", objective, "--fair-floor", "1000",
        ]) == 3, objective
        captured = capsys.readouterr()
        assert captured.out == "" and "aggregate_fair" in captured.err


def test_cli_schedule_refuses_a_relayed_link_it_would_trim(tmp_path, capsys):
    # P_f + P_l > 1: the last hop's time cannot fit the pause of the footprint
    link = make_link(1, 0, 1, 2, capacity_gbps=5.0, p_first_max=0.8, p_last_max=0.6)
    topo, sol = tmp_path / "t.json", tmp_path / "s.json"
    save_topology(helpers.topology([link]), str(topo))

    def schedule(p):
        sol.write_text(json.dumps({
            "objective": "equal_demand", "per_bs": {"1": 0.0},
            "p_first": {"1": p}, "p_last": {"1": 0.75 * p},
        }))
        return main(["schedule", str(topo), str(sol)])

    assert schedule(0.8) == 2
    assert "no feasible placement for link 1" in capsys.readouterr().err
    assert schedule(0.0) == 0


def test_cli_schedule_names_the_two_duty_limits_of_a_one_hop_link(tmp_path, capsys):
    # its one transmission is its first and its last link, so P_f != P_l
    # cannot both hold; the refusal names them, not the frame grid
    link = make_link(1, 0, 1, 1, capacity_gbps=5.0, p_first_max=0.8, p_last_max=0.6)
    topo, sol = tmp_path / "t.json", tmp_path / "s.json"
    save_topology(helpers.topology([link]), str(topo))

    def schedule(p):
        sol.write_text(json.dumps({
            "objective": "equal_demand", "per_bs": {"1": 0.0},
            "p_first": {"1": p}, "p_last": {"1": 0.75 * p},
        }))
        capsys.readouterr()
        return main(["schedule", str(topo), str(sol)])

    assert schedule(0.4) == 2
    err = capsys.readouterr().err
    assert "p_first_max=0.8 and p_last_max=0.6" in err and "frame grid" not in err
    assert schedule(0.0) == 0


def test_cli_schedule_refuses_a_duty_limit_finer_than_the_frame_grid(tmp_path, capsys):
    # P_f = P_l = 1e-4: the 1e-12 frame grid rounds link 1's active time by
    # up to 5e-13, which the validator's share checks magnify by 1/P_f = 1e4
    links = [
        make_link(1, 0, 1, 2, capacity_gbps=5.0, p_first_max=1e-4, p_last_max=1e-4),
        make_link(2, 0, 2, 1, phy_rate_gbps=7.0),
    ]
    topo, sol = str(tmp_path / "t.json"), str(tmp_path / "s.json")
    save_topology(helpers.topology(links, [(1, 2)], chains={0: 2, 1: 1, 2: 1}), topo)
    assert main(["solve", topo, "--setting", "LI-ER", "--out", sol]) == 0
    capsys.readouterr()
    assert main(["schedule", topo, sol, "--out", str(tmp_path / "f.json")]) == 2
    assert "the frame grid misses its duty share" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_experiment_needs_at_least_one_trial(tmp_path, capsys):
    for trials in (0, -3):
        with pytest.raises(BackhaulError):
            run_experiment(ExperimentConfig(trials=trials))
        argv = ["experiment", "--trials", str(trials), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 3
        assert "trial" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_write_results_refuses_no_results(tmp_path):
    with pytest.raises(NonPositiveInput):
        write_results([], str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_usage_and_io_exit_codes(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json"), "--setting", "MI-ER"]) == 3
    topo = tmp_path / "topo.json"
    main(["generate", "--seed", "1", "--out", str(topo)])
    assert main(["solve", str(topo), "--setting", "nonsense"]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["schedule", str(topo), str(broken)]) == 3
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 3
    capsys.readouterr()


def test_cli_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    topo = tmp_path / "topo.json"
    main(["generate", "--seed", "4", "--out", str(topo)])
    monkeypatch.setattr(
        _kernel_py, "run_pivots", lambda tableau, basis, *args: (_kernel_py.ITERATION_LIMIT, 0)
    )
    # equal demand has a closed form; the aggregate objectives still pivot
    assert main(["solve", str(topo), "--setting", "LI-LR(2)", "--objective", "aggregate"]) == 3
    assert "iteration limit" in capsys.readouterr().err


def test_cli_generate_writes_the_saved_topology_bytes(tmp_path, capsys):
    saved, out = tmp_path / "saved.json", tmp_path / "out.json"
    save_topology(generate_topology(GeneratorConfig(seed=4, interference_pair_budget=2)), saved)
    capsys.readouterr()
    assert main(["generate", "--seed", "4", "--pairs", "2", "--out", str(out)]) == 0
    assert main(["generate", "--seed", "4", "--pairs", "2", "--out", "-"]) == 0
    assert out.read_bytes() == saved.read_bytes()
    assert capsys.readouterr().out.encode() == saved.read_bytes()


def test_cli_seed_env_override(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("BACKHAUL_OPT_SEED", "77")
    main(["generate", "--seed", "1", "--out", str(a)])
    monkeypatch.delenv("BACKHAUL_OPT_SEED")
    main(["generate", "--seed", "77", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("BACKHAUL_OPT_SEED", "not-a-number")
    assert main(["generate", "--out", str(a)]) == 3


def test_cli_experiment_writes_tables(tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "experiment", "--seed", "5", "--trials", "2", "--pairs", "3",
        "--small-bs", "8", "--macro-degree", "3", "--out-dir", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 5
    assert (out / "summary.csv").exists()
    with open(out / "summary.csv") as fh:
        metrics = {row["metric"] for row in csv.DictReader(fh)}
    assert "mean_d_b[MI-ER]" in metrics
    assert "realized_rate[LI-LR(2)]" in metrics


def test_cli_solve_respects_file_chain_counts(tmp_path):
    # plain LR keeps the file's radio chains; LR(k) rewrites them
    topo = tmp_path / "topo.json"
    main(["generate", "--seed", "6", "--out", str(topo)])
    plain = tmp_path / "plain.json"
    pinned = tmp_path / "pinned.json"
    assert main(["solve", str(topo), "--setting", "MI-LR", "--out", str(plain)]) == 0
    assert main(["solve", str(topo), "--setting", "MI-LR(1)", "--out", str(pinned)]) == 0
    # generated chains equal attached counts, so the plain run is looser
    d_plain = json.loads(plain.read_text())["d_b_gbps"]
    d_pinned = json.loads(pinned.read_text())["d_b_gbps"]
    assert d_plain >= d_pinned - 1e-12


def _validate_cases(root):
    """Triples written by generate, solve and schedule: n in {5, 20, 200}, MI-ER
    and LI-LR(2), every objective; each schedule as written, with a partner's
    footprint copied in, and with one parent-side chain index out of range."""
    for n in (5, 20, 200):
        size = ["--seed", "1", "--small-bs", str(n), "--macro-degree", str(min(n - 1, 8))]
        topologies = {"MI": root / f"MI{n}.json", "LI": root / f"LI{n}.json"}
        assert main(["generate", *size, "--out", str(topologies["MI"])]) == 0
        assert main(["generate", *size, "--pairs", str(n // 3), "--out", str(topologies["LI"])]) == 0
        a, b = (str(x) for x in json.loads(topologies["LI"].read_text())["interference"][0])
        for setting in ("MI-ER", "LI-LR(2)"):
            topo = topologies[setting[:2]]
            for objective in ("equal_demand", "aggregate", "aggregate_fair"):
                sol = root / f"{n}-{setting}-{objective}.solution.json"
                sched = root / f"{n}-{setting}-{objective}.schedule.json"
                assert main(["solve", str(topo), "--setting", setting,
                             "--objective", objective, "--out", str(sol)]) == 0
                assert main(["schedule", str(topo), str(sol), "--out", str(sched)]) == 0
                clean = json.loads(sched.read_text())
                tampered = copy.deepcopy(clean)
                tampered["links"][b]["footprint"] = copy.deepcopy(clean["links"][a]["footprint"])
                bad_chain = copy.deepcopy(clean)
                first = next(e for e in bad_chain["links"].values() if e["parent_side"])
                first["parent_side"][0]["chain"] = 99
                for name, data in (("clean", clean), ("tampered", tampered),
                                   ("bad-chain", bad_chain)):
                    path = root / f"{n}-{setting}-{objective}.{name}.json"
                    path.write_text(json.dumps(data))
                    yield ["validate", str(topo), str(sol), str(path)]


def test_cli_validate_output_frozen(tmp_path, capsys):
    # exit code and stdout of every validate, byte for byte: the loaders and
    # the validator together
    digest = hashlib.sha256()
    for argv in _validate_cases(tmp_path):
        capsys.readouterr()
        code = main(argv)
        digest.update(f"{code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "92940a5dd7f94e50fcde0411cfb5b11f6a14b46c874bd786c74d5d5907cbe0cc"
    )


def test_cli_reuses_its_parser_across_calls(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--pairs", "2", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "LI-LR(2)", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    argv = ["validate", str(topo), str(sol), str(sched)]
    capsys.readouterr()
    first = main(argv), capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["validate", str(topo)])
    assert usage.value.code == 3
    with pytest.raises(SystemExit) as shown:
        main(["--help"])
    assert shown.value.code == 0
    capsys.readouterr()
    assert (main(argv), capsys.readouterr()) == first
    assert first[0] == 0
    assert cli.build_parser() is not cli.build_parser()
