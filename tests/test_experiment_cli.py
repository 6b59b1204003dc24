"""Batch runner outputs and the command line front end."""

import copy
import csv
import json

import pytest

from backhaulopt import cli
from backhaulopt.cli import main
from backhaulopt.experiment import (
    OBJECTIVE_NAMES,
    SETTING_NAMES,
    ExperimentConfig,
    run_experiment,
    run_trial,
    write_results,
)
from backhaulopt.lp import _kernel_py


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


def test_cli_validate_reads_p_last_and_d_b(tmp_path, capsys):
    topo, sol, sched = (tmp_path / n for n in ("t.json", "s.json", "f.json"))
    main(["generate", "--seed", "4", "--out", str(topo)])
    main(["solve", str(topo), "--setting", "MI-ER", "--out", str(sol)])
    main(["schedule", str(topo), str(sol), "--out", str(sched)])
    clean = json.loads(sol.read_text())
    for key, value, kind in (("p_last", 0.99, "RatioMismatch"),
                             ("d_b_gbps", 1e6, "CapacityShortfall")):
        data = copy.deepcopy(clean)
        data[key] = dict.fromkeys(data[key], value) if key == "p_last" else value
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(topo), str(sol), str(sched)]) == 1, key
        out = capsys.readouterr().out
        assert f"{kind}(" in out and "schedule OK" not in out


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
    }, "chains": [], "meta": {}}))
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
