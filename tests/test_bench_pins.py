"""bench_pins passes a traced result that keeps every pin, and fails each broken one."""

import json
import subprocess
import sys

import pytest

import bench_pins

PER_LAYER = [m["name"] for m in json.loads(bench_pins.BENCHMARK.read_text())["per_layer"]]


def _pins(tmp_path, workload, result):
    """bench_pins' exit code and output on a run whose last line is result."""
    path = tmp_path / "bench-trace.out"
    path.write_text(f"ops_per_cal 0.28 op/cal\n{json.dumps(result)}\n")
    done = subprocess.run([sys.executable, bench_pins.__file__, workload, path],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def _passing(workload):
    metrics = {name: {"value": 0.5, "unit": "s/op"} for name in PER_LAYER}
    metrics.update({name: {"value": v, "unit": "count"}
                    for name, v in bench_pins.PINNED[workload].items()})
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


@pytest.mark.parametrize("workload", sorted(bench_pins.PINNED))
def test_a_run_that_keeps_every_pin_passes(tmp_path, workload):
    assert _pins(tmp_path, workload, _passing(workload)) == (0, (
        f"{workload} missing per-layer metrics: []\n"
        f"{workload} pinned counters that moved: {{}}\n"
    ))


def test_each_broken_pin_fails(tmp_path):
    moved = _passing("revalidate-io")
    moved["metrics"]["validator.violations"]["value"] = 151
    code, out = _pins(tmp_path, "revalidate-io", moved)
    assert code == 1
    assert "revalidate-io pinned counters that moved: {'validator.violations': 151}\n" in out

    missing = _passing("revalidate-io")
    del missing["metrics"]["lp.phase1_s"]
    code, out = _pins(tmp_path, "revalidate-io", missing)
    assert code == 1
    assert "revalidate-io missing per-layer metrics: ['lp.phase1_s']\n" in out

    wrong = {**_passing("revalidate-io"), "correct": False}
    assert _pins(tmp_path, "revalidate-io", wrong)[0] == 1
