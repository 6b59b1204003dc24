#!/usr/bin/env python3
"""Pipeline benchmark for backhaulopt.

    python3 perfbench/run.py --workload experiment-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Each workload runs as a single-threaded closed loop against the package in
``src/`` of the checkout this file sits in, with the configuration that runs
by default. Every op's answer is checked (see workloads.py).

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
set-up processes), ops_per_s, op_p50_s, op_p90_s (only with at least 100
ops), error_rate and peak_rss_mb, and the throughput and median latency in
units of an interleaved reference computation (see calibrate.py). --trace 1
instead runs a fixed number of ops twice each, untraced and traced in turn,
and reports the per-layer metrics of tracing.py plus trace.overhead_frac.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics BENCHMARK.json names. Every metric, with the run
metadata, goes to .perfbench/results/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("experiment-paper", "plan-large", "revalidate-io")
# Set-up is repeated in fresh processes and reported as the median; three
# probes for revalidate-io, whose set-up solves three 200-BS LPs.
SETUP_PROBES = {"experiment-paper": 5, "plan-large": 5, "revalidate-io": 3}
P90_MIN_OPS = 100  # leaves at least ten samples beyond the 90th percentile
# Traced runs do a fixed number of ops so their counts repeat exactly.
TRACE_OPS = {"experiment-paper": 100, "plan-large": 2, "revalidate-io": 120}
MAX_RESIDUAL = 1e-9
# The reference computation each workload's op times are divided by.
# plan-large spends about two thirds of an op in NumPy-bound LP pivots.
CALIBRATION = {"experiment-paper": "python", "plan-large": "lp", "revalidate-io": "python"}


class PackageMissing(Exception):
    pass


def import_package():
    """Import backhaulopt from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "backhaulopt", "__init__.py")):
        raise PackageMissing(f"no backhaulopt package under {SRC}")
    sys.path.insert(0, SRC)
    import backhaulopt

    if os.path.dirname(os.path.dirname(os.path.abspath(backhaulopt.__file__))) != SRC:
        raise PackageMissing(f"backhaulopt was imported from {backhaulopt.__file__}")
    return backhaulopt


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# -- metrics ---------------------------------------------------------------------


def summarize(ops: list[tuple[float, float, float]], wall: float) -> dict[str, tuple]:
    """Throughput and latency metrics as {name: (value, unit, samples)}.

    Each op is (latency, step, cal): the op's own time, the time to its
    check's end, and the reference computation's time around it. The
    *_cal metrics divide each op's times by its cal, so a host that slows
    down for a while slows both. op_p90_s is withheld below P90_MIN_OPS ops.
    """
    n = len(ops)
    latencies = [latency for latency, _, _ in ops]
    out = {
        "ops_per_s": (n / wall, "op/s", n),
        "op_p50_s": (statistics.median(latencies), "s", n),
        "ops_per_cal": (n / sum(step / cal for _, step, cal in ops), "op/cal", n),
        "op_p50_cal": (statistics.median(latency / cal for latency, _, cal in ops), "cal", n),
    }
    if n >= P90_MIN_OPS:
        out["op_p90_s"] = (statistics.quantiles(latencies, n=10, method="inclusive")[-1], "s", n)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:2])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(workload, i: int):
    """(latency, answer, problems) of op i; an exception is a failed op."""
    t0 = time.perf_counter()
    try:
        answer = workload.op(i)
    except Exception:
        latency = time.perf_counter() - t0
        return latency, None, [f"op {i} raised: {traceback.format_exc(limit=3)}"]
    latency = time.perf_counter() - t0
    try:
        problems = workload.check(i, answer)
    except Exception:
        problems = [f"op {i} answer unreadable: {traceback.format_exc(limit=3)}"]
    return latency, answer, problems


def timed_loop(workload, seconds: float, tally: Tally, calibration):
    """Ops 0, 1, 2, ... until `seconds` have passed, calibration blocks in
    between; returns the (latency, step, cal) of each op and the loop's wall
    time without the blocks. An op's cal is the mean of the blocks just
    before and just after it."""
    timed = []
    calibration.block()
    start = time.perf_counter()
    spent = calibration.spent
    i = 0
    while True:
        before = len(calibration.blocks) - 1
        t0 = time.perf_counter()
        latency, _, problems = run_op(workload, i)
        timed.append((latency, time.perf_counter() - t0, before))
        tally.record(problems)
        i += 1
        calibration.maybe_block()
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start - (calibration.spent - spent)
    calibration.block()
    blocks = calibration.blocks
    return [(lat, step, (blocks[b] + blocks[b + 1]) / 2) for lat, step, b in timed], wall


def traced_loop(workload, ops: int, tally: Tally, tracer) -> dict[str, tuple]:
    """Each op untraced and traced, the order alternating so that neither
    side always runs second; per-layer metrics over the traced ops."""
    import tracing

    plain = traced = 0.0
    for i in range(ops):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if not with_trace:
                latency, _, problems = run_op(workload, i)
                plain += latency
                tally.record(problems)
                continue
            tracer.install()
            try:
                tracer.op = i
                root = tracer.open("op")
                latency, _, problems = run_op(workload, i)
                tracer.close(root)
            finally:
                tracer.uninstall()
            traced += latency
            tally.record(problems)
    metrics = tracing.layer_metrics(tracer.spans, ops, tracer.phase_hook)
    # 1 - traced ops_per_s / untraced ops_per_s over the same ops
    metrics["trace.overhead_frac"] = (1.0 - plain / traced, "fraction")
    return metrics


def setup_probe_times(name: str, seed: int, probes: int) -> list[float]:
    """Wall time of fresh processes from spawn through imports and set-up."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} exited {code}")
        times.append(elapsed)
    return times


def metadata(args, workload) -> dict:
    import numpy
    from backhaulopt.lp import simplex

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": getattr(simplex, "KERNEL_NAME", None),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "has_reference": workload.refs is not None,
    }


# -- entry points ----------------------------------------------------------------


def run_one(args) -> int:
    import workloads

    imported = time.perf_counter()
    setup_times = [] if args.trace else setup_probe_times(
        args.workload, args.seed, SETUP_PROBES[args.workload])
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        workload = workloads.setup(args.workload, args.seed, workdir, load_references())
        main_setup_s = (imported - T_START) + (time.perf_counter() - t0)
        tally = Tally()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            n_ops = TRACE_OPS[args.workload]
            layers = traced_loop(workload, n_ops, tally, tracer)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
            if layers["lp.max_residual"][0] > MAX_RESIDUAL:
                tally.failed += 1
                tally.messages.append(f"lp.max_residual {layers['lp.max_residual'][0]!r}")
            metrics = {k: (v, unit, n_ops) for k, (v, unit) in layers.items()}
            missing = [m for m in tracing.PHASE_METRICS if m not in metrics]
        else:
            import calibrate

            calibration = calibrate.Calibration(CALIBRATION[args.workload])
            ops, wall = timed_loop(workload, args.seconds, tally, calibration)
            metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times)),
                       **summarize(ops, wall),
                       "cal_s": (calibration.median, "s", len(calibration.samples)),
                       "error_rate": (tally.error_rate, "fraction", tally.attempted),
                       "peak_rss_mb": (peak_rss_mb(), "MiB", 1)}
            missing = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args, workload)
    meta["main_setup_s"] = main_setup_s
    meta["setup_probe_s"] = setup_times
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:26s} {value:<24.9g} {unit:9s} n={n}")
    for name in missing:
        print(f"  {name:26s} missing (simplex kernel hook not found)")
    for message in tally.messages[:5]:
        print(f"  FAILED: {message}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))

    # The result line carries the metrics BENCHMARK.json names; the others
    # are printed above and stored with the run.
    with open(CONTRACT) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names if k in metrics},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "meta": meta, "all_metrics": {
            k: {"value": v, "unit": unit, "samples": n} for k, (v, unit, n) in metrics.items()}},
            fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            worst = done.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}:{metric}"] = value
    if worst:
        return worst
    print(json.dumps(merged))
    return 0


def setup_probe(args) -> int:
    import workloads

    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.setup(args.workload, args.seed, workdir, load_references())
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return setup_probe(args) if args.setup_probe else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
