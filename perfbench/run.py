"""Benchmark of padicapprox: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload limsup-build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload set-query --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --probe            # ROADMAP aim-1 baselines, once each
    python3 perfbench/run.py --record-goldens   # only on a commit whose outputs are the reference

Every run starts its children one at a time from this process, each a fresh
single-threaded interpreter running perfbench/child.py, and waits for each.

--trace 0: SETUP_SAMPLES - 1 set-up-only children, then one measuring child
that also reports its own set-up time. Prints the end-to-end metrics.

--trace 1: the first VARIANTS passes of the op stream (every variant of every
template once) untraced, then twice traced. Prints the per-layer metrics of the first traced run and
trace.overhead_ratio, and checks that both traced runs made identical calls.

The last line of stdout is the JSON result; the lines before it repeat the
metrics for people, with failed_ratio, sample counts and raw wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_SAMPLES = 3
DEADLINE_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ChildFailed(Exception):
    pass


def spawn(mode: str, workdir: Path, deadline: float | None = None, **opts) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workdir", str(workdir)]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    cmd += ["--launch", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def end_to_end(args, workdir: Path, deadline: float):
    opts = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
    setups = [spawn("setup", workdir, deadline, **opts)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = spawn("measure", workdir, deadline, **opts)
    setups.append(res["setup_s"])
    lat = res["op_s"]
    attempted = len(lat)
    failed = attempted - sum(res["ok"])
    values = {
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1000,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    print(f"{args.workload} seed {args.seed}: {attempted} ops from "
          f"{len(set(res['templates']))} templates, {failed} failed")
    for name, value in values.items():
        print(f"  {name:12s} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_ratio':12s} {failed / attempted:12.4f} ratio ({failed}/{attempted})")
    beyond = attempted - int(0.9 * attempted)
    print(f"  op_ms_p90 from {attempted} samples, {beyond} beyond it")
    print(f"  raw wall: ops {sum(res['op_raw_s']):.3f} s (normalized {sum(lat):.3f} s), "
          f"set-up {[round(s, 3) for s in setups]} s normalized, "
          f"calibration median {res['calib_median_s'] * 1000:.2f} ms over {res['calibrations']}")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    metrics = {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}
    return failed == 0, attempted, failed, metrics


def per_layer(args, workdir: Path, deadline: float):
    from tracer import PER_LAYER_UNITS

    opts = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
    base = spawn("trace", workdir, deadline, traced=0, **opts)
    first = spawn("trace", workdir, deadline, traced=1, **opts)
    second = spawn("trace", workdir, deadline, traced=1, **opts)
    same_counts = first["counts"] == second["counts"]
    attempted = len(first["ok"])
    failed = attempted - sum(first["ok"])
    other_failures = (len(base["ok"]) - sum(base["ok"])) + (len(second["ok"]) - sum(second["ok"]))
    values = dict(first["per_layer"])
    values["trace.overhead_ratio"] = sum(first["op_s"]) / sum(base["op_s"])
    units = dict(PER_LAYER_UNITS, **{"trace.overhead_ratio": "ratio"})
    print(f"{args.workload} seed {args.seed} traced: {attempted} ops, {failed} failed, "
          f"{first['spans']} spans in {first['spans_path']}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {units[name]}")
    if not same_counts:
        diff = {k: (first["counts"].get(k), second["counts"].get(k))
                for k in set(first["counts"]) | set(second["counts"])
                if first["counts"].get(k) != second["counts"].get(k)}
        print(f"  CALL COUNTS DIFFER between two traced runs of one seed: {diff}")
    for line in first["failures"]:
        print(f"  FAILED {line}")
    correct = failed == 0 and other_failures == 0 and same_counts
    return correct, attempted, failed, {name: metric(values[name], units[name]) for name in values}


def declared_metrics() -> tuple[list[str], list[str], list[str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ([w["name"] for w in bench["workloads"]], [m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def record_goldens(workdir: Path, only: str | None) -> None:
    sys.path.insert(0, str(HERE))
    goldens, costs = {}, {}
    if only:
        with open(HERE / "goldens.json") as fh:
            goldens = json.load(fh)
    for name in [only] if only else declared_metrics()[0]:
        res = spawn("record", workdir, workload=name)
        if res["failures"]:
            raise ChildFailed(f"{name}: ops fail while recording goldens: {res['failures'][:5]}")
        goldens[name] = res["goldens"]
        costs[name] = res["costs"]
        print(f"{name}: {len(res['goldens'])} goldens", file=sys.stderr)
    with open(HERE / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    WORK.mkdir(exist_ok=True)
    with open(WORK / "costs.json", "w") as fh:
        json.dump(costs, fh, indent=1)


def run_probe(workdir: Path) -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import probe

    rows = []
    for name in probe.PROBES:
        wall = spawn("probe", workdir, probe=name)
        alloc = spawn("probe", workdir, probe=name, traced=1)
        rows.append({"name": name, "wall_s": wall["wall_s"], "normalized_s": wall["normalized_s"],
                     "tracemalloc_peak_mb": alloc["tracemalloc_peak_mb"],
                     "wall_s_under_tracemalloc": alloc["wall_s"], "result": wall["result"]})
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({"probe": rows}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help="run the reference baselines once each")
    ap.add_argument("--record-goldens", action="store_true", help="rewrite goldens.json from this commit")
    args = ap.parse_args()
    workdir = WORK / f"tmp-{os.getpid()}"
    try:
        if args.record_goldens:
            record_goldens(workdir, args.workload)
            return 0
        if args.probe:
            run_probe(workdir)
            return 0
        workloads, e2e_names, layer_names = declared_metrics()
        if args.workload not in workloads:
            print(f"unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(HERE))
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args, workdir, deadline)
            declared = layer_names
        else:
            correct, attempted, failed, metrics = end_to_end(args, workdir, deadline)
            declared = e2e_names
        if sorted(metrics) != sorted(declared):
            print(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}", file=sys.stderr)
            return 1
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {name: metrics[name] for name in declared}}))
        return 0
    except (ChildFailed, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
