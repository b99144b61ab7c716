"""One benchmark run in a fresh interpreter, started by run.py.

Modes:
  setup    set up the workload, report the set-up time and exit;
  measure  set up, then run passes of the seeded op stream until the
           host-normalized op time reaches --seconds;
  trace    set up, then run passes 0 .. VARIANTS-1 (every variant of every
           template once), traced (--traced 1) or not;
  record   run every variant of every template once and print golden hashes;
  probe    run one reference baseline (--probe NAME) once.

The result is one JSON object on the last line of stdout.

Host-speed normalization: on the shared 2-CPU Xeon VM the benchmark was
written on, CPU speed changes in phases of seconds (the same pure-Python loop
takes 47 or 77 ms). A fixed pure-Python kernel that never touches padicapprox
runs between operations,
about every CAL_EVERY seconds of op time; each op's time is scaled by
REF_CALIB_S / (mean of the kernel times just before and after it). Raw wall
times are reported next to the normalized ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REF_CALIB_S = 0.017
CAL_EVERY = 0.1


def calibrate() -> float:
    """Time a fixed pure-Python kernel: fill a dict of 30k pseudo-random int
    keys, then probe it at random. The dict outgrows the L2 cache, so the
    kernel slows with memory contention as well as with CPU speed, as the
    program's trie tables do. It allocates nothing the cyclic garbage
    collector tracks, so its time does not grow with the program's heap."""
    table: dict[int, int] = {}
    acc = 1
    t = time.perf_counter()
    for i in range(30_000):
        acc = (acc * 1103515245 + 12345) % 2147483648
        table[acc] = i
    hits = 0
    for _ in range(30_000):
        acc = (acc * 1103515245 + 12345) % 2147483648
        hits += table.get(acc, 0)
    return time.perf_counter() - t


def emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result) + "\n")


def import_program():
    sys.path.insert(0, str(SRC))
    import padicapprox
    import padicapprox.cli  # noqa: F401 - imported before the tracer patches it

    if Path(padicapprox.__file__).resolve().parent != SRC / "padicapprox":
        raise SystemExit(f"padicapprox imported from {padicapprox.__file__}, not from {SRC}")


class Runner:
    """Times ops between calibrations and checks their outputs."""

    def __init__(self, goldens: dict, tracer=None):
        self.goldens = goldens
        self.tracer = tracer
        self.cals = [calibrate()]
        self.since_cal = 0.0
        self.records: list[list] = []  # [template, raw_s, segment, ok]
        self.failures: list[str] = []

    def run(self, op) -> float:
        from workloads import CheckFailed

        error = None
        out = ""
        op_id = len(self.records)
        t = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.op(op_id, op.template):
                    out = op.call()
            else:
                out = op.call()
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t
        if error is None:
            try:
                golden = self.goldens.get(op.key)
                if golden is None:
                    raise CheckFailed("no golden recorded for this op")
                if golden != op.digest(out):
                    raise CheckFailed("output differs from the golden hash")
                op.check(out)
            except Exception as exc:  # a broken check counts as a failed op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.key[:160]}: {error[:300]}")
        self.records.append([op.template, raw, len(self.cals) - 1, error is None])
        self.since_cal += raw
        if self.since_cal >= CAL_EVERY:
            self.cals.append(calibrate())
            self.since_cal = 0.0
        return raw * REF_CALIB_S / self.cals[-1]

    def finish(self) -> list[float]:
        """Close the last segment; normalized time of every op."""
        self.cals.append(calibrate())
        return [
            raw * REF_CALIB_S * 2 / (self.cals[seg] + self.cals[seg + 1])
            for _, raw, seg, _ in self.records
        ]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "record", "probe"])
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--launch", type=float, required=True, help="time.monotonic() just before the spawn")
    ap.add_argument("--probe", default="")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    t_start = time.monotonic()
    cal_a = calibrate()

    t_setup = time.monotonic()
    import_program()
    if args.mode == "probe":
        import probe

        emit(probe.run(args.probe, calibrate, REF_CALIB_S, bool(args.traced)))
        return
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.workdir)
    if args.mode == "record":
        emit(record(wl, workloads))
        return
    with open(HERE / "goldens.json") as fh:
        goldens = json.load(fh)[args.workload]
    if hasattr(wl, "build_library"):
        wl.build_library(workloads.library_variants(random.Random(f"library|{args.seed}")))
    templates = wl.templates()
    ops = workloads.schedule(wl, templates, args.seed, 0)
    setup_raw = (t_start - args.launch) + (time.monotonic() - t_setup)
    cal_b = calibrate()
    setup_s = setup_raw * REF_CALIB_S * 2 / (cal_a + cal_b)
    if args.mode == "setup":
        emit({"setup_s": setup_s, "setup_raw_s": setup_raw})
        return

    runner = Runner(goldens, tracer)
    if args.mode == "trace":
        for k in range(workloads.VARIANTS):
            for op in ops if k == 0 else workloads.schedule(wl, templates, args.seed, k):
                runner.run(op)
    else:
        elapsed, k = 0.0, 0
        while elapsed < args.seconds:
            for op in ops:
                elapsed += runner.run(op)
                if elapsed >= args.seconds:
                    break
            k += 1
            ops = workloads.schedule(wl, templates, args.seed, k)
    norm = runner.finish()
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "op_s": norm,
        "op_raw_s": [r[1] for r in runner.records],
        "templates": [r[0] for r in runner.records],
        "ok": [r[3] for r in runner.records],
        "failures": runner.failures[:20],
        "calibrations": len(runner.cals),
        "calib_median_s": statistics.median(runner.cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        factor = REF_CALIB_S / statistics.median(runner.cals)
        result["per_layer"] = tracer.metrics(factor)
        result["counts"] = tracer.counts()
        spans_path = str(Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"time_factor": factor, "spans": tracer.spans}, fh)
        result["spans_path"] = spans_path
        result["spans"] = len(tracer.spans)
    emit(result)


def record(wl, workloads) -> dict:
    """Golden hashes and raw costs of every op any seed can produce."""
    goldens, costs, failures = {}, {}, []
    library_rounds = range(workloads.VARIANTS) if hasattr(wl, "build_library") else [None]
    for lib in library_rounds:
        if lib is not None:
            wl.build_library({name: lib for name in workloads.LIBRARY})
        for template in wl.templates():
            for v in range(workloads.VARIANTS):
                for files in (False, True) if wl.writes_files else (False,):
                    op = template.make(v, files)
                    t = time.perf_counter()
                    try:
                        out = op.call()
                        cost = time.perf_counter() - t
                        op.check(out)
                    except Exception as exc:  # recorded, reported, never golden
                        failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                        continue
                    goldens[op.key] = op.digest(out)
                    costs.setdefault(template.name, []).append(round(cost, 4))
    return {"goldens": goldens, "costs": costs, "failures": failures}


if __name__ == "__main__":
    main()
