"""Benchmark of gapfem's certified SOLVE-ESTIMATE-MARK-REFINE pipeline.

Run from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all     # every workload, plain and traced

Every repetition runs one `gapfem` command in a fresh worker process
(worker.py) and checks its report against reference/.  A plain run
(--trace 0) repeats the command for --seconds and reports the medians of
the end-to-end metrics; its times are scaled by the host speed measured
around each repetition (calibration.py).  A traced run (--trace 1)
alternates plain and traced repetitions for --seconds and reports the
medians of the per-layer metrics; it fails a traced repetition whose output
differs from a plain one or whose counts differ from the first traced
repetition.

Standard output ends with a JSON line of run metadata and a JSON line
{"correct", "attempted", "failed", "metrics"}.  `--workload all` ends
instead with one JSON line holding every workload's metadata and results.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

END_TO_END_UNITS = {"time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PLAIN_REPS = 3
MIN_TRACED_REPS = 2  # counts are compared between traced repetitions
DEADLINE_S = 170.0  # every invocation ends within 180 s
MIN_COVERAGE = 0.95
# Workers run single-threaded.  On 2 cores, starting OpenBLAS's thread pool
# adds about 0.1 s to set-up and most of its run-to-run spread, and the
# solver's BLAS calls are too small to gain from a second thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def run_rep(workload, seed, trace, deadline):
    """One worker process; returns its record, with `ok` False on any failure.

    A plain repetition is bracketed by two calibrations; its `setup_s` and
    `time_to_solution_s` are scaled to the reference host speed, and the
    worker's own wall times are kept as `wall_setup_s` and
    `wall_time_to_solution_s`.
    """
    timeout = max(5.0, deadline - time.monotonic())
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    start = time.monotonic()
    calibration_s = None if trace else calibration.seconds()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, **THREAD_ENV})
    except subprocess.TimeoutExpired:
        record = {"ok": False, "errors": [f"{workload}: timed out after {timeout:.0f} s"]}
    else:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            record = None
        if proc.returncode != 0 or record is None:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            record = {"ok": False,
                      "errors": [f"{workload}: worker exit {proc.returncode}: {tail}"]}
    if calibration_s is not None and record["ok"]:
        calibration_s = (calibration_s + calibration.seconds()) / 2
        record["calibration_s"] = calibration_s
        for name in ("setup_s", "time_to_solution_s"):
            record["wall_" + name] = record[name]
            record[name] *= calibration.REFERENCE_S / calibration_s
    record["wall_s"] = time.monotonic() - start
    record["traced"] = bool(trace)
    return record


def repeat(workload, seed, modes, seconds, min_reps, start, deadline):
    """Repetitions cycling through the trace `modes` until `seconds` have
    passed since `start`; at least `min_reps` of them."""
    reps = []
    while True:
        reps.append(run_rep(workload, seed, modes[len(reps) % len(modes)], deadline))
        typical = statistics.median(r["wall_s"] for r in reps)
        now = time.monotonic()
        if now + typical > deadline:
            break
        if len(reps) >= min_reps and now - start + typical > seconds:
            break
    return reps


def quartiles(values):
    """(first quartile, third quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def plain_run(workload, seed, seconds):
    start = time.monotonic()
    reps = repeat(workload, seed, (0,), seconds, MIN_PLAIN_REPS, start, start + DEADLINE_S)
    ok = [r for r in reps if r["ok"]]
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        if ok:
            metrics[name] = {"value": statistics.median(r[name] for r in ok), "unit": unit}
    return reps, metrics


def traced_run(workload, seed, seconds):
    start = time.monotonic()
    reps = repeat(workload, seed, (0, 1), seconds, 2 * MIN_TRACED_REPS, start,
                  start + DEADLINE_S)
    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    for rep in traced:
        layers, first = rep["trace"]["layers"], traced[0]["trace"]["layers"]
        if any(rep["output_sha256"] != p["output_sha256"] for p in plain):
            rep["errors"].append(f"{workload}: traced output differs from plain output")
        for name, unit in tracing.PER_LAYER_UNITS.items():
            if unit == "count" and layers[name] != first[name]:
                rep["errors"].append(
                    f"{workload}: count {name} is {layers[name]} here and "
                    f"{first[name]} in the first traced repetition")
        rep["ok"] = not rep["errors"]
    for name in traced[0]["trace"]["missing"] if traced else ():
        print(f"warning: {workload}: {name} no longer exists; its spans read 0 calls",
              file=sys.stderr)
    ok = [r for r in traced if r["ok"]]
    if not (ok and plain):
        return reps, {}
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["time_to_solution_s"] for r in ok)
                     - statistics.median(r["time_to_solution_s"] for r in plain))
        elif unit == "count":
            value = ok[0]["trace"]["layers"][name]
        else:
            value = statistics.median(r["trace"]["layers"][name] for r in ok)
        metrics[name] = {"value": value, "unit": unit}
    coverage = metrics["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        print(f"warning: {workload}: trace coverage {coverage:.3f} is below "
              f"{MIN_COVERAGE}", file=sys.stderr)
    return reps, metrics


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def loadavg():
    path = Path("/proc/loadavg")
    return path.read_text().split()[:3] if path.exists() else None


def measure(workload, seed, seconds, trace):
    """One plain or traced run: (metadata, result) as printed."""
    # The worker inherits this one CPU, so the calibrations around each
    # repetition measure the CPU that runs it.
    usable = os.sched_getaffinity(0)
    cpu = max(usable)
    os.sched_setaffinity(0, {cpu})
    meta = {
        "workload": workload,
        "command": ["gapfem"] + workloads.WORKLOADS[workload].command(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(usable),
        "cpu": cpu,
        "calibration_reference_s": calibration.REFERENCE_S,
        "thread_env": {k: v for k, v in sorted({**os.environ, **THREAD_ENV}.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "loadavg_start": loadavg(),
    }
    reps, metrics = (traced_run if trace else plain_run)(workload, seed, seconds)
    meta["loadavg_end"] = loadavg()
    meta["versions"] = next((r["versions"] for r in reps if "versions" in r), None)
    meta["repetitions"] = [
        {k: r.get(k) for k in ("traced", "ok", "errors", "wall_s", "calibration_s",
                               "time_to_solution_s", "setup_s", "wall_time_to_solution_s",
                               "wall_setup_s", "peak_rss_mb")}
        for r in reps
    ]
    failed = sum(not r["ok"] for r in reps)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    report(workload, reps, result, trace)
    return meta, result


def report(workload, reps, result, trace):
    """Human-readable lines: every metric by name and unit, and every failure."""
    kind = "traced" if trace else "plain"
    ok = [r for r in reps if r["ok"]]
    print(f"== {workload} ({kind}, {len(reps)} repetitions)")
    for rep in reps:
        for error in rep["errors"]:
            print(f"FAILED {error}")
    for name, metric in result["metrics"].items():
        line = f"  {name:34s} {metric['value']:.6g} {metric['unit']}"
        if not trace:
            q1, q3 = quartiles([r[name] for r in ok])
            line += f"  (median of {len(ok)}; quartiles {q1:.6g}..{q3:.6g})"
            if "wall_" + name in ok[0]:
                wall = statistics.median(r["wall_" + name] for r in ok)
                line += f"  wall {wall:.6g} {metric['unit']}"
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} 1  "
          f"({failed} failed / {attempted} attempted)")
    traced = [r for r in ok if r["traced"]]
    if traced:
        print("  spans (self s, calls) of the first traced repetition:")
        for name, (self_s, calls) in traced[0]["trace"]["spans"].items():
            print(f"    {name:32s} {self_s:10.4f} {calls:6d}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gapfem" / "cli.py").is_file():
        sys.exit(f"error: no gapfem sources under {ROOT / 'src'}; run from a checkout")

    try:
        if args.workload != "all":
            meta, result = measure(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"meta": meta}))
            print(json.dumps(result))
            return
        runs = {}
        for name in workloads.WORKLOADS:
            runs[name] = {}
            for trace, kind in ((0, "plain"), (1, "traced")):
                meta, result = measure(name, args.seed, args.seconds, trace)
                runs[name][kind] = {"meta": meta, "result": result}
        print(json.dumps({"workloads": runs}))
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
