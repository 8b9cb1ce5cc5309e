"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload <name> --seed <n> --trace <0|1>

Set-up (`setup_s`) is importing `gapfem.cli` and building the problem and
its initial mesh.  The command's time to solution runs from `gapfem.cli.main`
parsing its arguments until its report is written, read back and checked.
With --trace 1 the package's functions are wrapped (see tracing.py) after
set-up and before the command.  The last line of standard output is one
JSON object describing the repetition; bench/run.py reads it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    import gapfem.cli as cli
    from gapfem.problems import get_problem

    get_problem(workload.problem).mesh_factory()
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SOURCE):
        sys.exit(f"gapfem was imported from {cli.__file__}, not from {SOURCE}")

    tracer = None
    missing = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    out = work_dir / f"{workload.name}-{os.getpid()}.csv"
    argv = workload.command(args.seed) + ["--out", str(out)]
    output, exit_code = None, None
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
        output = out.read_bytes() if out.exists() else None
        errors = workloads.check(workload, exit_code, output)
    except Exception as exc:  # a crashed command is a failed repetition
        traceback.print_exc()
        errors = [f"{workload.name}: {type(exc).__name__}: {exc}"]
    time_to_solution_s = time.perf_counter() - t1
    out.unlink(missing_ok=True)

    import numpy
    import scipy

    record = {
        "ok": not errors,
        "errors": errors,
        "exit_code": exit_code,
        "setup_s": setup_s,
        "time_to_solution_s": time_to_solution_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_sha256": hashlib.sha256(output).hexdigest() if output is not None else None,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": None,
    }
    if tracer is not None:
        record["trace"] = {
            "layers": tracing.layer_metrics(tracer, time_to_solution_s),
            "spans": {k: [tracer.self_s[k], tracer.calls[k]] for k in sorted(tracer.calls)},
            "missing": missing,
        }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
