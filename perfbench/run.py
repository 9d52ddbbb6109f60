"""Benchmark of the harmonicdisk workbench, driven through its CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 28 --trace 0

Workloads: figures, conjecture, verify, profiles-io (see workloads.py and
perfbench/README.md).  The run imports ``src/harmonicdisk`` from the
checkout, pins BLAS/OpenMP threads to 1, and calls
``harmonicdisk.cli.main(argv)`` in-process.  It

1. times ``setup_s`` (import + parser + catalog) in fresh processes,
2. runs the workload's correctness gate outside the timed region,
3. runs whole passes for about ``--seconds`` (at least two), timing each,
4. checks every pass's outputs and that all passes wrote bitwise-identical
   data files,
5. prints each metric with its unit, then, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead (traced minus untraced pass time).
``--smoke`` shrinks every workload to seconds; the benchmark's own tests
use it.  A record of each run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORKLOAD_NAMES = ("figures", "conjecture", "verify", "profiles-io")
MIN_PASSES = 2
SETUP_SAMPLES = 5
EXIT_CRASH = 70  # an exception escaped cli.main: counted as a failed call

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import harmonicdisk
from harmonicdisk.cli import build_parser
from harmonicdisk.sources import figure_case
build_parser()
for fig in range(1, 16):
    figure_case(fig)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(samples: int) -> list[float]:
    """Import + parser + catalog time, each sample in a fresh interpreter."""
    times = []
    for _ in range(samples + 1):  # the first one warms the file cache
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


class Driver:
    """Calls the CLI in-process, optionally through the tracer."""

    def __init__(self):
        from harmonicdisk import cli
        self.cli = cli
        self.tracer = None
        self.log = []

    def __call__(self, argv, label=""):
        main = self.cli.main
        if self.tracer is not None:
            self.tracer.context = label
            main = self.tracer.wrap(f"cli.{argv[0]}", main)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the program under test crashed: a failed call, not ours
                traceback.print_exc()
                code = EXIT_CRASH
        if code != 0:
            self.log.append(f"{' '.join(argv)} -> exit {code}\n{out.getvalue()[-4000:]}")
        return code


def run_pass(workload, driver, rng, pass_dir, tracer=None):
    calls = workload.calls(rng, pass_dir)
    pass_dir.mkdir(parents=True)
    driver.tracer = tracer
    if tracer is not None:
        tracer.install()
    gc.collect()
    try:
        start = time.perf_counter()
        exits = [driver(argv, label) for label, argv in calls]
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        driver.tracer = None
    tally = workload.account(pass_dir, calls, exits)
    shutil.rmtree(pass_dir)
    return seconds, tally


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "figure_14_grid": "8x16 (smoke 2x4) instead of 20x64: it never converges, "
                          "and at 20x64 it alone would exceed a whole pass",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "harmonicdisk" / "__init__.py").is_file():
        print(f"error: no harmonicdisk package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported, here and in children
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_times = measure_setup(SETUP_SAMPLES)
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    driver = Driver()
    work_dir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        gate_dir = work_dir / "gate"
        gate_dir.mkdir(parents=True)
        problems = workload.gate(driver, gate_dir)

        plain, traced, tallies = [], [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            k = len(tallies)
            rng = np.random.default_rng([args.seed, 1, k])
            seconds, tally = run_pass(workload, driver, rng, work_dir / f"pass{k}")
            plain.append(seconds)
            tallies.append(tally)
            if tracer is not None:
                rng = np.random.default_rng([args.seed, 1, k])
                seconds, tally = run_pass(workload, driver, rng,
                                          work_dir / f"pass{k}t", tracer)
                traced.append(seconds)
                tallies.append(tally)
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if len(tallies) >= MIN_PASSES and elapsed + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for k, tally in enumerate(tallies):
        problems += [f"pass {k}: {p}" for p in tally.problems]
        if tally.digests != tallies[0].digests:
            changed = sorted(n for n in tally.digests
                             if tally.digests[n] != tallies[0].digests.get(n))
            problems.append(f"pass {k}: data files differ from pass 0: {changed}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    first = tallies[0]

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(plain)} untraced, {len(traced)} traced"]
    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
        if tracer.missing:
            lines.append(f"hooks not found (metrics read 0): {tracer.missing}")
    else:
        wall = statistics.median(plain)
        metrics = {
            "wall_s": wall,
            "work_per_s": first.work / wall,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        lines.append(f"pass times (s): {' '.join(f'{s:.4f}' for s in plain)}")
        lines.append(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_times)}")
        lines.append(f"{workload.work_name} = work_per_s: "
                     f"{first.work} {workload.work_unit} per pass")
    lines.append(f"failed_frac = {first.failed}/{first.attempted} per pass = "
                 f"{first.failed / first.attempted:.6f}")
    lines += first.notes
    if args.workload == "figures":
        lines.append(f"ratio-floor NaN points (not failures) = {first.ratio_floor_nan} per pass")
    units = metric_units()
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units.get(name, '')}")
    if driver.log:
        lines.append(f"{len(driver.log)} CLI calls exited nonzero; first:\n{driver.log[0]}")
    for problem in problems:
        lines.append(f"INCORRECT: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }
    record = {"environment": environment(args), "pass_seconds": plain,
              "traced_pass_seconds": traced, "setup_seconds": setup_times,
              "problems": problems, "result": result}
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def metric_units() -> dict:
    """Unit of every metric, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
