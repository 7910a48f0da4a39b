#!/usr/bin/env python3
"""Benchmark of the subgrad solvers: microseconds per iteration, per solver.

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 35 --trace 0

Imports subgrad from the ``src`` tree of the checkout that holds this
directory, and exits with code 2 when there is none. One process, one
caller, a closed loop: each round solves every (instance, solver) pair of
the workload once through ``subgrad.solve``, in an order drawn from
``--seed``, and checks each result against ``reference.json``. Rounds
repeat until ``--seconds`` are used up. BLAS is pinned to one thread.

Times are normalised to a reference machine speed: the small shared
machine this was built on drifts by about 2x in phases of 10-30 s. Three
calibration kernels that import nothing from subgrad run between
consecutive solves, and each solve is divided by the speed factor of the
kernels on both sides of it (bench.Calibrator, benchlib.speed_factor,
workloads.DISPATCH_WEIGHTS). Raw times are printed beside normalised ones.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with rounds traced by layertrace.LayerTrace and reports the
per-layer metrics, the tracing overhead and the criterion-1 gate replay.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None):
    args = parse_args(argv)
    # Before numpy is first imported, so BLAS starts with one thread.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "subgrad", "__init__.py")):
        return fail(f"no subgrad source tree at {SRC}")
    if not os.path.isfile(REFERENCE):
        return fail(f"missing reference data {REFERENCE}")
    sys.path.insert(0, SRC)

    import subgrad
    if os.path.dirname(os.path.abspath(subgrad.__file__)) != os.path.join(SRC, "subgrad"):
        return fail(f"imported subgrad from {subgrad.__file__}, not from {SRC}")
    import bench
    from benchlib import TAIL_MIN_BEYOND
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    with open(REFERENCE) as fh:
        reference = json.load(fh)["workloads"].get(workload.name)
    if reference is None or (reference["iterations"], reference["trace_every"]) != (
            workload.iterations, workload.trace_every):
        return fail(f"reference data does not match workload {workload.name}")

    tracer = None
    if args.trace:
        from layertrace import LayerTrace
        tracer = LayerTrace()
    b = bench.Bench(workload, reference, args.seed, tracer)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={workload.iterations} "
          f"trace_every={workload.trace_every} instances={len(workload.instances)}")
    for line in bench.machine_lines(THREAD_VARS):
        print(line)

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        problems = b.set_up(tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    # An untraced run needs enough single solves for a tail percentile; a
    # traced run needs one untraced and one traced round.
    min_rounds = 2 if tracer else math.ceil((TAIL_MIN_BEYOND + 1) / len(problems))
    b.measure(problems, args.seconds, min_rounds)

    attempted = len(b.solves)
    failed = sum(not s.ok for s in b.solves)
    identical = sum(s.identical for s in b.solves) / attempted
    for msg in b.failures[:5]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    factors = [s.factor for s in b.solves]
    print(f"measured {b.measured_s:.1f} s: {b.rounds} rounds after one warm-up, "
          f"{attempted} solves; speed factor median {median(factors):.3f} "
          f"(min {min(factors):.3f}, max {max(factors):.3f})")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} solves "
          f"failed the reference check)")
    print(f"reports.trace_identical_frac = {identical:.4f}")
    bench.print_lp(b)

    reps = b.setup_reps
    setup = median(raw / f for raw, f, _, _ in reps)
    print(f"setup_s = {setup:.4f} s at reference speed (raw {median(r[0] for r in reps):.4f} s), "
          f"median of {len(reps)}")
    if args.trace:
        metrics = bench.per_layer(b)
        metrics["testbeds.build_s"] = (median(bs / f for _, f, bs, _ in reps), "s")
        metrics["probio.roundtrip_s"] = (median(io / f for _, f, _, io in reps), "s")
        metrics["reports.trace_identical_frac"] = (identical, "frac")
        gates = [b.criterion1() for _ in range(bench.GATE_REPS)]
        gate = median(raw for raw, _ in gates)
        metrics["gate.criterion1_s"] = (gate, "s")
        print(f"gate.criterion1_s = {gate:.3f} s raw, limit 1.0 s "
              f"({median(raw / f for raw, f in gates):.3f} s at reference speed), "
              f"median of {len(gates)}")
    else:
        metrics = bench.end_to_end(b)
        metrics["setup_s"] = (setup, "s")
        metrics["correct_frac"] = (1.0 - failed / attempted, "frac")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MB")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
