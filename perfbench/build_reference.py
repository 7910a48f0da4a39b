#!/usr/bin/env python3
"""Build perfbench/reference.json: the expected result of every benchmark solve.

    python3 perfbench/build_reference.py

Run once per change to the workloads, from the code the benchmark is meant
to hold fixed. For every (instance, solver) pair it records the status,
p_eps, the final (k, val, infeas) and a digest of the trace rows with the
elapsed column left out; for every instance with a linear reformulation it
records the simplex LP status, optimum and pivot count. The LP solves take
about a minute in all, which is why they are not repeated per run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from run import REFERENCE, ROOT, SRC, THREAD_VARS


def git_head():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import subgrad
    from benchlib import summarise
    from subgrad.simplex import lp_solve_small
    from workloads import SOLVERS, WORKLOADS

    doc = {"built_from": git_head(), "workloads": {}}
    for workload in WORKLOADS.values():
        instances = {}
        for inst in workload.instances:
            problem = inst.build()
            solves = {}
            for solver in SOLVERS:
                report = subgrad.solve(problem, workload.config(solver))
                solves[solver] = summarise(report.status, report.p_eps,
                                           [(r.k, r.val, r.infeas) for r in report.trace])
            lp = None
            if inst.lp is not None:
                t0 = time.perf_counter()
                res = lp_solve_small(inst.lp(problem))
                lp = {"status": res.status, "value": res.value, "pivots": res.n_pivots}
                print(f"{inst.label}: LP {res.status} value={res.value} "
                      f"pivots={res.n_pivots} in {time.perf_counter() - t0:.1f} s")
            instances[inst.label] = {"lp": lp, "solves": solves}
        doc["workloads"][workload.name] = {"iterations": workload.iterations,
                                           "trace_every": workload.trace_every,
                                           "instances": instances}
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
