"""Benchmark command line.

subgrad-bench run      one (problem, solver) pair; writes a trace CSV and
                       prints a summary row
subgrad-bench compare  all methods on one instance from a batch file;
                       prints one summary row per method

Both build the instance from the table ``FAMILIES`` or a problem file
and make each summary row by ``_solve_row``. A setting left out takes its
``SolverConfig`` default, but ``TRACE_EVERY``. Every refusal, the CLI's own
or the library's, exits 2 from ``main`` (a method refused in compare gives
an NA row); problem messages name run's flags or compare's batch keys.

Trace CSV columns: k,val,infeas,elapsed_s, where infeas is the solver's
own measure (max{fbar(x), 0} for sg and sdsg). Summary columns:
method,s,val,infeas,gap,time_s with NA for fields that do not apply; val
and infeas are those of the reported point x_out, and infeas there is
||max{f(x_out), 0}||_2 + ||A x_out - b||_2 for every method.
Exit codes: 0 solved, 2 refused input, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from functools import partial

from . import SOLVERS, probio, simplex, solve
from .oracles import _as_int, _as_scalar
from .reports import SolverConfig, gap
from .testbeds import build_lad, build_svm, gen_random

__all__ = ["main"]

SUMMARY_HEADER = "method,s,val,infeas,gap,time_s"
TRACE_EVERY = 10  # SolverConfig keeps every trace row; the CLI every 10th

# kind -> (size key, builder(size, seed), LP encoder or None); or "file"
FAMILIES = {
    "case1": ("n", partial(gen_random, 1), simplex.encode_case1),
    "case2": ("n", partial(gen_random, 2), None),
    # lad has nbar coefficients and one slack per equality row
    "lad": ("nbar", build_lad, lambda p: simplex.encode_lad(p, p.n - p.l)),
    "svm": ("nbar", build_svm, None),
}
RUN_FLAGS = {"n": "--n", "nbar": "--nbar", "path": "--in"}

# compare's batch and method keys -> SolverConfig fields, which are run's dests
BATCH_KEYS = {"eps": "eps", "K": "iterations", "delta": "delta_exp", "trace_every": "trace_every"}
METHOD_KEYS = {"solver": "solver", "s": "s_exp", "rho": "rho"}
REFUSED = (ValueError, TypeError, OverflowError, RuntimeError)


def _build_parser():
    p = argparse.ArgumentParser(prog="subgrad-bench",
                                description="benchmark constrained subgradient solvers")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one solver on one instance")
    run_p.add_argument("--problem", required=True, choices=[*FAMILIES, "file"])
    run_p.add_argument("--n", type=int, help="dimension for case1/case2")
    run_p.add_argument("--nbar", type=int, help="base size for lad/svm")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--solver", required=True, choices=SOLVERS)
    run_p.add_argument("--eps", type=float)
    run_p.add_argument("--K", dest="iterations", metavar="K", type=int)
    run_p.add_argument("--rho", type=float)
    run_p.add_argument("--s", dest="s_exp", type=float)
    run_p.add_argument("--delta", dest="delta_exp", type=float)
    run_p.add_argument("--trace-every", type=int)
    run_p.add_argument("--out", help="trace CSV path")
    run_p.add_argument("--in", dest="path", metavar="INFILE",
                       help="problem JSON (with --problem file)")
    run_p.add_argument("--valstar", type=float, help="known optimal value, enables the gap column")

    cmp_p = sub.add_parser("compare", help="run a method batch on one instance")
    cmp_p.add_argument("--batch", required=True, help="batch JSON file")
    cmp_p.add_argument("--out", help="also write the summary rows to this CSV")
    return p


def _build_problem(kind, spec, names):
    """The instance that ``spec``, the given keys among n, nbar, seed and
    path, describes; a message calls a key by its entry in ``names``."""
    if kind != "file" and (not isinstance(kind, str) or kind not in FAMILIES):
        raise ValueError(f"unknown problem kind {kind!r}")
    key = "path" if kind == "file" else FAMILIES[kind][0]
    if spec.get(key) is None:
        raise ValueError(f"{names.get(key, key)} is required for problem {kind}")
    if kind == "file":
        path = spec["path"]
        if not isinstance(path, str):  # open() would take an integer as a file descriptor
            raise ValueError(f"problem path must be a string, got {path!r}")
        try:
            return probio.load_problem(path)
        except (OSError, KeyError, MemoryError) + REFUSED as exc:
            raise ValueError(f"cannot load problem file {path}: {exc}") from exc
    try:
        size, seed = _as_int(spec[key], key), _as_int(spec.get("seed", 0), "seed")
        return FAMILIES[kind][1](size, seed).problem
    except (MemoryError,) + REFUSED as exc:  # a size too large to allocate
        raise ValueError(f"cannot build problem {kind}: {exc}") from exc


def _solve_row(problem, settings, val_star):
    """Solve with ``settings``, a dict of SolverConfig fields, and return
    the report and its summary row; a refused setting raises as solve does."""
    cfg = SolverConfig(**{"trace_every": TRACE_EVERY, **settings})
    report = solve(problem, cfg)
    final = report.final
    val_s = infeas_s = gap_s = "NA"
    if final is not None:
        val_s = repr(float(final.val))
        infeas_s = repr(float(problem.infeasibility(report.x_out)))
        if val_star is not None and math.isfinite(final.val):
            gap_s = repr(gap(final.val, val_star))
    s_s = repr(float(cfg.s_exp)) if cfg.solver == "pds" else "NA"
    return report, f"{cfg.solver},{s_s},{val_s},{infeas_s},{gap_s},{report.wall_time_s:.3f}"


def _write(path, lines):
    """Write lines to path; False, after an error line, if it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args):
    given = {k: v for k, v in vars(args).items() if v is not None}
    val_star = None if args.valstar is None else _as_scalar(args.valstar, "valstar")
    problem = _build_problem(args.problem, given, RUN_FLAGS)
    settings = {f.name: given[f.name] for f in fields(SolverConfig) if f.name in given}
    report, row = _solve_row(problem, settings, val_star)
    trace = (f"{r.k},{r.val!r},{r.infeas!r},{r.elapsed_s:.6f}" for r in report.trace)
    if args.out is not None and not _write(args.out, ["k,val,infeas,elapsed_s", *trace]):
        return 3
    p_eps = "NA" if report.p_eps is None else repr(report.p_eps)
    print(f"{SUMMARY_HEADER}\n{row}\n# p_eps={p_eps} status={report.status}")
    return 0


def _cmd_compare(args):
    try:
        batch = probio._read_json(args.batch)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, too deep, or an overlong integer
        raise ValueError(f"cannot read batch file: {exc}") from exc
    if not isinstance(batch, dict):
        raise ValueError("batch file must hold a JSON object")
    pspec = batch.get("problem", {})
    if not isinstance(pspec, dict):
        raise ValueError("batch problem must be an object")
    kind = pspec.get("kind")
    problem = _build_problem(kind, pspec, {})
    methods = batch.get("methods", [])
    if not isinstance(methods, list) or not all(isinstance(e, dict) for e in methods):
        raise ValueError("batch methods must be a list of objects")
    if not methods:
        raise ValueError("batch method list is empty")

    val_star = batch.get("valstar")
    val_star = None if val_star is None else _as_scalar(val_star, "batch valstar")
    lp_oracle = batch.get("lp_oracle")
    if lp_oracle is not None and not isinstance(lp_oracle, bool):
        raise ValueError(f"batch lp_oracle must be true, false or null, got {lp_oracle!r}")
    rows = []  # (summary row, why it is NA or "")
    if lp_oracle:
        encode = FAMILIES[kind][2] if kind in FAMILIES else None
        if encode is None:
            raise ValueError(f"no LP oracle for problem kind {kind!r}")
        t0 = time.perf_counter()
        res = simplex.lp_solve_small(encode(problem))
        if res.status != simplex.OPTIMAL:
            raise ValueError(f"LP oracle did not reach OPTIMAL: {res.status}")
        val_star = res.value
        rows.append((f"oracle,NA,{val_star!r},0.0,0.0,{time.perf_counter() - t0:.3f}", ""))
    # a key left out takes its default (the solver has none); a null key is refused
    shared = {"solver": None, **{f: batch[k] for k, f in BATCH_KEYS.items() if k in batch}}
    for entry in methods:
        settings = {**shared, **{f: entry[k] for k, f in METHOD_KEYS.items() if k in entry}}
        try:
            rows.append((_solve_row(problem, settings, val_star)[1], ""))
        except REFUSED as exc:
            # the method field is a solver name or NA, never the raw batch value
            solver = settings["solver"]
            method = solver if isinstance(solver, str) and solver in SOLVERS else "NA"
            rows.append((f"{method},NA,NA,NA,NA,NA", f"  # {exc}"))

    print("\n".join([SUMMARY_HEADER] + [row + why for row, why in rows]))
    if args.out is not None and not _write(args.out, [SUMMARY_HEADER] + [r for r, _ in rows]):
        return 3
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_run(args) if args.command == "run" else _cmd_compare(args)
    except REFUSED as exc:  # the CLI's own refusals and the library's
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
