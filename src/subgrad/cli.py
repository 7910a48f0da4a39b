"""Benchmark command line.

subgrad-bench run      one (problem, solver) pair; writes a trace CSV and
                       prints a summary row
subgrad-bench compare  all methods on one instance from a batch file;
                       prints one summary row per method

Trace CSV columns: k,val,infeas,elapsed_s, where infeas is the solver's
own measure (max{fbar(x), 0} for sg and sdsg). Summary columns:
method,s,val,infeas,gap,time_s with NA for fields that do not apply; val
and infeas are those of the reported point x_out, and infeas there is
||max{f(x_out), 0}||_2 + ||A x_out - b||_2 for every method.
Exit codes: 0 solved, 2 configuration error, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import probio, runner, simplex
from .oracles import _as_int, _as_scalar
from .reports import SolverConfig, gap
from .testbeds import build_lad, build_svm, gen_random

__all__ = ["main"]

SUMMARY_HEADER = "method,s,val,infeas,gap,time_s"


class ConfigError(Exception):
    pass


def _build_parser():
    p = argparse.ArgumentParser(prog="subgrad-bench",
                                description="benchmark constrained subgradient solvers")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one solver on one instance")
    run_p.add_argument("--problem", required=True,
                       choices=["case1", "case2", "lad", "svm", "file"])
    run_p.add_argument("--n", type=int, help="dimension for case1/case2")
    run_p.add_argument("--nbar", type=int, help="base size for lad/svm")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--solver", required=True, choices=["sg", "sdsg", "mdsg", "pds"])
    run_p.add_argument("--eps", type=float, default=1e-3)
    run_p.add_argument("--K", type=int, default=10_000)
    run_p.add_argument("--rho", type=float, default=None)
    run_p.add_argument("--s", dest="s_exp", type=float, default=2.0)
    run_p.add_argument("--delta", dest="delta_exp", type=float, default=0.5)
    run_p.add_argument("--trace-every", type=int, default=10)
    run_p.add_argument("--out", help="trace CSV path")
    run_p.add_argument("--in", dest="infile", help="problem JSON (with --problem file)")
    run_p.add_argument("--valstar", type=float, default=None,
                       help="known optimal value, enables the gap column")

    cmp_p = sub.add_parser("compare", help="run a method batch on one instance")
    cmp_p.add_argument("--batch", required=True, help="batch JSON file")
    cmp_p.add_argument("--out", help="also write the summary rows to this CSV")
    return p


def _build_problem(kind, n=None, nbar=None, seed=0, infile=None):
    try:
        if kind in ("case1", "case2"):
            if n is None:
                raise ConfigError(f"--n is required for problem {kind}")
            return gen_random(1 if kind == "case1" else 2, _as_int(n, "n"),
                              _as_int(seed, "seed")).problem
        if kind in ("lad", "svm"):
            if nbar is None:
                raise ConfigError(f"--nbar is required for problem {kind}")
            build = build_lad if kind == "lad" else build_svm
            return build(_as_int(nbar, "nbar"), _as_int(seed, "seed")).problem
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot build problem {kind}: {exc}") from exc
    if kind == "file":
        if infile is None:
            raise ConfigError("--in is required for problem file")
        try:
            return probio.load_problem(infile)
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"cannot load problem file {infile}: {exc}") from exc
    raise ConfigError(f"unknown problem kind {kind!r}")


def _write_trace(path, records):
    try:
        with open(path, "w") as fh:
            fh.write("k,val,infeas,elapsed_s\n")
            for r in records:
                fh.write(f"{r.k},{r.val!r},{r.infeas!r},{r.elapsed_s:.6f}\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _summary_row(method, s_exp, problem, report, val_star):
    final = report.final
    if final is None:
        val_s = infeas_s = "NA"
        gap_s = "NA"
    else:
        val_s = repr(float(final.val))
        infeas_s = repr(float(problem.infeasibility(report.x_out)))
        finite = val_star is not None and math.isfinite(final.val) and math.isfinite(val_star)
        gap_s = repr(gap(final.val, val_star)) if finite else "NA"
    s_s = repr(float(s_exp)) if method == "pds" else "NA"
    return f"{method},{s_s},{val_s},{infeas_s},{gap_s},{report.wall_time_s:.3f}"


def _cmd_run(args):
    problem = _build_problem(args.problem, args.n, args.nbar, args.seed, args.infile)
    cfg = SolverConfig(solver=args.solver, eps=args.eps, iterations=args.K,
                       rho=args.rho, s_exp=args.s_exp, delta_exp=args.delta_exp,
                       trace_every=args.trace_every)
    try:
        report = runner.solve(problem, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None and not _write_trace(args.out, report.trace):
        return 3
    print(SUMMARY_HEADER)
    print(_summary_row(args.solver, args.s_exp, problem, report, args.valstar))
    if report.p_eps is not None:
        print(f"# p_eps={report.p_eps!r} status={report.status}")
    else:
        print(f"# p_eps=NA status={report.status}")
    return 0


def _lp_value(kind, problem):
    if kind == "case1":
        lp = simplex.encode_case1(problem)
    elif kind == "lad":
        # lad has nbar coefficients and one slack per equality row
        lp = simplex.encode_lad(problem, problem.n - problem.l)
    else:
        raise ConfigError(f"no LP oracle for problem kind {kind!r}")
    res = simplex.lp_solve_small(lp)
    if res.status != simplex.OPTIMAL:
        raise ConfigError(f"LP oracle did not reach OPTIMAL: {res.status}")
    return res


def _cmd_compare(args):
    try:
        with open(args.batch) as fh:
            batch = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or an overlong integer
        raise ConfigError(f"cannot read batch file: {exc}") from exc

    if not isinstance(batch, dict):
        raise ConfigError("batch file must hold a JSON object")
    pspec = batch.get("problem", {})
    if not isinstance(pspec, dict):
        raise ConfigError("batch problem must be an object")
    kind = pspec.get("kind")
    problem = _build_problem(kind, pspec.get("n"), pspec.get("nbar"),
                             pspec.get("seed", 0), pspec.get("path"))
    methods = batch.get("methods", [])
    if not isinstance(methods, list) or not all(isinstance(e, dict) for e in methods):
        raise ConfigError("batch methods must be a list of objects")
    if not methods:
        raise ConfigError("batch method list is empty")

    val_star = batch.get("valstar")
    if val_star is not None:
        try:
            val_star = _as_scalar(val_star, "batch valstar")
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
    rows = []
    if batch.get("lp_oracle"):
        import time
        t0 = time.perf_counter()
        res = _lp_value(kind, problem)
        val_star = res.value
        rows.append(f"oracle,NA,{val_star!r},0.0,0.0,{time.perf_counter() - t0:.3f}")

    for entry in methods:
        solver = entry.get("solver")
        s_exp = entry.get("s", 2.0)
        try:
            cfg = SolverConfig(solver=solver, eps=batch.get("eps", 1e-3),
                               iterations=batch.get("K", 10_000),
                               rho=entry.get("rho"), s_exp=s_exp,
                               delta_exp=batch.get("delta", 0.5),
                               trace_every=batch.get("trace_every", 10))
            report = runner.solve(problem, cfg)
        except (ValueError, TypeError, OverflowError, RuntimeError) as exc:
            rows.append(f"{solver},NA,NA,NA,NA,NA  # {exc}")
            continue
        rows.append(_summary_row(solver, s_exp, problem, report, val_star))

    lines = [SUMMARY_HEADER] + rows
    print("\n".join(lines))
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
