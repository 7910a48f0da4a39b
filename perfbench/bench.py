"""Measurement loop of the benchmark; run.py imports it once the source tree is on sys.path."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import random
import time
import traceback
from statistics import median

import numpy as np

import subgrad
from benchlib import check, speed_factor, summarise, tail
from subgrad import dsg, pds, probio, sg
from subgrad.reports import SolverConfig, gap
from workloads import DISPATCH_WEIGHTS, SOLVERS, one_d

# Calibration kernel timings (dispatch_s, blas_s, array_s) that define
# reference speed: their medians over a 300 s recording on the machine
# described in workloads.py, so normalised times read close to raw ones.
REF_CAL = (1.5e-3, 1.3e-3, 1.1e-3)
# Reference timing of Calibrator.file_io, a fourth kernel used only around
# set-up repetitions, whose small-file writes and reads it resembles.
REF_FILE_IO = 2.0e-3

# Set-up repeats at least SETUP_MIN_REPS times and for at least SETUP_MIN_S
# seconds, so that the median of a few-millisecond set-up is steady too.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
GATE_REPS = 3
CRITERION1_K = 10_000


class Calibrator:
    """Three fixed kernels that import nothing from subgrad.

    Small-array dispatch (10 elements), BLAS matrix-vector products (a
    200 x 1000 matrix and its transpose), and indexing and elementwise work
    on 1000-element arrays.
    """

    def __init__(self):
        self.c = np.linspace(0.5, 1.5, 10)
        self.x0 = np.linspace(-1.0, 1.0, 10)
        self.M = np.random.default_rng(0).uniform(-1.0, 1.0, (200, 1000))
        self.v = np.ones(1000)
        self.w = np.ones(200)
        self.u = np.linspace(-1.0, 1.0, 1000)
        self.idx = np.arange(1000)

    def measure(self):
        """Seconds taken by each kernel, as (dispatch_s, blas_s, array_s)."""
        c, x = self.c, self.x0
        t0 = time.perf_counter()
        for _ in range(150):
            g = np.array(c, dtype=float)
            if float(c @ x) > 0.0:
                g += 0.5 * x
            x = np.maximum(x - (1e-3 / float(np.linalg.norm(g))) * g, -1.0)
        t1 = time.perf_counter()
        for _ in range(15):
            self.M @ self.v
            self.M.T @ self.w
        t2 = time.perf_counter()
        u, idx = self.u, self.idx
        for _ in range(40):
            uc = u[idx]
            float(np.sum(np.abs(uc)))
            g = np.zeros(1000)
            g[idx] = np.where(uc >= 0.0, 1.0, -1.0)
            float(np.linalg.norm(u - 0.01 * g))
        return t1 - t0, t2 - t1, time.perf_counter() - t2

    def file_io(self, dirpath):
        """Seconds taken to write and read back a small file in dirpath 12 times."""
        path = os.path.join(dirpath, "calibration.json")
        t0 = time.perf_counter()
        for _ in range(12):
            with open(path, "w") as fh:
                fh.write('{"a": [1.0, 2.0, 3.0]}')
            with open(path) as fh:
                fh.read()
        return time.perf_counter() - t0


class Solve:
    """One timed solve. ``layers`` is (self_s, calls, xbar_s) on traced rounds, else None."""

    __slots__ = ("round", "solver", "raw_s", "factor", "iters", "ok", "identical", "layers")

    def __init__(self, round_, solver, raw_s, factor, iters, ok, identical, layers):
        self.round, self.solver, self.raw_s, self.factor = round_, solver, raw_s, factor
        self.iters, self.ok, self.identical, self.layers = iters, ok, identical, layers

    @property
    def norm_s(self):
        return self.raw_s / self.factor

    @property
    def traced(self):
        return self.layers is not None


class Bench:
    def __init__(self, workload, reference, seed, tracer=None):
        self.workload = workload
        self.reference = reference
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.cal = Calibrator()
        self.cal_last = self.cal.measure()
        self.solves = []
        self.failures = []
        self.finals = {}
        self.rounds = 0
        self.setup_reps = []

    def calibrate(self):
        """Kernel timings averaged over this calibration and the previous one."""
        now = self.cal.measure()
        mean = tuple(0.5 * (a + b) for a, b in zip(self.cal_last, now))
        self.cal_last = now
        return mean

    def measure_speed(self, weights):
        """Speed factor of the work since the previous calibration (or since
        construction), from the calibrations on both sides of it."""
        return speed_factor(self.calibrate(), REF_CAL, weights)

    def set_up(self, tmpdir):
        """Generate, save and reload every instance, repeatedly.

        Each repetition appends (raw_s, factor, build_s, roundtrip_s) to
        ``setup_reps``. Returns the last repetition's loaded problems.
        """
        start = time.perf_counter()
        io_last = self.cal.file_io(tmpdir)
        while (len(self.setup_reps) < SETUP_MIN_REPS
               or time.perf_counter() - start < SETUP_MIN_S):
            build_s = io_s = 0.0
            problems = []
            for inst in self.workload.instances:
                t0 = time.perf_counter()
                problem = inst.build()
                t1 = time.perf_counter()
                path = os.path.join(tmpdir, f"{inst.label}.json")
                probio.save_problem(path, problem, label=inst.label)
                problems.append((inst, probio.load_problem(path)))
                build_s += t1 - t0
                io_s += time.perf_counter() - t1
            io_now = self.cal.file_io(tmpdir)
            kernels = self.calibrate() + (0.5 * (io_last + io_now),)
            io_last = io_now
            factor = speed_factor(kernels, REF_CAL + (REF_FILE_IO,), self.workload.setup_weights)
            self.setup_reps.append((build_s + io_s, factor, build_s, io_s))
        return problems

    def solve(self, inst, problem, solver, tracer):
        """One solve through subgrad.solve; returns (raw_s, summary or None, check failures)."""
        cfg = self.workload.config(solver)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = subgrad.solve(problem, cfg)
            else:
                tracer.reset()
                report = tracer.span("solver", subgrad.solve, problem, cfg)
        except Exception:  # a solver that raises is one failed solve, not a failed run
            raw = time.perf_counter() - t0
            self.failures.append(f"{inst.label}/{solver} raised:\n{traceback.format_exc()}")
            return raw, None, ["raised"]
        raw = time.perf_counter() - t0
        got = summarise(report.status, report.p_eps,
                        [(r.k, r.val, r.infeas) for r in report.trace])
        reasons = check(got, self._ref(inst, solver))
        if reasons:
            self.failures.append(f"{inst.label}/{solver}: {'; '.join(reasons)}")
        self.finals[inst.label, solver] = got
        return raw, got, reasons

    def _ref(self, inst, solver):
        return self.reference["instances"][inst.label]["solves"][solver]

    def run_round(self, problems, traced, record=True):
        pairs = [(inst, problem, s) for inst, problem in problems for s in SOLVERS]
        self.rng.shuffle(pairs)
        tracer = self.tracer if traced else None
        with tracer if tracer is not None else contextlib.nullcontext():
            for inst, problem, solver in pairs:
                raw, got, reasons = self.solve(inst, problem, solver, tracer)
                factor = self.measure_speed(inst.weights(solver))
                if not record:
                    continue
                layers = None
                if tracer is not None:
                    layers = (dict(tracer.self_s), dict(tracer.calls), tracer.xbar_s)
                identical = got is not None and got["digest"] == self._ref(inst, solver)["digest"]
                self.solves.append(Solve(self.rounds, solver, raw, factor,
                                         got["k"] if got else 0, not reasons, identical, layers))
        if record:
            self.rounds += 1

    def measure(self, problems, seconds, min_rounds):
        """A warm-up round, then rounds until ``seconds`` are used.

        In a traced run every second round is traced.
        """
        self.run_round(problems, traced=False, record=False)
        start = time.perf_counter()
        while True:
            self.run_round(problems, traced=self.tracer is not None and self.rounds % 2 == 1)
            elapsed = time.perf_counter() - start
            if self.rounds >= min_rounds and elapsed * (1 + 1 / self.rounds) > seconds:
                break
        self.measured_s = time.perf_counter() - start

    def criterion1(self):
        """Replay of acceptance criterion 1's timed call sequence; returns (raw_s, factor)."""
        p = one_d()
        K = CRITERION1_K
        t0 = time.perf_counter()
        sg.solve(p, SolverConfig(solver="sg", eps=1e-3, iterations=K))
        dsg.solve(p, SolverConfig(solver="sdsg", eps=1e-3, iterations=K), mode="single")
        dsg.solve(p, SolverConfig(solver="mdsg", eps=1e-3, iterations=K), mode="multi")
        pds.solve(p, SolverConfig(solver="pds", eps=1e-3, iterations=K,
                                  rho=0.5, s_exp=2.0, delta_exp=0.5))
        st = dsg.init_state(p)
        z_star = np.array([0.0, 1.0])
        bound = np.linalg.norm(st.z0 - z_star) + 1.0
        worst_slack = np.inf  # the test asserts on it; it is kept so the timed work matches
        for _ in range(K):
            dsg.step(p, st)
            worst_slack = min(worst_slack, bound - np.linalg.norm(st.z_arr - z_star))
        raw = time.perf_counter() - t0
        return raw, self.measure_speed(DISPATCH_WEIGHTS)


def per_round(solves, solver):
    """(normalised_s, raw_s, iterations) summed per round for one solver."""
    sums = {}
    for s in solves:
        if s.solver == solver:
            n, r, it = sums.get(s.round, (0.0, 0.0, 0))
            sums[s.round] = (n + s.norm_s, r + s.raw_s, it + s.iters)
    return list(sums.values())


def us_per_iter(rounds, index=0):
    """Median over rounds of time per iteration; index 0 is normalised, 1 is raw."""
    return median(1e6 * row[index] / row[2] for row in rounds if row[2])


def end_to_end(bench):
    """Per-solver median and tail us/iteration and overall iterations per second."""
    solves = [s for s in bench.solves if not s.traced]
    metrics = {}
    for solver in SOLVERS:
        rounds = per_round(solves, solver)
        norm = us_per_iter(rounds)
        metrics[f"us_per_iter.{solver}"] = (norm, "us_ref")
        print(f"us_per_iter.{solver} = {norm:.3f} us_ref (raw {us_per_iter(rounds, 1):.3f} us), "
              f"median of {len(rounds)} rounds")
        mine = [s for s in solves if s.solver == solver and s.iters]
        p, value, count = tail([1e6 * s.norm_s / s.iters for s in mine])
        _, raw_value, _ = tail([1e6 * s.raw_s / s.iters for s in mine])
        metrics[f"us_per_iter.{solver}.tail"] = (value, "us_ref")
        print(f"us_per_iter.{solver}.tail = {value:.3f} us_ref (raw {raw_value:.3f} us), "
              f"p{p} of {count} single solves")
    iters = sum(s.iters for s in solves)
    ips = iters / sum(s.norm_s for s in solves)
    metrics["iters_per_s"] = (ips, "1/s_ref")
    print(f"iters_per_s = {ips:.1f} 1/s_ref (raw {iters / sum(s.raw_s for s in solves):.1f} 1/s)")
    return metrics


def per_layer(bench):
    """Per-solver layer self times and call counts from the traced rounds."""
    metrics = {}
    for solver in SOLVERS:
        traced = [s for s in bench.solves if s.solver == solver and s.traced]
        iters = sum(s.iters for s in traced)
        for layer in ("oracles", "problem"):
            calls = sum(s.layers[1][layer] for s in traced) / iters
            metrics[f"{layer}.calls_per_iter.{solver}"] = (calls, "count")
        for layer in ("oracles", "problem", "reports", "solver"):
            us = 1e6 * sum(s.layers[0][layer] / s.factor for s in traced) / iters
            metrics[f"{layer}.self_us_per_iter.{solver}"] = (us, "us_ref")
        if solver in ("sdsg", "mdsg"):
            us = 1e6 * sum(s.layers[2] / s.factor for s in traced) / iters
            metrics[f"dsg.xbar_eval_us_per_iter.{solver}"] = (us, "us_ref")
        on = us_per_iter(per_round(traced, solver))
        off = us_per_iter(per_round([s for s in bench.solves if not s.traced], solver))
        metrics[f"traced.overhead_frac.{solver}"] = (on / off - 1.0, "frac")
        print(f"{solver}: traced {on:.3f} us_ref/iter, untraced {off:.3f}, "
              f"over {iters} traced iterations")
    return metrics


def machine_lines(thread_vars):
    blas = "unknown"
    with contextlib.suppress(Exception):  # the build-info layout varies across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in thread_vars)
    return [f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas}",
            f"blas threads: {threads}"]


def print_lp(bench):
    """LP ground truth from the reference data, and each solver's final gap to it."""
    insts = bench.reference["instances"]
    print("lp status: " + ", ".join(
        f"{label} {v['lp']['status'] if v['lp'] else 'no LP form'}" for label, v in insts.items()))
    optimal = {label: v["lp"]["value"] for label, v in insts.items()
               if v["lp"] and v["lp"]["status"] == "OPTIMAL"}
    if not optimal:
        return
    for solver in SOLVERS:
        gaps = [gap(bench.finals[label, solver]["val"], value)
                for label, value in optimal.items()
                if math.isfinite(bench.finals.get((label, solver), {}).get("val", math.nan))]
        if gaps:
            print(f"quality.gap.{solver} = {median(gaps):.3e} (median over {len(gaps)} "
                  f"instances with an OPTIMAL LP, max {max(gaps):.3e})")
