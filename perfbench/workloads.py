"""The benchmark's workloads: pinned instances and the solver settings they run with.

Instances are pinned rather than drawn from the workload seed because every
solve is checked against reference data built once (one of the LP optima
takes about a minute of simplex pivots). The seed only orders the solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from subgrad import SolverConfig, simplex, testbeds
from subgrad.oracles import AffineOracle
from subgrad.problem import ConstrainedProblem

SOLVERS = ("sg", "sdsg", "mdsg", "pds")

# Weights of the calibration kernels (dispatch, BLAS, 1000-element arrays;
# see bench.Calibrator) in a solve's speed factor. Fitted on a 2-core Xeon
# whose speed swings by about 2x in phases of 10-30 s, by the spread of
# 15-20 s window medians. Solves dominated by interpreter and small-array
# dispatch track the dispatch kernel. mdsg and pds on wide equality blocks
# mix A @ x and A.T @ nu with indexing and elementwise work on n-element
# arrays, and track the other two kernels.
DISPATCH_WEIGHTS = (0.9, 0.1, 0.0)
MATVEC_WEIGHTS = (0.0, 0.3, 0.7)
# Set-up adds a fourth kernel, small-file writes and reads. Set-up that
# writes megabytes of JSON is CPU-bound and tracks the dispatch kernel; the
# few-millisecond set-up of small instances is bound by file-system latency,
# which drifts apart from CPU speed, and tracks a blend (15-20 s window
# medians varied 1.30x with dispatch weights, 1.12x with this blend).
CPU_SETUP_WEIGHTS = DISPATCH_WEIGHTS + (0.0,)
FILE_SETUP_WEIGHTS = (0.5, 0.0, 0.0, 0.5)


@dataclass(frozen=True)
class Instance:
    label: str
    build: Callable[[], ConstrainedProblem]
    # Maps the problem onto an LpProblem for the simplex ground truth; None
    # for families with no linear reformulation (log barrier, hinge + square).
    lp: Callable[[ConstrainedProblem], simplex.LpProblem] | None = None
    matvec_bound: tuple[str, ...] = ()

    def weights(self, solver):
        return MATVEC_WEIGHTS if solver in self.matvec_bound else DISPATCH_WEIGHTS


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    iterations: int
    trace_every: int
    setup_weights: tuple[float, ...] = CPU_SETUP_WEIGHTS

    def config(self, solver):
        return SolverConfig(solver=solver, iterations=self.iterations,
                            trace_every=self.trace_every)


def one_d():
    """min x s.t. -x <= 0: optimum 0 with multiplier 1 (acceptance criterion 1)."""
    return ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])])


def _one_d_lp(problem):
    return simplex.LpProblem(c=[1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                             lower=[0.0], upper=[np.inf])


def _case1(n, seed, matvec_bound=()):
    return Instance(f"case1-n{n}-s{seed}",
                    lambda: testbeds.gen_random(1, n, seed).problem,
                    simplex.encode_case1, matvec_bound)


_MATVEC = ("mdsg", "pds")

WORKLOADS = {w.name: w for w in (
    # Python and numpy dispatch: n <= 10, 2-10 oracle calls per iteration,
    # a trace row per iteration. The acceptance instances (case1 n=10,
    # seeds 1, 5, 6, 7, 8) plus criterion 1's 1-D problem.
    Workload("tiny",
             (Instance("one-d", one_d, _one_d_lp),)
             + tuple(_case1(10, s) for s in (1, 5, 6, 7, 8)),
             iterations=1000, trace_every=1, setup_weights=FILE_SETUP_WEIGHTS),
    # Per-row constraint objects: case2 has 201 affine inequality rows, svm
    # has 400 equality rows that sg/sdsg read one AbsAffineOracle at a time.
    Workload("row-blocks",
             (Instance("case2-n100-s1", lambda: testbeds.gen_random(2, 100, 1).problem),
              Instance("svm-nbar2-s1", lambda: testbeds.build_svm(2, 1).problem,
                       matvec_bound=_MATVEC)),
             iterations=200, trace_every=100),
    # Dense equality blocks: mdsg/pds make 1-6 vectorised oracle calls plus
    # A @ x and A.T @ nu; sg/sdsg read the same rows through the max form.
    Workload("dense",
             (_case1(1000, 1, _MATVEC),
              Instance("lad-nbar100-s1", lambda: testbeds.build_lad(100, 1).problem,
                       lambda p: simplex.encode_lad(p, 100), _MATVEC)),
             iterations=300, trace_every=100),
)}
