"""Generators for the benchmark problem families.

All randomness flows through numpy's PCG64 generator seeded directly with
the instance seed, so a (family, size, seed) triple reproduces the same
instance bit for bit on any platform. Draw order is fixed per family and
documented in each builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracles import (AffineOracle, HingeSumOracle, LogBarrierOracle, MaxOracle,
                      Norm1Oracle, SqNormOracle, SumOracle)
from .problem import ConstrainedProblem

__all__ = ["TestInstance", "gen_random", "build_lad", "build_svm"]

# Rejection-sampling cap for the case-2 anchor; acceptance probability is
# about 0.8 per draw, so this is never close to binding.
MAX_ANCHOR_DRAWS = 10**6


@dataclass
class TestInstance:
    problem: ConstrainedProblem
    label: str
    meta: dict = field(default_factory=dict)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _case2_domain_oracle(n):
    """max{-log(x_1 + 1), x_2} - 1 as a single constraint oracle."""
    e2 = np.zeros(n)
    e2[1] = 1.0
    return MaxOracle([
        LogBarrierOracle(n, index=0, shift=1.0, offset=-1.0),
        AffineOracle(e2, -1.0),
    ])


def gen_random(case, n, seed):
    """Random linear objective over a convex domain plus l random equalities.

    Draw order: c, A, anchor point. l = ceil(n / 7) rows; b = A @ anchor
    keeps the instance feasible by construction. Case 1 uses the unit l1
    ball (one inequality); case 2 uses the box [-1, 1]^n plus the
    max{-log(x_1 + 1), x_2} <= 1 domain (2n + 1 inequalities).
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng(seed)
    l = math.ceil(n / 7)
    c = rng.uniform(-1.0, 1.0, n)
    A = rng.uniform(-1.0, 1.0, (l, n))

    if case == 1:
        # Anchor: direction uniform on the l1 sphere scaled by u^(1/n),
        # which lands strictly inside the ball almost surely.
        u = rng.standard_normal(n)
        direction = u / np.sum(np.abs(u))
        xbar = rng.uniform() ** (1.0 / n) * direction
        ineq = [Norm1Oracle(n, offset=-1.0)]
        m = 1
    else:
        xbar = None
        for _ in range(MAX_ANCHOR_DRAWS):
            cand = rng.uniform(-1.0, 1.0, n)
            if max(-math.log(cand[0] + 1.0), cand[1]) <= 1.0:
                xbar = cand
                break
        if xbar is None:
            raise RuntimeError("case-2 anchor sampling exceeded the draw cap")
        ineq = []
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            ineq.append(AffineOracle(ei, -1.0))
            ineq.append(AffineOracle(-ei, -1.0))
        ineq.append(_case2_domain_oracle(n))
        m = 2 * n + 1

    b = A @ xbar
    problem = ConstrainedProblem(AffineOracle(c, 0.0), ineq, A, b)
    return TestInstance(
        problem=problem,
        label=f"case{case}-n{n}",
        meta={"case": case, "n": n, "m": m, "l": l, "anchor": xbar},
    )


def build_lad(nbar, seed):
    """l1 regression in slack form: min ||y||_1 s.t. y = D x - w.

    Variables are (x, y) with x in R^nbar and y in R^(2*nbar); the
    equality block is [-D | I] (x, y) = -w, whose identity tail the problem
    detects and reads as B = -D. Draw order: D, then w, entries uniform on
    [-1, 1].
    """
    if nbar < 1:
        raise ValueError("nbar must be at least 1")
    rng = _rng(seed)
    rows = 2 * nbar
    D = rng.uniform(-1.0, 1.0, (rows, nbar))
    w = rng.uniform(-1.0, 1.0, rows)
    n = 3 * nbar
    A = np.hstack([-D, np.eye(rows)])
    b = -w
    f0 = Norm1Oracle(n, coords=np.arange(nbar, n))
    problem = ConstrainedProblem(f0, [], A, b)
    return TestInstance(
        problem=problem,
        label=f"lad-nbar{nbar}",
        meta={"nbar": nbar, "n": n, "l": rows},
    )


def build_svm(nbar, seed):
    """Soft-margin SVM with the margins pulled out as equality constraints.

    Data: N = 200*nbar samples; the first half has label +1 with features
    uniform on [0, 1]^nbar, the second half label -1 on [-1, 0]^nbar
    (drawn in that order). Variables are (weights, bias, margins) with
    margins tau = Z w - bias * ones enforced by [-Z | ones | I] = 0, whose
    identity tail the problem detects and reads as B = [-Z | ones]; the
    objective is the mean hinge loss on tau plus half the squared weight
    norm.
    """
    if nbar < 1:
        raise ValueError("nbar must be at least 1")
    rng = _rng(seed)
    N = 200 * nbar
    half = N // 2
    Z = np.empty((N, nbar))
    Z[:half] = rng.uniform(0.0, 1.0, (half, nbar))
    Z[half:] = rng.uniform(-1.0, 0.0, (N - half, nbar))
    y = np.concatenate([np.ones(half), -np.ones(N - half)])

    n = nbar + 1 + N
    A = np.hstack([-Z, np.ones((N, 1)), np.eye(N)])
    b = np.zeros(N)
    tau_coords = np.arange(nbar + 1, n)
    w_coords = np.arange(nbar)
    f0 = SumOracle([
        HingeSumOracle(n, coords=tau_coords, labels=y, scale=1.0 / N),
        SqNormOracle(n, coords=w_coords, scale=0.5),
    ])
    problem = ConstrainedProblem(f0, [], A, b)
    return TestInstance(
        problem=problem,
        label=f"svm-nbar{nbar}",
        meta={"nbar": nbar, "N": N, "n": n, "l": N},
    )
