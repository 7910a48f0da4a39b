"""Probe-based check of the subgradient inequality for an oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ValidationReport", "subgradient_validate"]


@dataclass
class ValidationReport:
    n_pairs: int
    n_violations: int
    worst_violation: float


def _ball_points(rng, dim, radius, count):
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return r * g


def subgradient_validate(oracle, n_pairs=1000, radius=1.0, seed=0):
    """Sample (x, y) pairs in a ball about 0 and test value(y) >= value(x) + g(x).(y - x).

    The per-pair tolerance is 1e-9 * (1 + |value(y)|). Violations are
    counted and the worst raw excess (positive means violated) reported;
    nothing is raised.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = _ball_points(rng, oracle.dim, radius, n_pairs)
    ys = _ball_points(rng, oracle.dim, radius, n_pairs)
    n_bad = 0
    worst = -np.inf
    for x, y in zip(xs, ys):
        vx, gx = oracle(x)
        vy = oracle(y)[0]
        excess = vx + float(gx @ (y - x)) - vy
        if excess > worst:
            worst = excess
        if excess > 1e-9 * (1.0 + abs(vy)):
            n_bad += 1
    return ValidationReport(n_pairs=n_pairs, n_violations=n_bad, worst_violation=worst)
