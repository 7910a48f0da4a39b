"""Probe-based check of the subgradient inequality for an oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import _as_int, _as_scalar

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
    counted and the worst raw excess (positive means violated) reported; a
    NaN excess counts as a violation, and makes the worst excess NaN.
    Raises ValueError unless radius is a finite positive number, n_pairs
    a positive integer and the oracle's dim at least 1.
    """
    radius = _as_scalar(radius, "radius")
    n_pairs = _as_int(n_pairs, "n_pairs")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if n_pairs < 1:  # no pair would be a vacuous pass
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs!r}")
    if oracle.dim < 1:  # the ball in R^0 is one point, another vacuous pass
        raise ValueError(f"dim must be at least 1, got {oracle.dim!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = _ball_points(rng, oracle.dim, radius, n_pairs)
    ys = _ball_points(rng, oracle.dim, radius, n_pairs)
    n_bad = 0
    worst = -np.inf
    for x, y in zip(xs, ys):
        vx, gx = oracle(x)
        vy = oracle.value(y)
        excess = vx + float(gx @ (y - x)) - vy
        if not excess <= worst and worst == worst:  # the first NaN excess is kept
            worst = excess
        if not excess <= 1e-9 * (1.0 + abs(vy)):  # a NaN excess is a violation
            n_bad += 1
    return ValidationReport(n_pairs=n_pairs, n_violations=n_bad, worst_violation=worst)
