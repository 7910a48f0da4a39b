"""Statistics, speed normalisation and the correctness check of the benchmark.

Standard library only, so the tests can import it without pinning BLAS
threads or importing the solver package.
"""

from __future__ import annotations

import hashlib
import math
import struct

# A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10

# Largest disagreement with the reference that still counts as correct, as
# a share of (1 + |reference|), for the final val/infeas and p_eps. It sits
# three orders of magnitude below the solvers' eps = 1e-3, so a result that
# moves this far is a different answer, and about ten orders above double
# rounding, so reordered sums (a vectorised constraint block, say) pass.
# Bit-for-bit agreement is reported separately as the trace digest match.
VALUE_RTOL = 1e-6


def tail(samples, min_beyond=TAIL_MIN_BEYOND):
    """Highest whole percentile with at least ``min_beyond`` samples above its rank.

    Nearest-rank rule: percentile p picks the sorted sample of rank
    ceil(p * N / 100) (1-based), which leaves N - rank samples beyond it.
    Returns (p, value, N), or None when N <= min_beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= min_beyond:
        return None
    p = (100 * (n - min_beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1], n


def speed_factor(cal, ref, weights):
    """How many times slower than the reference machine state a solve ran.

    ``cal`` and ``ref`` hold the timings of the calibration kernels, now and
    on the reference state. The factor is the geometric mean of their
    ratios, weighted by ``weights`` (non-negative, summing to 1). Dividing
    a raw time by it gives the time at reference speed.
    """
    if len(cal) != len(ref) or len(weights) != len(ref):
        raise ValueError("cal, ref and weights must have one entry per kernel")
    if min(weights) < 0.0 or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights must be non-negative and sum to 1, got {weights}")
    if min(cal) <= 0.0 or min(ref) <= 0.0:
        raise ValueError("calibration timings must be positive")
    return math.prod((c / r) ** w for c, r, w in zip(cal, ref, weights))


def trace_digest(rows):
    """sha256 over the exact bits of (k, val, infeas) of every trace row."""
    h = hashlib.sha256()
    for k, val, infeas in rows:
        h.update(struct.pack("<qdd", k, val, infeas))
    return h.hexdigest()


def summarise(status, p_eps, rows):
    """Reference-comparable summary of one solve from its (k, val, infeas) rows."""
    rows = [(int(k), float(v), float(f)) for k, v, f in rows]
    last = rows[-1] if rows else (0, math.nan, math.nan)
    return {
        "status": status,
        "p_eps": None if p_eps is None else float(p_eps),
        "k": last[0],
        "val": last[1],
        "infeas": last[2],
        "finite": all(math.isfinite(v) and math.isfinite(f) for _, v, f in rows),
        "digest": trace_digest(rows),
    }


def _close(got, want, rtol):
    return abs(got - want) <= rtol * (1.0 + abs(want))


def check(got, ref, rtol=VALUE_RTOL):
    """Reasons a solve summary disagrees with its reference; empty when it passes.

    The trace digest is not part of the check: bit-identical traces are
    reported on their own, so a reordered sum is no failure.
    """
    problems = []
    if not got["finite"]:
        problems.append("non-finite trace value")
    if got["status"] != ref["status"]:
        problems.append(f"status {got['status']} != {ref['status']}")
    if got["k"] != ref["k"]:
        problems.append(f"final k {got['k']} != {ref['k']}")
    for key in ("val", "infeas"):
        if not _close(got[key], ref[key], rtol):
            problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
    if (got["p_eps"] is None) != (ref["p_eps"] is None):
        problems.append(f"p_eps {got['p_eps']!r} != {ref['p_eps']!r}")
    elif got["p_eps"] is not None and not _close(got["p_eps"], ref["p_eps"], rtol):
        problems.append(f"p_eps {got['p_eps']!r} != {ref['p_eps']!r}")
    return problems
