"""Convex function oracles: every evaluation returns (value, subgradient).

These classes are the building blocks for objectives and constraints:
affine pieces, absolute residuals, pointwise maxima, positive parts, and a
few vectorized aggregates (l1 norm, scaled squared norm, hinge sums) that
keep large instances cheap to evaluate.

Subgradient selections are deterministic. Ties are resolved by fixed rules
(lowest index wins in maxima, sign(0) = +1 in absolute values, zero at the
boundary of positive parts) so solver runs are replayable bit for bit.

Returned subgradient arrays may alias oracle-internal storage; treat them
as read-only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvexOracle",
    "AffineOracle",
    "AbsAffineOracle",
    "MaxOracle",
    "PositivePart",
    "SumOracle",
    "Norm1Oracle",
    "SqNormOracle",
    "HingeSumOracle",
    "LogBarrierOracle",
    "norm_power_subgrad",
    "euclidean_norm",
    "LOG_SAFEGUARD",
]

# Floor for the argument of -log(.); below it value and slope are frozen at
# their values on the floor, so the oracle stays finite off its domain.
LOG_SAFEGUARD = 1e-12


def _as_vector(v, name="vector"):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_scalar(v, name):
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return f


def _as_int(v, name):
    i = int(v)
    if i != v:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return i


def _as_coords(coords, dim):
    """Index array over coordinates [0, dim); None selects all of them."""
    idx = np.arange(dim) if coords is None else np.asarray(coords, dtype=float)
    if idx.ndim != 1 or not np.all((idx >= 0) & (idx < dim) & (idx == np.floor(idx))):
        raise ValueError(f"coords must be integer indices in [0, {dim}), got {coords}")
    return idx.astype(int)


class ConvexOracle:
    """A convex function queried through (value, one subgradient) pairs.

    Subclasses implement ``__call__(x) -> (value, subgrad)`` where
    ``subgrad`` is some valid element of the subdifferential at ``x``.
    Which element is returned is fixed per class, so repeated evaluations
    agree exactly.
    """

    dim: int

    def __call__(self, x):
        raise NotImplementedError

    def value(self, x):
        return self(x)[0]


class AffineOracle(ConvexOracle):
    """c.x + d; the subgradient is c everywhere."""

    def __init__(self, c, d=0.0):
        self.c = _as_vector(c, "c")
        self.d = _as_scalar(d, "d")
        self.dim = self.c.shape[0]

    def __call__(self, x):
        return float(self.c @ x) + self.d, self.c

    def __repr__(self):
        return f"AffineOracle(dim={self.dim}, d={self.d})"


class AbsAffineOracle(ConvexOracle):
    """|a.x - b| with subgradient sign(a.x - b) * a, sign(0) = +1.

    The sign convention matches MaxOracle's lowest-index tie rule applied
    to the pair {a.x - b, b - a.x}.
    """

    def __init__(self, a, b=0.0):
        self.a = _as_vector(a, "a")
        self.b = _as_scalar(b, "b")
        self.dim = self.a.shape[0]
        self._neg_a = -self.a

    def __call__(self, x):
        r = float(self.a @ x) - self.b
        if r >= 0.0:
            return r, self.a
        return -r, self._neg_a

    def __repr__(self):
        return f"AbsAffineOracle(dim={self.dim}, b={self.b})"


class MaxOracle(ConvexOracle):
    """Pointwise maximum of several oracles on the same space.

    The subgradient comes from the lowest-index part attaining the max,
    which is a valid element of the max-subdifferential.
    """

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("MaxOracle needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"MaxOracle parts disagree on dim: {sorted(dims)}")
        self.parts = parts
        self.dim = parts[0].dim

    def __call__(self, x):
        best_v, best_g = self.parts[0](x)
        for part in self.parts[1:]:
            v, g = part(x)
            if v > best_v:
                best_v, best_g = v, g
        return best_v, best_g

    def __repr__(self):
        return f"MaxOracle({len(self.parts)} parts, dim={self.dim})"


class PositivePart(ConvexOracle):
    """max{f(x), 0} with the zero subgradient wherever f(x) <= 0.

    Zero is a valid selection from conv(subdiff(f) | {0}) at f(x) = 0 and
    from {0} when f(x) < 0; choosing it keeps multiplier updates inert on
    exactly-satisfied constraints.
    """

    def __init__(self, arg):
        self.arg = arg
        self.dim = arg.dim
        self._zero = np.zeros(self.dim)

    def __call__(self, x):
        v, g = self.arg(x)
        if v > 0.0:
            return v, g
        return 0.0, self._zero

    def __repr__(self):
        return f"PositivePart({self.arg!r})"


class SumOracle(ConvexOracle):
    """Sum of several oracles; values and subgradients add."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("SumOracle needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"SumOracle parts disagree on dim: {sorted(dims)}")
        self.parts = parts
        self.dim = parts[0].dim

    def __call__(self, x):
        total_v, g0 = self.parts[0](x)
        total_g = np.array(g0, dtype=float)
        for part in self.parts[1:]:
            v, g = part(x)
            total_v += v
            total_g += g
        return total_v, total_g

    def __repr__(self):
        return f"SumOracle({len(self.parts)} parts, dim={self.dim})"


class Norm1Oracle(ConvexOracle):
    """sum_j |x_j| over the given coordinates, plus a constant offset.

    Subgradient entry is sign(x_j) with sign(0) = +1, matching the abs
    convention above.
    """

    def __init__(self, dim, coords=None, offset=0.0):
        self.dim = _as_int(dim, "dim")
        self.coords = _as_coords(coords, self.dim)
        self.offset = _as_scalar(offset, "offset")

    def __call__(self, x):
        xc = x[self.coords]
        v = float(np.sum(np.abs(xc))) + self.offset
        g = np.zeros(self.dim)
        g[self.coords] = np.where(xc >= 0.0, 1.0, -1.0)
        return v, g

    def __repr__(self):
        return f"Norm1Oracle(dim={self.dim}, k={len(self.coords)}, offset={self.offset})"


class SqNormOracle(ConvexOracle):
    """scale * sum_j x_j^2 over the given coordinates (smooth)."""

    def __init__(self, dim, coords=None, scale=1.0):
        self.dim = _as_int(dim, "dim")
        self.coords = _as_coords(coords, self.dim)
        self.scale = _as_scalar(scale, "scale")

    def __call__(self, x):
        xc = x[self.coords]
        v = self.scale * float(xc @ xc)
        g = np.zeros(self.dim)
        g[self.coords] = (2.0 * self.scale) * xc
        return v, g

    def __repr__(self):
        return f"SqNormOracle(dim={self.dim}, k={len(self.coords)}, scale={self.scale})"


class HingeSumOracle(ConvexOracle):
    """scale * sum_i max{0, 1 - labels_i * x[coords_i]}, vectorized.

    At a kink (margin exactly 0) the zero selection is used, consistent
    with PositivePart.
    """

    def __init__(self, dim, coords, labels, scale=1.0):
        self.dim = _as_int(dim, "dim")
        self.coords = _as_coords(coords, self.dim)
        self.labels = _as_vector(labels, "labels")
        if self.coords.shape != self.labels.shape:
            raise ValueError("coords and labels must have equal length")
        self.scale = _as_scalar(scale, "scale")

    def __call__(self, x):
        margins = 1.0 - self.labels * x[self.coords]
        active = margins > 0.0
        v = self.scale * float(np.sum(margins[active]))
        g = np.zeros(self.dim)
        g[self.coords[active]] = -self.scale * self.labels[active]
        return v, g

    def __repr__(self):
        return f"HingeSumOracle(dim={self.dim}, terms={len(self.coords)}, scale={self.scale})"


class LogBarrierOracle(ConvexOracle):
    """-log(x_index + shift) + offset, safeguarded off its natural domain.

    For x_index + shift below LOG_SAFEGUARD the value is frozen at
    -log(LOG_SAFEGUARD) + offset with slope -1/LOG_SAFEGUARD, so solvers
    stay total even if an iterate leaves the domain. Inside the domain the
    subgradient inequality holds exactly.
    """

    def __init__(self, dim, index, shift=1.0, offset=0.0):
        self.dim = _as_int(dim, "dim")
        self.index = _as_int(index, "index")
        if not 0 <= self.index < self.dim:
            raise ValueError(f"index {index} out of range for dim {dim}")
        self.shift = _as_scalar(shift, "shift")
        self.offset = _as_scalar(offset, "offset")

    def __call__(self, x):
        t = float(x[self.index]) + self.shift
        g = np.zeros(self.dim)
        if t >= LOG_SAFEGUARD:
            g[self.index] = -1.0 / t
            return -math.log(t) + self.offset, g
        g[self.index] = -1.0 / LOG_SAFEGUARD
        return -math.log(LOG_SAFEGUARD) + self.offset, g

    def __repr__(self):
        return (f"LogBarrierOracle(dim={self.dim}, index={self.index}, "
                f"shift={self.shift}, offset={self.offset})")


def norm_power_subgrad(z, s):
    """One subgradient of ||.||_2^s at z, for s in [1, 2].

    Returns 2z when s = 2, s*||z||^(s-2)*z when z != 0, and the zero
    vector at z = 0 (a valid selection from {s*g : ||g||_2 <= 1}).
    """
    if not 1.0 <= s <= 2.0:
        raise ValueError(f"s must lie in [1, 2], got {s}")
    z = np.asarray(z, dtype=float)
    if s == 2.0:
        return 2.0 * z
    nz = euclidean_norm(z)
    if nz == 0.0:
        return np.zeros_like(z)
    return (s * nz ** (s - 2.0)) * z


def euclidean_norm(v):
    """||v||_2 of a 1-D float array.

    Bit-identical to np.linalg.norm(v), which computes sqrt(v.dot(v)) for
    this case, without its argument dispatch; the solvers call it on every
    iteration.
    """
    return math.sqrt(v.dot(v))
