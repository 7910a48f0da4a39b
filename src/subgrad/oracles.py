"""Convex function oracles: every evaluation returns (value, subgradient).

These classes are the building blocks for objectives and constraints:
affine pieces, absolute residuals, pointwise maxima, positive parts, and a
few vectorized aggregates (l1 norm, scaled squared norm, hinge sums, the
max over a block of affine rows) that keep large instances cheap to
evaluate.

Subgradient selections are deterministic. Ties are resolved by fixed rules
(lowest index wins in maxima, and a NaN part wins over any number,
sign(0) = +1 in absolute values, zero at the boundary of positive parts) so
solver runs are replayable bit for bit.

Returned subgradient arrays may alias oracle-internal storage; treat them
as read-only.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "ConvexOracle",
    "AffineOracle",
    "AbsAffineOracle",
    "MaxOracle",
    "AffineBlockOracle",
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


def _is_number_type(t):
    # bool is an int subclass and float("1") parses; neither is a number here
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def _check_number(v, name):
    if not _is_number_type(type(v)):
        raise ValueError(f"{name} must be a number, got {v!r}")


def _element_types(v, ndim):
    """Entry types of v, ndim list levels down; an array gives its dtype, deeper lists none."""
    if isinstance(v, np.ndarray):
        return {v.dtype.type}
    if not isinstance(v, (list, tuple)):
        return set()
    if ndim == 1:
        return set(map(type, v)) - {list, tuple}
    return set().union(*(_element_types(row, ndim - 1) for row in v))


def _as_numbers(v, name, ndim=1):
    """v as an ndim-D float array, refusing strings and booleans."""
    for t in _element_types(v, ndim):
        if not _is_number_type(t):
            raise ValueError(f"{name} must hold numbers, got {t.__name__}")
    a = np.asarray(v, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


def _as_vector(v, name, ndim=1):
    a = _as_numbers(v, name, ndim)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _as_scalar(v, name):
    _check_number(v, name)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return f


def _as_int(v, name):
    _check_number(v, name)
    i = int(v)
    if i != v:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return i


def _as_coords(coords, dim):
    """Index array over coordinates [0, dim); None selects all of them."""
    idx = np.arange(dim) if coords is None else _as_numbers(coords, "coords")
    if not np.all((idx >= 0) & (idx < dim) & (idx == np.floor(idx))):
        raise ValueError(f"coords must be integer indices in [0, {dim}), got {coords}")
    return idx.astype(int)


def _parts_and_dim(owner, parts):
    """parts as a list and their shared dim; there must be at least one part."""
    parts = list(parts)
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ValueError(f"{type(owner).__name__} needs at least one part, all of one dim; "
                         f"got dims {sorted(dims)}")
    return parts, parts[0].dim


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

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class AffineOracle(ConvexOracle):
    """c.x + d; the subgradient is c everywhere."""

    def __init__(self, c, d=0.0):
        self.c = _as_vector(c, "c")
        self.d = _as_scalar(d, "d")
        self.dim = self.c.shape[0]

    def __call__(self, x):
        return float(self.c.dot(x)) + self.d, self.c


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
        r = float(self.a.dot(x)) - self.b
        if r >= 0.0:
            return r, self.a
        return -r, self._neg_a


class MaxOracle(ConvexOracle):
    """Pointwise maximum of several oracles on the same space.

    The subgradient comes from the lowest-index part attaining the max,
    which is a valid element of the max-subdifferential.
    """

    def __init__(self, parts):
        self.parts, self.dim = _parts_and_dim(self, parts)

    def __call__(self, x):
        best_v, best_g = self.parts[0](x)
        for part in self.parts[1:]:
            v, g = part(x)
            # v > best_v, except that the first NaN wins, as in np.argmax
            if not v <= best_v and best_v == best_v:
                best_v, best_g = v, g
        return best_v, best_g


class AffineBlockOracle(ConvexOracle):
    """max_j r_j over the rows r = C x + d, or max_j |r_j| when absolute.

    The subgradient is row c_i (times sign(r_i), sign(0) = +1, when
    absolute) of the lowest index i attaining the max, and a NaN row wins.
    So values, subgradients and ties are bit for bit those of a MaxOracle
    over one AffineOracle(c_j, d_j) or AbsAffineOracle(c_j, -d_j) per row:
    np.vecdot computes each c_j.x as the per-row product does, which C @ x
    does not.
    """

    def __init__(self, C, d, absolute=False):
        self.C = np.ascontiguousarray(_as_vector(C, "C", ndim=2))
        self.d = _as_vector(d, "d")
        if self.C.shape[0] != self.d.shape[0] or not self.d.size:
            raise ValueError(f"C must have one row per entry of d, got shape {self.C.shape} "
                             f"for {self.d.size} entries")
        self.absolute = absolute
        self.dim = self.C.shape[1]

    def __call__(self, x):
        r = np.vecdot(self.C, x) + self.d
        i = int(np.argmax(np.abs(r) if self.absolute else r))
        v = float(r[i])
        if not self.absolute or v >= 0.0:
            return v, self.C[i]
        return -v, -self.C[i]


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


class SumOracle(ConvexOracle):
    """Sum of several oracles; values and subgradients add."""

    def __init__(self, parts):
        self.parts, self.dim = _parts_and_dim(self, parts)

    def __call__(self, x):
        total_v, g0 = self.parts[0](x)
        total_g = np.array(g0, dtype=float)
        for part in self.parts[1:]:
            v, g = part(x)
            total_v += v
            total_g += g
        return total_v, total_g


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


class SqNormOracle(ConvexOracle):
    """scale * sum_j x_j^2 over the given coordinates (smooth)."""

    def __init__(self, dim, coords=None, scale=1.0):
        self.dim = _as_int(dim, "dim")
        self.coords = _as_coords(coords, self.dim)
        self.scale = _as_scalar(scale, "scale")

    def __call__(self, x):
        xc = x[self.coords]
        v = self.scale * float(xc.dot(xc))
        g = np.zeros(self.dim)
        g[self.coords] = (2.0 * self.scale) * xc
        return v, g


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
