"""Convex function oracles: every evaluation returns (value, subgradient).

These classes are the building blocks for objectives and constraints:
affine pieces, absolute residuals, pointwise maxima, positive parts, and a
few vectorized aggregates (l1 norm, scaled squared norm, hinge sums, the
max over a block of affine rows, into which a problem stacks each run of
its affine inequality rows) that keep large instances cheap to evaluate.

An affine row c.x is read by one rule, the same for a single row and for
each row of a block: a row of few nonzeros (nnz(c) * SPARSE_ROW_RATIO <= n,
such as case 2's box rows and svm's [-Z | 1 | I]) by its nonzeros, summed
in column order (_sparse_dots), any other row by a dense dot. So a block
has the bits of one oracle call per row (AffineBlockOracle).

Each class writes its arithmetic once, in ``select`` and ``subgrad`` (see
ConvexOracle). A maximum, a sum and a positive part read their parts
through ``select``, so a maximum builds its winning part's subgradient alone.

Subgradient selections are deterministic. Ties are resolved by fixed rules
(lowest index wins in maxima, and a NaN part wins over any number,
sign(0) = +1 in absolute values, zero at the boundary of positive parts) so
solver runs are replayable bit for bit. Returned subgradient arrays may
alias oracle-internal storage; treat them as read-only.
"""

from __future__ import annotations

import functools
import itertools
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

# Fewest consecutive rows of one type that are stacked into one
# AffineBlockOracle. A block call costs about 3-5 us and a per-row part
# 1.5 us, so shorter runs stay one oracle per row.
ROW_BLOCK_MIN = 4

# A row c of n entries is read by its nonzeros when nnz(c) * SPARSE_ROW_RATIO
# <= n, else by a dense dot. On blocks of 200 x 300, 400 x 403 and 200 x 1000
# the sparse kernel costs what np.vecdot does at 1 nonzero in 8-13 columns,
# 0.25-0.8 of it at 1 in 16-19, and a fifth of it on svm's rows; a block of
# 50 rows, or a single row, is call overhead whatever n.
SPARSE_ROW_RATIO = 16


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
        return {type(v)}
    if ndim == 1:
        return set(map(type, v)) - {list, tuple}
    return set().union(*(_element_types(row, ndim - 1) for row in v))


def _as_numbers(v, name, ndim=1):
    """v as an ndim-D float array, refusing strings, booleans and ints past the float range."""
    for t in _element_types(v, ndim):
        if not _is_number_type(t):
            raise ValueError(f"{name} must hold numbers, got {t.__name__}")
    try:
        a = np.asarray(v, dtype=float)
    except OverflowError:  # an int entry such as 10**400
        raise ValueError(f"{name} must be within the float range") from None
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


def _as_vector(v, name, ndim=1):
    a = _as_numbers(v, name, ndim)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _aligned(a):
    """Float array a, C-contiguous and starting at a 64-byte boundary: a itself
    when it already is one, else one copy, written straight from a: making a
    non-contiguous a contiguous first would allocate it twice.

    numpy aligns to 16 bytes, so a block's offset mod 64 follows the
    allocation history of the process, which every imported source file
    feeds; products with a dense block at offset 16 or 48 run 5-15% slower
    than at 0 or 32. The values, and so the bits, are the same.
    """
    a = np.asarray(a)
    if a.flags.c_contiguous and a.ctypes.data % 64 == 0:
        return a
    buf = np.empty(a.size + 8)
    k = (-buf.ctypes.data % 64) // 8
    out = buf[k:k + a.size].reshape(a.shape)
    out[...] = a
    return out


def _as_rows(A, n, name):
    """A as a 2-D array of n columns, 64-byte aligned; [] or shape (0, n) is no rows."""
    if isinstance(A, (list, tuple)) and not A:
        return np.zeros((0, n))
    A = _as_vector(A, name, ndim=2)
    if A.shape[1] != n:
        raise ValueError(f"{name} has {A.shape[1]} columns, expected {n}")
    return _aligned(A)


def _as_scalar(v, name):
    _check_number(v, name)
    try:
        f = float(v)
    except OverflowError:  # an int such as 10**400
        raise ValueError(f"{name} must be within the float range") from None
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return f


def _as_scale(v):
    f = _as_scalar(v, "scale")
    if f < 0.0:  # scale * (a convex function) is concave for scale < 0
        raise ValueError(f"scale must be nonnegative, got {v!r}")
    return f


def _as_int(v, name):
    _check_number(v, name)
    if not (abs(v) < math.inf and int(v) == v):  # int(inf) raises unnamed, isfinite(10**400) too
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _as_coords(coords, dim):
    """Index array of distinct coordinates in [0, dim); None selects all of them."""
    idx = np.arange(dim) if coords is None else _as_numbers(coords, "coords")
    if not np.all((idx >= 0) & (idx < dim) & (idx == np.floor(idx))):
        raise ValueError(f"coords must be integer indices in [0, {dim}), got {coords}")
    s = np.sort(idx)  # np.unique would import numpy.ma, a megabyte, on its first call
    if (s[1:] == s[:-1]).any():  # a repeat counts twice in a value, once in a subgradient
        raise ValueError(f"coords must be distinct indices, got {coords}")
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

    ``self(x)`` returns ``(value, g)``, g a valid element of the
    subdifferential at x, fixed per class so repeated evaluations agree
    exactly. It runs ``v, key = self.select(x)``, then ``self.subgrad(key)``;
    ``value(x)`` runs ``select`` alone, so it has the same bits and builds no
    subgradient. A subclass writes ``select``, plus ``subgrad`` unless its
    key is the subgradient. A subclass that writes ``__call__`` alone, as
    AffineOracle and many user oracles do, stays supported: the default
    ``select`` returns ``self(x)``, its subgradient as the key. A key may be
    a view of x.
    """

    dim: int

    def __call__(self, x):
        v, key = self.select(x)
        return v, self.subgrad(key)

    def value(self, x):
        return self.select(x)[0]

    def select(self, x):
        if type(self).__call__ is ConvexOracle.__call__:
            raise NotImplementedError(f"{type(self).__name__} writes neither select nor __call__")
        return self(x)

    def subgrad(self, key):
        return key

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _all_finite(a):
    """Whether every entry of a is finite; unlike a sum or a dot of a, this
    raises no overflow warning. np.logical_and.reduce is ndarray.all without
    its Python wrapper."""
    return bool(np.logical_and.reduce(np.isfinite(a)))


def _sparse_kernel(C):
    """The rows of the 2-D C that the nonzero rule reads by their nonzeros:
    (at, kernel), at their indices in C and kernel their data for
    _sparse_dots; None when there is no such row.

    The kernel is (cols, vals, k) for the k rows: padded ELL, column-major,
    of shape (K, max(k, 2)) for K the most nonzeros of a row, so slot s of
    every row is one contiguous row of cols and vals. A row's nonzeros fill
    its first slots in column order, and the slots left over, and the
    second column when k = 1, hold column 0 and the value +0.0: numpy sums
    axis 0 of a (K, 1) array pairwise, not in order. When K = 1, as for
    unit rows, cols and vals are the one slot, flat, of shape (k,). A -0.0
    entry is a zero.
    """
    nonzero = C != 0.0  # a bool mask: ndarray.nonzero on floats is 10x slower
    counts = np.count_nonzero(nonzero, axis=1)
    at = np.flatnonzero(counts * SPARSE_ROW_RATIO <= C.shape[1])
    if not at.size:
        return None
    # (row among at, column) of each nonzero, row by row, columns ascending
    i, j = np.divmod(np.flatnonzero(nonzero[at]), C.shape[1])
    slot = np.arange(i.size) - np.searchsorted(i, i)
    slots = int(counts[at].max())
    shape = (slots, at.size if slots == 1 else max(at.size, 2))
    cols, vals = np.zeros(shape, dtype=np.intp), np.zeros(shape)
    cols[slot, i] = j
    vals[slot, i] = C[at[i], j]
    return at, ((cols[0], vals[0]) if slots == 1 else (cols, vals)) + (at.size,)


def _sparse_dots(kernel, x):
    """c.x for each row of a _sparse_kernel, as a new array: x gathered at
    the row's columns, times its values, and summed in column order by an
    axis-0 reduce; with one slot per row, as unit rows have, the product is
    added to +0.0 directly, which is what the reduce does, at less cost. The
    reduce starts from its identity +0.0, as the dense dot does, and a
    padding term +-0.0 leaves a sum's bits unchanged, so a row of one
    nonzero has the dense dot's bits; a longer row's sum agrees with it to
    rounding. x must be finite: the dense dot reads 0 * inf as NaN, which
    the gather skips."""
    cols, vals, k = kernel
    p = vals * x[cols]
    if p.ndim == 1:
        return p + 0.0
    return np.add.reduce(p, axis=0)[:k]


def _sparse_dot(c, kernel, x):
    """c.x of one row by its _sparse_kernel, or by the dense dot when x is not finite."""
    return _sparse_dots(kernel, x)[0] if _all_finite(x) else c.dot(x)


def _row_dot(c):
    """The function x -> c.x that the nonzero rule picks for the row c: the
    dense c.dot itself, or c's _sparse_kernel. Built once per row. A row of
    at most one nonzero keeps c.dot: its bits are the kernel's, one product
    summed from +0.0, and alone it costs a fifth of the kernel's."""
    nnz = np.count_nonzero(c)
    if nnz <= 1 or nnz * SPARSE_ROW_RATIO > c.size:
        return c.dot
    return functools.partial(_sparse_dot, c, _sparse_kernel(c[None])[1])


class AffineOracle(ConvexOracle):
    """c.x + d; the subgradient is c everywhere. c.x follows the nonzero
    rule (_row_dot)."""

    def __init__(self, c, d=0.0):
        self.c = _as_vector(c, "c")
        self.d = _as_scalar(d, "d")
        self.dim = self.c.shape[0]
        self._dot = _row_dot(self.c)

    def __call__(self, x):
        return float(self._dot(x)) + self.d, self.c


class AbsAffineOracle(ConvexOracle):
    """|a.x - b| with subgradient sign(a.x - b) * a, sign(0) = +1; a.x
    follows the nonzero rule (_row_dot).

    The sign convention matches MaxOracle's lowest-index tie rule applied
    to the pair {a.x - b, b - a.x}.
    """

    def __init__(self, a, b=0.0):
        self.a = _as_vector(a, "a")
        self.b = _as_scalar(b, "b")
        self.dim = self.a.shape[0]
        self._neg_a = -self.a
        self._dot = _row_dot(self.a)

    def select(self, x):
        r = float(self._dot(x)) - self.b
        if r >= 0.0:
            return r, self.a
        return -r, self._neg_a  # not abs(r): a NaN r comes back negated


class MaxOracle(ConvexOracle):
    """Pointwise maximum of several oracles on the same space.

    The subgradient comes from the lowest-index part attaining the max, a
    valid element of the max-subdifferential. The parts are kept as given:
    a block is one AffineBlockOracle part, and rows given one by one (as
    older documents hold a block) stay one part per row, with the same bits.
    The key keeps every part's key, as SumOracle's does, so a caller can
    read a block part's row values (r in its key) without computing them
    again; the block's ``rows`` stays the only code that computes them.
    """

    def __init__(self, parts):
        self.parts, self.dim = _parts_and_dim(self, parts)
        self._rest = self.parts[1:]  # sliced once: the keys list costs what the slice did

    def select(self, x):
        """(value, (winning part, its key, every part's key in part order))."""
        best = self.parts[0]
        best_v, best_key = best.select(x)
        keys = [best_key]
        for part in self._rest:
            v, key = part.select(x)
            keys.append(key)
            # v > best_v, except that the first NaN wins, as in np.argmax
            if not v <= best_v and best_v == best_v:
                best, best_v, best_key = part, v, key
        return best_v, (best, best_key, keys)

    def subgrad(self, key):
        part, part_key, _ = key
        return part.subgrad(part_key)


class AffineBlockOracle(ConvexOracle):
    """max_j r_j over the rows r = C x + d, or max_j |r_j| when absolute.

    The subgradient is row c_i (times sign(r_i), sign(0) = +1, when
    absolute) of the lowest index i attaining the max, and a NaN row wins.
    So values, subgradients and ties are bit for bit those of a MaxOracle of
    the rows AffineOracle(c_j, d_j), or AbsAffineOracle(c_j, -d_j) when
    absolute (a.x + (-b) has the bits of a.x - b in IEEE arithmetic).
    ``rows`` is the only code that computes stacked row values, and
    ``add_rows`` the only code that adds weighted rows to a vector.

    Each row takes the kernel that the nonzero rule gives it alone, chosen
    once, here: ``rows`` reads the sparse rows by one _sparse_dots call and
    the others by np.vecdot, which computes each c_j.x as c_j.dot(x) does
    (C @ x does not). ``add_rows`` adds the rows in row order, by an axis-0
    reduce of the dense rows or, when every row is sparse, by an ordered
    scatter of their nonzeros; the reduce and the scatter sum from +0.0, and
    a zero term leaves the bits of a sum that is not -0 unchanged, so both
    have the same bits. A non-finite x or active weight, where 0 * inf is
    NaN, takes the dense kernels. C is stored 64-byte aligned; a C that
    already is, such as the problem's A in the max form's equality block, is
    shared, not copied.
    """

    def __init__(self, C, d, absolute=False):
        self.C = _aligned(_as_vector(C, "C", ndim=2))
        self.d = _as_vector(d, "d")
        if self.C.shape[0] != self.d.shape[0] or not self.d.size:
            raise ValueError(f"C must have one row per entry of d, got shape {self.C.shape} "
                             f"for {self.d.size} entries")
        if not isinstance(absolute, (bool, np.bool_)):  # 1 or "true" would pass a truth test
            raise ValueError(f"absolute must be a boolean, got {absolute!r}")
        self.absolute = bool(absolute)
        self.dim = self.C.shape[1]
        # the sparse rows' kernel; (their indices, the other rows' indices and
        # rows) when only some rows are sparse, else the slots that add_rows
        # scatters: (cols, vals, K), flat and row by row, K slots per row
        self._kernel = self._split = self._scatter = None
        sparse = _sparse_kernel(self.C)
        if sparse is not None:
            at, self._kernel = sparse
            if at.size < self.d.size:
                dense = np.flatnonzero(np.bincount(at, minlength=self.d.size) == 0)
                self._split = at, dense, _aligned(self.C[dense])
            else:
                cols, vals, k = self._kernel
                cols, vals = cols.T[:k].ravel(), vals.T[:k].ravel()
                self._scatter = cols, vals, cols.size // k

    def rows(self, x):
        """Every row value r = C x + d."""
        if self._kernel is None or not _all_finite(x):
            return np.vecdot(self.C, x) + self.d
        if self._split is None:
            return _sparse_dots(self._kernel, x) + self.d
        at, dense, c_dense = self._split
        r = np.empty(self.d.size)
        r[at] = _sparse_dots(self._kernel, x)
        r[dense] = np.vecdot(c_dense, x)
        return r + self.d

    def add_rows(self, tx, w, r):
        """tx + w_i c_i over the rows with r_i > 0 and w_i != 0, as a new array
        with the bits of tx = tx + w_i * c_i per row in row order."""
        on = (r > 0.0) & (w != 0.0)
        if self._scatter is not None:
            w_on = w[on]
            if _all_finite(w_on):
                cols, vals, slots = self._scatter
                if slots != 1:  # every slot of an active row, none for zero rows
                    on, w_on = on.repeat(slots), w_on.repeat(slots)
                out = tx + 0.0
                # unbuffered, in index order: row by row, so each column adds in row order
                np.add.at(out, cols[on], w_on * vals[on])
                return out
        return np.add.reduce(np.concatenate((tx[None, :], w[on, None] * self.C[on])), axis=0)

    def select_rows(self, r):
        """The block's rule on given row values r: (value, (r, i, negated)) for
        the lowest row index i attaining the max, a NaN row winning.

        ``select`` is this rule on ``rows(x)``; ``dsg`` applies it to the rows
        it holds at x_bar when their maximum is zero or NaN.
        """
        # ndarray.argmax: np.argmax finds the same index through three Python frames
        i = int((np.abs(r) if self.absolute else r).argmax())
        v = float(r[i])
        if not self.absolute or v >= 0.0:
            return v, (r, i, False)
        return -v, (r, i, True)

    def select(self, x):
        return self.select_rows(self.rows(x))

    def subgrad(self, key):
        _, i, negated = key
        return -self.C[i] if negated else self.C[i]


def _stack_rows(parts):
    """(first index i, rows k, oracle) per part, but one AffineBlockOracle of k
    rows per run of at least ROW_BLOCK_MIN AffineOracle parts."""
    i = 0
    for kind, run in itertools.groupby(parts, type):
        run = list(run)
        rows = run if kind is AffineOracle else ()
        yield from _block_or_rows([o.c for o in rows], [o.d for o in rows], False, run, i)
        i += len(run)


def _block_or_rows(C, d, absolute, rows, i=0):
    """[(i, k, block of the k rows (C, d))] if k >= ROW_BLOCK_MIN, else (j, 0, row) per row."""
    if len(d) >= ROW_BLOCK_MIN:
        return [(i, len(d), AffineBlockOracle(C, d, absolute))]
    return [(j, 0, o) for j, o in enumerate(rows, i)]


class PositivePart(ConvexOracle):
    """max{f(x), 0} with the zero subgradient wherever f(x) <= 0; a NaN f(x) is kept.

    Zero is a valid selection from conv(subdiff(f) | {0}) at f(x) = 0 and
    from {0} when f(x) < 0; choosing it keeps multiplier updates inert on
    exactly-satisfied constraints.
    """

    def __init__(self, arg):
        self.arg = arg
        self.dim = arg.dim
        self._zero = np.zeros(self.dim)

    def select(self, x):
        v, key = self.arg.select(x)
        if not v <= 0.0:  # a NaN f(x) stays NaN, as in MaxOracle
            return v, key
        return 0.0, self._zero  # the key of the zero selection is the zero subgradient

    def subgrad(self, key):
        return key if key is self._zero else self.arg.subgrad(key)


class SumOracle(ConvexOracle):
    """Sum of several oracles; values and subgradients add."""

    def __init__(self, parts):
        self.parts, self.dim = _parts_and_dim(self, parts)

    def select(self, x):
        total_v, key = self.parts[0].select(x)
        keys = [key]
        for part in self.parts[1:]:
            v, key = part.select(x)
            total_v += v
            keys.append(key)
        return total_v, keys

    def subgrad(self, keys):
        total_g = np.array(self.parts[0].subgrad(keys[0]), dtype=float)
        for part, key in zip(self.parts[1:], keys[1:]):
            total_g += part.subgrad(key)
        return total_g


class _CoordsOracle(ConvexOracle):
    """An oracle that reads only x[coords], an index array of distinct coordinates.

    When coords form one ascending run a..b-1, x is read and the subgradient
    written through the slice a:b, and when they are every coordinate in
    order the entries on coords are the subgradient itself. Either way the
    bits are those of indexing by coords and scattering into zeros, for a
    contiguous x such as every solver passes (a BLAS dot over a strided
    view may add in another order).
    """

    def _set_coords(self, dim, coords):
        self.dim = _as_int(dim, "dim")
        if self.dim < 0:
            raise ValueError(f"dim must be nonnegative, got {dim!r}")
        self.coords = _as_coords(coords, self.dim)
        c = self.coords
        run = c.size > 0 and bool((c[1:] - c[:-1] == 1).all())
        self._at = slice(int(c[0]), int(c[-1]) + 1) if run else c
        self._all = run and c.size == self.dim

    def _spread(self, gc):
        """The dim-vector with the fresh array gc on coords and zeros elsewhere."""
        if self._all:
            return gc
        g = np.zeros(self.dim)
        g[self._at] = gc
        return g


class Norm1Oracle(_CoordsOracle):
    """sum_j |x_j| over the given coordinates, plus a constant offset.

    Subgradient entry is sign(x_j) with sign(0) = +1, matching the abs
    convention above.
    """

    def __init__(self, dim, coords=None, offset=0.0):
        self._set_coords(dim, coords)
        self.offset = _as_scalar(offset, "offset")

    def select(self, x):
        xc = x[self._at]
        # np.add.reduce is what ndarray.sum runs, without its Python wrapper
        return float(np.add.reduce(np.abs(xc))) + self.offset, xc

    def subgrad(self, xc):
        return self._spread(np.where(xc >= 0.0, 1.0, -1.0))


class SqNormOracle(_CoordsOracle):
    """scale * sum_j x_j^2 over the given coordinates (smooth); scale >= 0."""

    def __init__(self, dim, coords=None, scale=1.0):
        self._set_coords(dim, coords)
        self.scale = _as_scale(scale)

    def select(self, x):
        xc = x[self._at]
        return self.scale * float(xc.dot(xc)), xc

    def subgrad(self, xc):
        return self._spread((2.0 * self.scale) * xc)


class HingeSumOracle(_CoordsOracle):
    """scale * sum_i max{0, 1 - labels_i * x[coords_i]}, vectorized; scale >= 0.

    At a kink (margin exactly 0) the zero selection is used, consistent
    with PositivePart.
    """

    def __init__(self, dim, coords, labels, scale=1.0):
        self._set_coords(dim, coords)
        self.labels = _as_vector(labels, "labels")
        if self.coords.shape != self.labels.shape:
            raise ValueError("coords and labels must have equal length")
        self.scale = _as_scale(scale)
        self._slopes = -self.scale * self.labels  # the subgradient on active coords

    def select(self, x):
        margins = 1.0 - self.labels * x[self._at]
        active = margins > 0.0
        return self.scale * float(np.add.reduce(margins[active])), active

    def subgrad(self, active):
        return self._spread(np.where(active, self._slopes, 0.0))


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

    def select(self, x):
        t = float(x[self.index]) + self.shift
        if not t < LOG_SAFEGUARD:  # NaN takes this branch and stays NaN
            return -math.log(t) + self.offset, -1.0 / t
        return -math.log(LOG_SAFEGUARD) + self.offset, -1.0 / LOG_SAFEGUARD

    def subgrad(self, slope):
        g = np.zeros(self.dim)
        g[self.index] = slope
        return g


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
