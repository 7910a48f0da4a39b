"""Small dense LP solver used as an independent ground-truth oracle.

Two-phase primal simplex on a dense tableau with Bland's anti-cycling
rule. Built for desk-scale certification runs (thousands of nonzeros, not
millions): correctness and a termination guarantee matter here, speed comes
second.

Pricing, the ratio test and the drive-out of artificials scan the tableau
by array expressions. The pivot still updates one row at a time, over the
rows with a nonzero entry in the pivot column: a rank-1 update of the same
rows gives the same bits, but its gather and scatter copies made the
2,150-column case1 n=1000 tableau about 5x slower.

``encode_case1`` and ``encode_lad`` map the benchmark problem families
onto LpProblem instances (split variables for the l1 terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import _as_numbers, _as_rows, _as_vector

__all__ = [
    "LpProblem",
    "LpResult",
    "lp_solve_small",
    "encode_case1",
    "encode_lad",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "NUMERICAL_LIMIT",
]

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
NUMERICAL_LIMIT = "NUMERICAL_LIMIT"

# Zero tolerance of pricing, the ratio test, the phase-1 check and the drive-out
TOL = 1e-9


@dataclass
class LpProblem:
    """min c.x subject to A_eq x = b_eq and lower <= x <= upper (+-inf ok).

    c, A_eq and b_eq follow the number rule of oracle fields: finite
    numbers, never strings or booleans. An empty A_eq ([] or shape (0, n))
    means no rows; any other A_eq is 2-D with n columns. The bounds are
    numbers too, infinite only on their own side, and never NaN.
    """

    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        n = self.c.shape[0]
        self.A_eq = _as_rows(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, "b_eq")
        if self.b_eq.shape != (self.A_eq.shape[0],):
            raise ValueError("A_eq and b_eq disagree on row count")
        self.lower = _as_numbers(self.lower, "lower")
        self.upper = _as_numbers(self.upper, "upper")
        for name, v, wrong in (("lower", self.lower, np.inf), ("upper", self.upper, -np.inf)):
            if v.shape != (n,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
            if np.isnan(v).any() or (v == wrong).any():
                raise ValueError(f"{name} has a NaN or {wrong} entry")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None
    dual_obj: float | None = None
    n_pivots: int = 0


def _standardize(lp):
    """Rewrite as min c_std.u, A_std u = b_std, u >= 0, value offset const.

    Variables are shifted by a finite lower bound, flipped around a finite
    upper bound, or split into u+ - u- when free. Two-sided bounds add a
    row u + slack = upper - lower. Column k of A_std holds sign[k] times
    variable var[k].
    """
    lo_fin, up_fin = np.isfinite(lp.lower), np.isfinite(lp.upper)
    free = ~(lo_fin | up_fin)
    shift = np.where(lo_fin, lp.lower, np.where(up_fin, lp.upper, 0.0))
    var = np.repeat(np.arange(lp.c.size), np.where(free, 2, 1))
    # minus: flipped around an upper bound, or the u- column of a free variable
    minus = ~lo_fin[var] & up_fin[var] | np.r_[False, var[1:] == var[:-1]]
    sign = np.where(minus, -1.0, 1.0)
    ranged = np.flatnonzero((lo_fin & up_fin)[var])  # std columns that get a slack row
    n_main, n_slack = var.size, ranged.size
    meq = lp.A_eq.shape[0]

    A = np.zeros((meq + n_slack, n_main + n_slack))
    A[:meq, :n_main] = sign * lp.A_eq[:, var]
    A[meq + np.arange(n_slack), ranged] = 1.0
    A[meq:, n_main:] = np.eye(n_slack)
    ranged_var = var[ranged]
    b = np.concatenate([lp.b_eq - lp.A_eq @ shift, lp.upper[ranged_var] - lp.lower[ranged_var]])
    c = np.concatenate([sign * lp.c[var], np.zeros(n_slack)])
    const = float(lp.c @ shift)
    return A, b, c, var, sign, shift, const


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    piv = tab[row]
    for i in np.flatnonzero(tab[:, col]):
        if i != row:
            tab[i] -= tab[i, col] * piv
    basis[row] = col


def _run_phase(tab, basis, cost_row, allowed, max_pivots, pivots):
    """Bland-rule pivoting until the given cost row is optimal.

    Returns (status, n_pivots) with status OPTIMAL, UNBOUNDED or
    NUMERICAL_LIMIT (a pivot is due once max_pivots are made). ``allowed``
    marks columns that may enter; ``pivots`` counts the pivots made before
    this phase.
    """
    m = len(basis)
    while True:
        # Bland: the lowest allowed column with a negative reduced cost enters
        entering = np.flatnonzero(allowed & (tab[cost_row, :-1] < -TOL))
        if not entering.size:
            return OPTIMAL, pivots
        enter = entering[0]
        rows = np.flatnonzero(tab[:m, enter] > TOL)
        if not rows.size:
            return UNBOUNDED, pivots
        if pivots >= max_pivots:  # a pivot is due, and max_pivots are made
            return NUMERICAL_LIMIT, pivots
        ratios = tab[rows, -1] / tab[rows, enter]
        # The lowest ratio leaves, a tie within 1e-15 going to the lower
        # basis index. The scan runs in row order, as ties can chain.
        leave, ratio = rows[0], ratios[0]
        for i, r in zip(rows[1:].tolist(), ratios[1:].tolist()):
            if r < ratio - 1e-15 or (abs(r - ratio) <= 1e-15 and basis[i] < basis[leave]):
                leave, ratio = i, r
        _pivot(tab, basis, leave, enter)
        pivots += 1


def lp_solve_small(lp, max_pivots=10**6):
    """Two-phase dense simplex with Bland's rule.

    Returns an LpResult whose status is OPTIMAL, INFEASIBLE, UNBOUNDED, or
    NUMERICAL_LIMIT (a pivot is due once max_pivots are made). On OPTIMAL
    the primal solution is clipped onto its bounds, and dual_obj carries the
    dual objective of the standardized system for a strong-duality spot
    check.
    """
    A, b, c, var, sign, shift, const = _standardize(lp)
    m, n_std = A.shape

    # Normalize to b >= 0 so the artificial basis is feasible.
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    n_tot = n_std + m  # artificials appended
    tab = np.zeros((m + 2, n_tot + 1))
    tab[:m, :n_std] = A
    tab[:m, n_std:n_tot] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n_std] = c                      # phase-2 costs
    # Phase-1 costs (sum of artificials), reduced against the artificial basis.
    tab[m + 1, :n_std] = -A.sum(axis=0)
    tab[m + 1, -1] = -b.sum()
    basis = list(range(n_std, n_tot))

    allowed = np.ones(n_tot, dtype=bool)
    status, pivots = _run_phase(tab, basis, m + 1, allowed, max_pivots, 0)
    if status != OPTIMAL:
        # The phase-1 objective is bounded below by zero, so UNBOUNDED here
        # means the tableau degraded numerically.
        return LpResult(NUMERICAL_LIMIT, None, None, n_pivots=pivots)
    scale = 1.0 + float(np.linalg.norm(b))
    if -tab[m + 1, -1] > TOL * scale:
        return LpResult(INFEASIBLE, None, None, n_pivots=pivots)

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # on any structural column are redundant and get dropped.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_std:
            target = np.flatnonzero(np.abs(tab[i, :n_std]) > TOL)
            if target.size:
                _pivot(tab, basis, i, target[0])
                pivots += 1
            else:
                keep[i] = False
    tab = tab[np.r_[np.flatnonzero(keep), m, m + 1]]
    basis = [bi for bi, k in zip(basis, keep) if k]
    m = len(basis)

    allowed[n_std:] = False
    status, pivots = _run_phase(tab, basis, m, allowed, max_pivots, pivots)
    if status != OPTIMAL:
        return LpResult(status, None, None, n_pivots=pivots)

    # After the drive-out pass every kept basis entry is structural. Its value
    # is clipped at 0 as by Python's max(v, 0.0), which keeps a -0.0.
    u = np.zeros(n_std)
    u[basis] = np.where(tab[:m, -1] < 0.0, 0.0, tab[:m, -1])
    x = shift.copy()
    np.add.at(x, var, sign * u[:var.size])  # in column order, so u+ before u-
    x = np.clip(x, lp.lower, lp.upper)
    value = float(lp.c @ x)

    # Dual objective of the standardized system (y solves B^T y = c_B);
    # together with dual feasibility this certifies optimality.
    try:
        y = np.linalg.solve(A[keep][:, basis].T, c[basis])
        dual_obj = float(y @ b[keep]) + const
    except np.linalg.LinAlgError:
        dual_obj = None

    return LpResult(OPTIMAL, x, value, dual_obj=dual_obj, n_pivots=pivots)


def encode_case1(problem):
    """LP for min c.x over the unit l1 ball intersected with A x = b.

    Uses x = xp - xm with xp, xm >= 0 and sum(xp + xm) + t = 1, t >= 0.
    The first n entries of the LP solution are xp, the next n are xm.
    """
    c = getattr(problem.f0, "c", None)
    if c is None:
        raise ValueError("encode_case1 needs a linear objective oracle")
    n = problem.n
    l = problem.l
    c_lp = np.concatenate([c, -c, [0.0]])
    A_lp = np.zeros((l + 1, 2 * n + 1))
    A_lp[:l, :n] = problem.A
    A_lp[:l, n:2 * n] = -problem.A
    A_lp[l, :2 * n] = 1.0
    A_lp[l, 2 * n] = 1.0
    b_lp = np.concatenate([problem.b, [1.0]])
    lower = np.zeros(2 * n + 1)
    upper = np.full(2 * n + 1, np.inf)
    return LpProblem(c_lp, A_lp, b_lp, lower, upper)


def encode_lad(problem, nbar):
    """LP for min ||D x - w||_1 given its slack formulation (variables x, y).

    Recovers D and w from the equality block (A = [-D | I], b = -w) and
    splits the residual: min sum(yp + ym) s.t. D x - yp + ym = w, x free.
    """
    D = -problem.A[:, :nbar]
    w = -problem.b
    rows = D.shape[0]
    if problem.m != 0 or problem.n != nbar + rows or not np.array_equal(
            problem.A[:, nbar:], np.eye(rows)):
        raise ValueError("problem does not have the expected slack-form shape")
    c_lp = np.concatenate([np.zeros(nbar), np.ones(2 * rows)])
    A_lp = np.zeros((rows, nbar + 2 * rows))
    A_lp[:, :nbar] = D
    A_lp[:, nbar:nbar + rows] = -np.eye(rows)
    A_lp[:, nbar + rows:] = np.eye(rows)
    lower = np.concatenate([np.full(nbar, -np.inf), np.zeros(2 * rows)])
    upper = np.full(nbar + 2 * rows, np.inf)
    return LpProblem(c_lp, A_lp, w, lower, upper)
