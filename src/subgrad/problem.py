"""Constrained problem container, feasibility metrics, the saddle
direction shared by the dual and primal-dual solvers, and the
single-max-constraint reformulation.

A problem is min f0(x) subject to f_i(x) <= 0 (i = 1..m) and A x = b.
Infeasibility of a point is measured as ||F(x)||_2 + ||A x - b||_2 where
F_i(x) = max{f_i(x), 0}; the alternative single-constraint form replaces
all constraints by fbar(x) = max{f_1, ..., f_m, |a_1.x - b_1|, ...} <= 0,
evaluated one block per run of at least ROW_BLOCK_MIN affine rows.
"""

from __future__ import annotations

import itertools

import numpy as np

from .oracles import (AbsAffineOracle, AffineBlockOracle, AffineOracle, MaxOracle,
                      _as_vector, euclidean_norm, norm_power_subgrad)

__all__ = [
    "ConstrainedProblem",
    "ROW_BLOCK_MIN",
    "SADDLE_TOL",
    "max_constraint_oracle",
    "saddle_direction",
    "single_constraint_form",
    "start_point",
]

# A saddle direction of norm at or below this certifies a saddle-point
# candidate; the solvers divide by the norm, which is undefined at zero.
SADDLE_TOL = 1e-14

# Fewest consecutive affine rows that fbar evaluates as one AffineBlockOracle.
# A block call costs about 5 us and a per-row part 1.5 us, so shorter runs
# stay one part per row.
ROW_BLOCK_MIN = 4


class ConstrainedProblem:
    """Objective oracle, inequality oracles, and dense equality pair (A, b).

    m = 0 and l = 0 are both legal (the problem degenerates gracefully to
    fewer constraint blocks); an A that is None, [] or a matrix with no
    entries means no equality rows, and b defaults to zeros. All oracles
    must share the ambient dimension. A and b follow the number rule of
    oracle fields: every entry is a finite number, never a string or a
    boolean.
    """

    def __init__(self, f0, ineq=(), A=None, b=None):
        self.f0 = f0
        self.ineq = list(ineq)
        self.n = f0.dim
        no_rows = A is None or isinstance(A, (list, tuple)) and not A
        A = np.zeros((0, self.n)) if no_rows else _as_vector(A, "A", ndim=2)
        self.A = A if A.size else np.zeros((0, self.n))
        self.b = np.zeros(self.A.shape[0]) if b is None else _as_vector(b, "b")
        if self.A.shape[1] != self.n:
            raise ValueError(
                f"A has {self.A.shape[1]} columns but the problem dimension is {self.n}")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError(
                f"b has shape {self.b.shape}, expected ({self.A.shape[0]},)")
        for i, o in enumerate(self.ineq):
            if o.dim != self.n:
                raise ValueError(
                    f"inequality oracle {i} has dim {o.dim}, expected {self.n}")
        self.m = len(self.ineq)
        self.l = self.A.shape[0]

    def eval_ineq(self, x):
        """Raw values f_i(x) and their subgradients, as (values, grads)."""
        vals = np.empty(self.m)
        grads = []
        for i, o in enumerate(self.ineq):
            v, g = o(x)
            vals[i] = v
            grads.append(g)
        return vals, grads

    def violation_vector(self, x):
        """Componentwise max{f_i(x), 0}; empty when m = 0."""
        if self.m == 0:
            return np.zeros(0)
        vals = np.empty(self.m)
        for i, o in enumerate(self.ineq):
            vals[i] = o(x)[0]
        return np.maximum(vals, 0.0)

    def infeasibility(self, x):
        """||max{f(x), 0}||_2 + ||A x - b||_2; zero exactly when x is feasible."""
        total = 0.0
        if self.m:
            total += euclidean_norm(self.violation_vector(x))
        if self.l:
            total += euclidean_norm(self.A @ x - self.b)
        return total

    def __repr__(self):
        return f"ConstrainedProblem(n={self.n}, m={self.m}, l={self.l})"


def max_constraint_oracle(problem):
    """Single oracle for max{f_1, ..., f_m, |a_1.x - b_1|, ..., |a_l.x - b_l|}.

    Parts keep the problem's listing order (inequalities first, then the
    equality rows) so the lowest-index tie rule is reproducible. Each run
    of at least ROW_BLOCK_MIN consecutive AffineOracle inequalities becomes
    one AffineBlockOracle, and so do the l absolute residuals when
    l >= ROW_BLOCK_MIN; shorter runs keep one part per row. Either way the
    values and subgradients are the same bits. Requires m + l >= 1.
    """
    parts = []
    for affine, run in itertools.groupby(problem.ineq, lambda o: type(o) is AffineOracle):
        run = list(run)
        if affine and len(run) >= ROW_BLOCK_MIN:
            parts.append(AffineBlockOracle([o.c for o in run], [o.d for o in run]))
        else:
            parts += run
    if problem.l >= ROW_BLOCK_MIN:
        parts.append(AffineBlockOracle(problem.A, -problem.b, absolute=True))
    else:
        parts += map(AbsAffineOracle, problem.A, problem.b)
    if not parts:
        raise ValueError("the max-constraint form needs at least one constraint; "
                         "the problem has m = l = 0")
    return MaxOracle(parts)


def single_constraint_form(problem):
    """Equivalent problem with the one constraint fbar(x) <= 0 and no equalities."""
    return ConstrainedProblem(problem.f0, [max_constraint_oracle(problem)])


def start_point(problem, x0=None, lam0=None, nu0=None):
    """Concatenated start z0 = (x0, lam0, nu0); a block left as None is zero.

    Raises ValueError naming the block whose shape is not (n,), (m,) or
    (l,) for the problem, and on a negative entry of lam0.
    """
    blocks = []
    for name, v, size in (("x0", x0, problem.n), ("lam0", lam0, problem.m),
                          ("nu0", nu0, problem.l)):
        v = np.zeros(size) if v is None else np.asarray(v, dtype=float)
        if v.shape != (size,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({size},)")
        blocks.append(v)
    if problem.m and np.min(blocks[1]) < 0.0:
        raise ValueError("multipliers for inequalities must be nonnegative")
    return np.concatenate(blocks)


def saddle_direction(problem, z, rho=0.0, s_exp=2.0):
    """Subgradient selection of the penalized Lagrangian at the concatenated
    z = (x, lam, nu), and the objective value f0(x) computed on the way.

    Returns (T, f0(x)) where F_i(x) = max{f_i(x), 0} and

        T  = (Tx, -F(x), b - Ax),
        Tx = g0 + sum_{F_i > 0} (lam_i + rho p_i) g_i + A^T (nu + rho q),

    with p and q the subgradients of ||.||_2^s_exp at F(x) and at Ax - b.
    At rho = 0 the penalty terms are skipped and T is the plain saddle
    direction of the Lagrangian, G = (Gx, -F(x), b - Ax). F(x) and Ax - b
    are the negated blocks T[n:n+m] and T[n+m:].
    """
    n, m, l = problem.n, problem.m, problem.l
    x = z[:n]
    # Tx is summed by rebinding tx, never in place: it starts as the
    # objective oracle's own subgradient array
    f0_val, tx = problem.f0(x)
    t = np.empty(n + m + l)
    penalized = []
    # j indexes row i = j - n of F in both t and z = (x, lam, nu)
    for j, oracle in enumerate(problem.ineq, n):
        v, g = oracle(x)
        if v > 0.0:
            t[j] = -v
            if rho != 0.0:
                penalized.append((j, g))
            elif z[j] != 0.0:
                tx = tx + z[j] * g
        else:
            t[j] = 0.0 if v <= 0.0 else -v  # a NaN value stays NaN in F
    if penalized:
        pen = norm_power_subgrad(-t[n:n + m], s_exp)
        for j, g in penalized:
            w = z[j] + rho * pen[j - n]
            if w != 0.0:
                tx = tx + w * g
    if l:
        nu = z[n + m:]
        r = problem.A @ x - problem.b
        if rho != 0.0:
            nu = nu + rho * norm_power_subgrad(r, s_exp)
        tx = tx + problem.A.T @ nu
        t[n + m:] = -r
    t[:n] = tx
    return t, f0_val
