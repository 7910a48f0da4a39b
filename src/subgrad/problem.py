"""Constrained problem container, feasibility metrics, the saddle
direction shared by the dual and primal-dual solvers, and the
single-max-constraint reformulation.

A problem is min f0(x) subject to f_i(x) <= 0 (i = 1..m) and A x = b.
Infeasibility of a point is measured as ||F(x)||_2 + ||A x - b||_2 where
F_i(x) = max{f_i(x), 0}; the alternative single-constraint form replaces
all constraints by fbar(x) = max{f_1, ..., f_m, |a_1.x - b_1|, ...} <= 0.

Runs of affine inequality rows are stacked once, by oracles._stack_rows, and
read as one block by F(x), the saddle direction and fbar, with per-row bits:
each row by its nonzeros when it has few, densely otherwise
(AffineBlockOracle). The equality rows are stacked by the same rule into
fbar's absolute part, once per problem.
Equality rows in slack form, A = [B | I] with the last l columns exactly the
identity, are detected once and read as B by A x - b and A^T nu; fbar reads
them as rows, by the same nonzero rule as every other row.
"""

from __future__ import annotations

import functools

import numpy as np

from .oracles import (AbsAffineOracle, MaxOracle, _aligned, _as_rows, _as_vector,
                      _block_or_rows, _stack_rows, euclidean_norm, norm_power_subgrad)

__all__ = [
    "ConstrainedProblem",
    "SADDLE_TOL",
    "max_constraint_oracle",
    "saddle_direction",
    "single_constraint_form",
    "start_point",
]

# A saddle direction of norm at or below this certifies a saddle-point
# candidate; the solvers divide by the norm, which is undefined at zero.
SADDLE_TOL = 1e-14


class ConstrainedProblem:
    """Objective oracle, inequality oracles, and dense equality pair (A, b).

    m = 0 and l = 0 are both legal (the problem degenerates gracefully to
    fewer constraint blocks); an A that is None, [] or of shape (0, n) means
    no equality rows, any other A must be 2-D with n columns, and b defaults
    to zeros. All oracles must share the ambient dimension. A and b follow
    the number rule of oracle fields: every entry is a finite number, never
    a string or a boolean.

    ``ineq`` stays one oracle per row; violation_vector and saddle_direction
    read its stacked AffineOracle runs (AbsAffineOracles stay single rows).

    ``A`` stays dense. When its last l columns are exactly the identity, the
    problem also keeps B = A[:, :n-l], 64-byte aligned, and ``residual`` and
    ``adjoint`` read A x - b and A^T nu through it, in another order of
    summation than the dense product; any other A is read densely.
    """

    def __init__(self, f0, ineq=(), A=None, b=None):
        self.f0 = f0
        self.ineq = list(ineq)
        self.n = f0.dim
        self.A = _as_rows([] if A is None else A, self.n, "A")
        self.b = np.zeros(self.A.shape[0]) if b is None else _as_vector(b, "b")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError(
                f"b has shape {self.b.shape}, expected ({self.A.shape[0]},)")
        for i, o in enumerate(self.ineq):
            if o.dim != self.n:
                raise ValueError(
                    f"inequality oracle {i} has dim {o.dim}, expected {self.n}")
        self.m = len(self.ineq)
        self.l = self.A.shape[0]
        # ineq as evaluated, as (first row i, rows k, oracle), k = 0 for one row;
        # AbsAffineOracle runs stay single rows, as F(x) reads signed rows
        self._blocks = list(_stack_rows(self.ineq))
        # B of a slack-form A = [B | I]: l nonzeros in the tail, all 1.0 on its diagonal
        self._B = None
        p = self.n - self.l
        if self.l and p >= 0:
            tail = self.A[:, p:]
            if np.count_nonzero(tail) == self.l and (tail.diagonal() == 1.0).all():
                self._B = _aligned(self.A[:, :p])

    @functools.cached_property
    def _eq_parts(self):
        """The equality rows as fbar's parts: one absolute block (A, -b), or one
        AbsAffineOracle per row. Built once per problem, when a max form first
        asks, since each solve of sg or sdsg builds a max form."""
        return [o for _, _, o in _block_or_rows(
            self.A, -self.b, True, map(AbsAffineOracle, self.A, self.b))]

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
        vals = np.empty(self.m)
        for i, k, o in self._blocks:
            if k:
                vals[i:i + k] = o.rows(x)
            else:
                vals[i] = o.select(x)[0]
        return np.maximum(vals, 0.0)

    def infeasibility(self, x, residual=None):
        """||max{f(x), 0}||_2 + ||A x - b||_2; zero exactly when x is feasible.

        ``residual``, when given, is A x - b as the caller already holds it,
        and stands in for the product; ``dsg`` reads it off its dual sum.
        """
        total = 0.0
        if self.m:
            total += euclidean_norm(self.violation_vector(x))
        if self.l:
            total += euclidean_norm(self.residual(x) if residual is None else residual)
        return total

    def residual(self, x):
        """A x - b, as B x[:p] + x[p:] - b when A = [B | I] (p = n - l); with
        ``adjoint``, the only product with A that the solvers make."""
        if self._B is None:
            return self.A @ x - self.b
        p = self.n - self.l
        return self._B @ x[:p] + x[p:] - self.b

    def adjoint(self, nu):
        """A^T nu; (B^T nu, nu) when A = [B | I]."""
        if self._B is None:
            return self.A.T @ nu
        return np.concatenate((self._B.T @ nu, nu))

    def _add_adjoint(self, tx, nu, out):
        """Write tx + adjoint(nu) into out. For A = [B | I], B^T nu and nu are
        added to the two slices of tx, the same bits without building A^T nu,
        unless a subclass reads the product by its own adjoint."""
        if self._B is None or type(self).adjoint is not ConstrainedProblem.adjoint:
            np.add(tx, self.adjoint(nu), out=out)
        else:
            p = self.n - self.l
            np.add(tx[:p], self._B.T @ nu, out=out[:p])
            np.add(tx[p:], nu, out=out[p:])

    def __repr__(self):
        return f"ConstrainedProblem(n={self.n}, m={self.m}, l={self.l})"


def max_constraint_oracle(problem):
    """Single oracle for max{f_1, ..., f_m, |a_1.x - b_1|, ..., |a_l.x - b_l|}.

    Parts keep the problem's listing order (inequalities first, then the
    equality rows) so the lowest-index tie rule is reproducible: the stacked
    inequality runs of the problem, then the equality rows, stacked by the
    same rule as one block (A, -b), with per-row bits; the problem builds
    these parts once, so a max form costs no pass over A. Requires m + l >= 1.
    """
    parts = [o for _, _, o in problem._blocks] + problem._eq_parts
    if not parts:
        raise ValueError("the max-constraint form needs at least one constraint; "
                         "the problem has m = l = 0")
    return MaxOracle(parts)


def single_constraint_form(problem):
    """Equivalent problem with the one constraint fbar(x) <= 0 and no equalities."""
    return ConstrainedProblem(problem.f0, [max_constraint_oracle(problem)])


def start_point(problem, x0=None, lam0=None, nu0=None):
    """Concatenated start z0 = (x0, lam0, nu0); a block left as None is zero.

    Raises ValueError naming a block that breaks the number rule of oracle
    fields or whose shape is not (n,), (m,) or (l,), and on a negative lam0.
    """
    blocks = []
    for name, v, size in (("x0", x0, problem.n), ("lam0", lam0, problem.m),
                          ("nu0", nu0, problem.l)):
        v = np.zeros(size) if v is None else _as_vector(v, name, ndim=np.ndim(v))
        if v.shape != (size,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({size},)")
        blocks.append(v)
    if problem.m and np.min(blocks[1]) < 0.0:
        raise ValueError("multipliers for inequalities must be nonnegative")
    return np.concatenate(blocks)


def saddle_direction(problem, z, rho=0.0, s_exp=2.0, keys=None, value=True):
    """Subgradient selection of the penalized Lagrangian at the concatenated
    z = (x, lam, nu), and the objective value f0(x) computed on the way.

    Returns (T, f0(x)) where F_i(x) = max{f_i(x), 0} and

        T  = (Tx, -F(x), b - Ax),
        Tx = g0 + sum_{F_i > 0} w_i g_i + A^T (nu + rho q),

    with p and q the subgradients of ||.||_2^s_exp at F(x) and at Ax - b,
    and w = lam + rho p (w = lam at rho = 0, where T is the plain saddle
    direction G of the Lagrangian). F(x) and Ax - b are -T[n:n+m], -T[n+m:].
    Ax - b and A^T (...) are problem.residual and problem.adjoint, which read
    a slack-form A = [B | I] as B; problem._add_adjoint adds the adjoint to
    Tx, for a slack-form A slice by slice, with the bits of adding it.
    With ``value=False``, as ``dsg`` calls it, f0(x) is returned as None and
    the objective's subgradient is read by ``f0._subgrad_at(x)``, which has
    the bits of ``f0(x)[1]`` and skips the reductions that the value needs.

    One walk over the inequality rows writes -F(x) and keeps every stacked
    run of affine rows (read by AffineBlockOracle.rows) and every single
    row with f_i(x) > 0; a run's -F is written as min{-r, 0}, by two
    passes into T. A kept single row holds its selection key until it
    is added, so only a row with f_i(x) > 0 and w_i != 0 builds its
    subgradient. Then w is formed once, and one loop adds the kept rows to
    Tx in row order, a run by AffineBlockOracle.add_rows, so T has the bits
    of one oracle call per row. A run of sparse rows, such as case 2's box,
    is read by a gather and added by an ordered scatter of its nonzeros, a
    dense run by np.vecdot and an axis-0 reduce; both have per-row bits.

    ``keys``, when a list, receives the selection key of every single row in
    row order: on the max form, fbar's key, which ``dsg`` reads its row sums
    from.
    """
    n, m, l = problem.n, problem.m, problem.l
    x = z[:n]
    # Tx is summed by rebinding tx, never in place: it starts as the
    # objective oracle's own subgradient array
    if value:
        f0_val, tx = problem.f0(x)
    else:
        f0_val, tx = None, problem.f0._subgrad_at(x)
    t = np.empty(n + m + l)
    kept = []  # (row i of F, rows k or 0 for a single row, oracle, its rows r or its key)
    for i, k, oracle in problem._blocks:
        j = n + i
        if k:
            v = held = oracle.rows(x)
            # -F = min{-v, 0}, +0.0 where v <= 0 and NaN where v is (np.where's bits)
            f = t[j:j + k]
            np.negative(v, out=f)
            np.minimum(f, 0.0, out=f)
        else:
            v, held = oracle.select(x)
            t[j] = 0.0 if v <= 0.0 else -v
            if keys is not None:
                keys.append(held)
        if k or v > 0.0:
            kept.append((i, k, oracle, held))
    if kept:
        w = z[n:n + m]
        if rho != 0.0:
            w = w + rho * norm_power_subgrad(-t[n:n + m], s_exp)
        for i, k, oracle, held in kept:
            if k:
                tx = oracle.add_rows(tx, w[i:i + k], held)
            elif w[i] != 0.0:
                tx = tx + w[i] * oracle.subgrad(held)
    if l:
        nu = z[n + m:]
        r = problem.residual(x)
        if rho != 0.0:
            nu = nu + rho * norm_power_subgrad(r, s_exp)
        problem._add_adjoint(tx, nu, t[:n])
        np.negative(r, out=t[n + m:])
    else:
        t[:n] = tx
    return t, f0_val
