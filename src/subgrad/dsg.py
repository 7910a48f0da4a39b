"""Dual subgradient method with weighted dual averages.

The iterate z = (x, lambda, nu) is driven by the running sum of normalized
saddle directions G(z) = (Gx, -Glam, -Gnu), where Gx is a subgradient of
the Lagrangian in x, Glam = max{f(x), 0} componentwise, and Gnu = A x - b.
G is the penalized PDS selection T at rho = 0; both solvers take it from
``problem.saddle_direction``. Each step does

    s    += G / ||G||
    z     = z0 - s / beta
    beta += 1 / beta
    delta += 1 / ||G||
    x_hat += x / ||G||          (x taken before the z update)
    R     += r / ||G||          (mode "single": per row block of fbar)

and reports the weighted primal average x_bar = x_hat / delta. An affine
function at x_bar is the same weighted sum of its values at the x_j
(Nesterov 2009), so rows the direction already read at x_j give their
values at x_bar without a product. The nu block of s sums the direction's
block b - A x_j, so A x_bar - b = -s[n+m:] / delta. On the max form, R
sums the rows r = C x_j + d of an AffineBlockOracle part of fbar, which
fbar's key holds, so C x_bar + d = R / delta, and the part's value at
x_bar, the block's rule on that, is one reduction over R. So fbar is read
at x_bar by one walk over its parts, blocks first, which forms x_bar only
for a part of another kind or for f0 (``_fbar_at_x_bar``).

Two entry points share this machinery: mode "multi" runs on the native
constraints; mode "single" first collapses them into one max constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reports
from .oracles import AffineBlockOracle, euclidean_norm
from .problem import SADDLE_TOL, saddle_direction, single_constraint_form, start_point

__all__ = ["DsgState", "init_state", "step", "solve"]


@dataclass(slots=True)
class DsgState:
    """Mutable per-run state; z is stored concatenated in ``z_arr``.

    ``row_sums`` holds (j, R) per AffineBlockOracle part j of the one row of
    a max form, R summing that part's rows r / ||G|| as x_hat sums x / ||G||;
    it is empty unless ``solve`` sets it in mode "single".
    """

    z0: np.ndarray
    z_arr: np.ndarray
    s_acc: np.ndarray
    x_hat: np.ndarray
    beta: float = 1.0
    delta: float = 0.0
    row_sums: list = field(default_factory=list)

    @property
    def x_bar(self):
        """Weighted primal average x_hat / delta, once a step has been taken."""
        return self.x_hat / self.delta


def init_state(problem, x0=None, lam0=None, nu0=None):
    z0 = start_point(problem, x0, lam0, nu0)
    return DsgState(
        z0=z0,
        z_arr=z0.copy(),
        s_acc=np.zeros(z0.size),
        x_hat=np.zeros(problem.n),
    )


def step(problem, state):
    """One dual-averaging update in place. Returns False on saddle termination."""
    keys = [] if state.row_sums else None
    g = saddle_direction(problem, state.z_arr, keys=keys)[0]
    gnorm = euclidean_norm(g)
    if gnorm <= SADDLE_TOL:
        return False
    x_prev = state.z_arr[:problem.n]
    state.s_acc += g / gnorm
    state.z_arr = state.z0 - state.s_acc / state.beta
    state.delta += 1.0 / gnorm
    # rebound, not updated in place: numpy's in-place path is about twice
    # as slow on a length-1 array (n = 1), and no faster on short ones
    state.x_hat = state.x_hat + x_prev / gnorm
    if keys:
        part_keys = keys[0][2]  # fbar's key: (winner, its key, every part's key)
        for j, acc in state.row_sums:
            acc += part_keys[j][0] / gnorm  # a block's key is (r, i, negated)
    state.beta += 1.0 / state.beta
    return True


def solve(problem, cfg, mode="multi"):
    """Run DSG for cfg.iterations steps and trace the averaged iterate.

    mode "multi" keeps the native constraint blocks and reports
    infeas = ||max{f(x_bar), 0}||_2 + ||A x_bar - b||_2, with A x_bar - b
    read off s_acc when l > 0; it equals the product up to rounding. mode
    "single" requires m + l >= 1, reformulates to the single max
    constraint, and reports infeas = max{fbar(x_bar), 0}, with the rows of
    each AffineBlockOracle part read off its row sum; they equal the
    product up to rounding. f0(x_bar) is evaluated only on rows that
    ``reports.drive`` reads in full and rows with infeas <= eps. On the
    other rows, mode "multi" skips x_bar altogether once ||A x_bar - b||
    > eps, and mode "single" stops at the first part of fbar above eps,
    its blocks read first; when a block settles the row, x_bar is not formed.
    """
    if mode not in ("multi", "single"):
        raise ValueError(f"unknown mode {mode!r}")
    run = single_constraint_form(problem) if mode == "single" else problem
    state = init_state(run, cfg.x0, cfg.lam0, cfg.nu0)
    walk = _fbar_at_x_bar(run.ineq[0], state) if mode == "single" else None
    eq = run.n + run.m if run.l else None  # where s_acc's nu block starts

    def read(full):
        if walk is not None:
            x_bar, fv = walk(None if full else cfg.eps)
            infeas = 0.0 if fv <= 0.0 else fv
        else:
            residual = None
            if eq is not None:
                residual = state.s_acc[eq:] / -state.delta
                if not full:
                    # infeasibility rounds ||F|| + ||r|| with ||F|| >= 0, and
                    # rounding is monotone, so it is at least ||r|| (NaN if r is)
                    r = euclidean_norm(residual)
                    if not r <= cfg.eps:
                        return None, None, r
            x_bar = state.x_bar
            infeas = run.infeasibility(x_bar, residual)
        if not (full or infeas <= cfg.eps):
            return x_bar, None, infeas
        if x_bar is None:
            x_bar = state.x_bar
        return x_bar, run.f0.value(x_bar), infeas

    return reports.drive(cfg, lambda: step(run, state), read, state.z0[:run.n])


def _fbar_at_x_bar(fbar, state):
    """fbar at the state's x_bar, read by one walk over its parts:
    ``walk(eps=None)`` returns (x_bar, v), x_bar None if the walk formed none.

    Each AffineBlockOracle part j gets a row sum (j, R) in state.row_sums,
    which ``step`` fills. The walk reads these parts first, each by one
    reduction over R: the block's rule on R / delta is max|R| / delta
    (absolute) or max R / delta, as division by delta > 0 rounds
    monotonically. Then it forms x_bar and evaluates the other parts there.
    Given eps, it stops at the first part whose value is not <= eps and
    returns that value, a lower bound of fbar(x_bar) (or NaN). Otherwise v
    is the max over the parts in part order, the first NaN winning, as
    MaxOracle selects fbar(x_bar).
    """
    parts = fbar.parts
    row_sums = state.row_sums = [(j, np.zeros(p.d.size)) for j, p in enumerate(parts)
                                 if type(p) is AffineBlockOracle]
    others = [(j, p) for j, p in enumerate(parts) if type(p) is not AffineBlockOracle]
    values = [0.0] * len(parts)  # by part index; a full walk sets every one

    def walk(eps=None):
        for j, acc in row_sums:
            block = parts[j]
            v = float(np.maximum.reduce(np.abs(acc) if block.absolute else acc) / state.delta)
            if v != v:  # R sums from +0.0 and holds no -0.0; a NaN's sign is the winner's
                v = block.select_rows(acc / state.delta)[0]
            values[j] = v
            if eps is not None and not v <= eps:
                return None, v
        x_bar = state.x_bar if others else None
        for j, part in others:
            v = values[j] = part.select(x_bar)[0]
            if eps is not None and not v <= eps:
                return x_bar, v
        best = values[0]
        for v in values:
            if not v <= best and best == best:
                best = v
        return x_bar, best

    return walk
