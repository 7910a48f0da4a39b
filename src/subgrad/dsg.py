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

and reports the weighted primal average x_bar = x_hat / delta. The nu
block of s sums the direction's block b - A x_j, so
A x_bar - b = -s[n+m:] / delta (Nesterov 2009): the residual at x_bar is
read off the sum, not formed by a product with A.

Two entry points share this machinery: mode "multi" runs on the native
constraints; mode "single" first collapses them into one max constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reports
from .oracles import euclidean_norm
from .problem import SADDLE_TOL, saddle_direction, single_constraint_form, start_point

__all__ = ["DsgState", "init_state", "step", "solve"]


@dataclass(slots=True)
class DsgState:
    """Mutable per-run state; z is stored concatenated in ``z_arr``."""

    z0: np.ndarray
    z_arr: np.ndarray
    s_acc: np.ndarray
    x_hat: np.ndarray
    beta: float = 1.0
    delta: float = 0.0

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
    g = saddle_direction(problem, state.z_arr)[0]
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
    state.beta += 1.0 / state.beta
    return True


def solve(problem, cfg, mode="multi"):
    """Run DSG for cfg.iterations steps and trace the averaged iterate.

    mode "multi" keeps the native constraint blocks and reports
    infeas = ||max{f(x_bar), 0}||_2 + ||A x_bar - b||_2, with A x_bar - b
    read off s_acc when l > 0; it equals the product up to rounding. mode
    "single" requires m + l >= 1, reformulates to the single max
    constraint, and reports infeas = max{fbar(x_bar), 0}.
    """
    if mode not in ("multi", "single"):
        raise ValueError(f"unknown mode {mode!r}")
    run = single_constraint_form(problem) if mode == "single" else problem
    fbar = run.ineq[0] if mode == "single" else None
    state = init_state(run, cfg.x0, cfg.lam0, cfg.nu0)
    eq = run.n + run.m if run.l else None  # where s_acc's nu block starts

    def advance():
        if not step(run, state):
            return None
        x_bar = state.x_bar
        val = run.f0.value(x_bar)
        if fbar is None:
            residual = None if eq is None else state.s_acc[eq:] / -state.delta
            return x_bar, val, run.infeasibility(x_bar, residual)
        fv = fbar.value(x_bar)
        return x_bar, val, (0.0 if fv <= 0.0 else fv)

    return reports.drive(cfg, advance, state.z0[:run.n])
