"""Penalized primal-dual subgradient method.

Works on the penalized Lagrangian

    L_rho(x, lam, nu) = f0(x) + lam.F(x) + nu.(Ax - b)
                        + rho (||F(x)||_2^s + ||Ax - b||_2^s)

with F_i(x) = max{f_i(x), 0} and penalty exponent s in [1, 2]. Each step
moves z = (x, lam, nu) against the selection

    T(z) = (Tx, -F(x), b - Ax),
    Tx   = g0 + sum_i (lam_i + rho * p_i) g_i + A^T (nu + rho * q)

where p = s||F||^(s-2) F and q = s||Ax-b||^(s-2) (Ax-b) (zero vectors when
the respective residual is zero), with the normalized step

    z <- z - (gamma_k / ||T||_2) T,   gamma_k = (k+1)^(-1 + delta/2).

s = 2 recovers the standard primal-dual subgradient method; no code path
special-cases it. At rho = 0, T is the DSG direction G; both solvers take
it from ``problem.saddle_direction``.

The state holds T and f0(x) at its current z from the start:
``init_state(problem, cfg)`` builds it from their values at the config's
z0, with the settings a ``SolverConfig`` checked when it was built (it
cannot be changed afterwards), and each ``step`` moves along the cached T,
then evaluates them at the new z. ``solve`` runs ``step`` in the shared
``reports.drive`` loop and reads each trace row off that state: the
infeasibility ||F(x)|| + ||Ax - b|| is the sum of the norms of T's blocks
-F(x) and b - Ax, so a run costs one direction evaluation per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reports
from .oracles import euclidean_norm
from .problem import SADDLE_TOL, saddle_direction, start_point

__all__ = ["PdsState", "init_state", "step_length", "step", "solve"]


def step_length(k, delta_exp):
    """gamma_k = (k+1)^(-1 + delta/2); strictly decreasing, gamma_0 = 1."""
    if not 0.0 < delta_exp < 1.0:
        raise ValueError(f"delta_exp must lie in (0, 1), got {delta_exp}")
    return float(k + 1) ** (-1.0 + delta_exp / 2.0)


@dataclass(slots=True)
class PdsState:
    """Mutable per-run state; z is stored concatenated in ``z_arr``.

    ``t`` is the direction T at z_arr and ``f0_val`` the objective value at
    its x, computed along with T; ``t[n:n+m]`` is -F(x) and ``t[n+m:]`` is
    b - Ax.
    """

    z_arr: np.ndarray
    t: np.ndarray
    f0_val: float
    rho: float
    s_exp: float
    delta_exp: float
    k: int = 0


def init_state(problem, cfg):
    """The state at the config's start blocks; ``cfg.rho = None`` runs at 1/s_exp."""
    rho = 1.0 / cfg.s_exp if cfg.rho is None else cfg.rho
    z_arr = start_point(problem, cfg.x0, cfg.lam0, cfg.nu0)
    return PdsState(z_arr, *saddle_direction(problem, z_arr, rho, cfg.s_exp), rho, cfg.s_exp,
                    cfg.delta_exp)


def step(problem, state):
    """One normalized step along the cached T, in place; then evaluates at
    the new z. Returns False on saddle termination, leaving z unchanged.

    The move has euclidean length exactly gamma_k, so lam stays >= 0
    (its block moves by +alpha*F with F >= 0).
    """
    tnorm = euclidean_norm(state.t)
    if tnorm <= SADDLE_TOL:
        return False
    alpha = step_length(state.k, state.delta_exp) / tnorm
    state.z_arr = state.z_arr - alpha * state.t
    state.k += 1
    state.t, state.f0_val = saddle_direction(problem, state.z_arr, state.rho, state.s_exp)
    return True


def solve(problem, cfg):
    """Run PDS for cfg.iterations steps of ``step``.

    Trace rows carry val = f0(x_k) and infeas = ||F(x_k)|| + ||A x_k - b||,
    read from the direction and value each step leaves in the state.
    """
    state = init_state(problem, cfg)
    n, m, l = problem.n, problem.m, problem.l

    def read(full):
        infeas = 0.0
        if m:
            infeas += euclidean_norm(state.t[n:n + m])
        if l:
            infeas += euclidean_norm(state.t[n + m:])
        return state.z_arr[:n], state.f0_val, infeas

    return reports.drive(cfg, lambda: step(problem, state), read, state.z_arr[:n])
