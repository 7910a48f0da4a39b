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
special-cases it.

The state keeps T together with f0(x), F(x) and Ax - b at its current z:
``init_state`` evaluates them at z0 and each ``step`` moves along the
cached T, then evaluates at the new z. ``solve`` runs ``step`` in the
shared ``reports.drive`` loop and reads each trace row off those
evaluations, so a run costs one direction evaluation per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reports
from .oracles import euclidean_norm, norm_power_subgrad
from .problem import DualPoint, start_point

__all__ = ["PdsState", "init_state", "step_length", "penalized_saddle_subgradient",
           "step", "solve"]

# ||T|| at or below this certifies 0 in T_rho(z), i.e. a saddle candidate.
SADDLE_TOL = 1e-14


def step_length(k, delta_exp):
    """gamma_k = (k+1)^(-1 + delta/2); strictly decreasing, gamma_0 = 1."""
    if not 0.0 < delta_exp < 1.0:
        raise ValueError(f"delta_exp must lie in (0, 1), got {delta_exp}")
    return float(k + 1) ** (-1.0 + delta_exp / 2.0)


def _direction(problem, z, rho, s_exp):
    """T at the concatenated z = (x, lam, nu) plus the evaluations
    (f0_val, F, Ax - b) at x."""
    n, m, l = problem.n, problem.m, problem.l
    x, lam, nu = z[:n], z[n:n + m], z[n + m:]
    f0_val, g0 = problem.f0(x)
    tx = np.array(g0, dtype=float)
    out = np.empty(n + m + l)
    if m:
        fvals, grads = problem.eval_ineq(x)
        fpos = np.maximum(fvals, 0.0)
        pen = norm_power_subgrad(fpos, s_exp)
        for i in range(m):
            if fvals[i] > 0.0:
                w = lam[i] + rho * pen[i]
                if w != 0.0:
                    tx += w * grads[i]
        out[n:n + m] = -fpos
    else:
        fpos = np.zeros(0)
    if l:
        r = problem.A @ x - problem.b
        qen = norm_power_subgrad(r, s_exp)
        tx += problem.A.T @ (nu + rho * qen)
        out[n + m:] = -r
    else:
        r = np.zeros(0)
    out[:n] = tx
    return out, f0_val, fpos, r


def penalized_saddle_subgradient(problem, z, rho, s_exp):
    """Concatenated selection (Tx, -F(x), b - Ax) at a DualPoint z."""
    out, _, _, _ = _direction(problem, z.concat(), rho, s_exp)
    return out


@dataclass
class PdsState:
    """Mutable per-run state; z is stored concatenated in ``z_arr``.

    ``t`` is the direction T at z_arr; ``f0_val``, ``fpos`` = F(x) and
    ``r`` = Ax - b are the evaluations at its x computed along with T.
    """

    problem: object
    z_arr: np.ndarray
    rho: float
    s_exp: float
    delta_exp: float
    k: int = 0
    t: np.ndarray | None = None
    f0_val: float | None = None
    fpos: np.ndarray | None = None
    r: np.ndarray | None = None

    @property
    def z(self):
        return DualPoint.split(self.z_arr, self.problem.n, self.problem.m, self.problem.l)


def _evaluate(problem, state):
    """Refresh the cached direction and evaluations at state.z_arr."""
    state.t, state.f0_val, state.fpos, state.r = _direction(
        problem, state.z_arr, state.rho, state.s_exp)


def init_state(problem, rho, s_exp, delta_exp, x0=None, lam0=None, nu0=None):
    if not rho > 0:
        raise ValueError("rho must be positive")
    state = PdsState(problem=problem, z_arr=start_point(problem, x0, lam0, nu0),
                     rho=rho, s_exp=s_exp, delta_exp=delta_exp)
    _evaluate(problem, state)
    return state


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
    _evaluate(problem, state)
    return True


def solve(problem, cfg):
    """Run PDS for cfg.iterations steps of ``step``.

    Trace rows carry val = f0(x_k) and infeas = ||F(x_k)|| + ||A x_k - b||,
    read from the evaluations each step leaves in the state.
    """
    cfg.validate()
    state = init_state(problem, cfg.resolved_rho(), cfg.s_exp, cfg.delta_exp,
                       cfg.x0, cfg.lam0, cfg.nu0)
    m, l = problem.m, problem.l

    def advance():
        if not step(problem, state):
            return None
        infeas = 0.0
        if m:
            infeas += euclidean_norm(state.fpos)
        if l:
            infeas += euclidean_norm(state.r)
        return state.f0_val, infeas

    return reports.drive(cfg, "pds", advance, lambda: state.z_arr[:problem.n].copy())
