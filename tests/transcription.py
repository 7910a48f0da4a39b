"""Plain transcriptions of the four solvers, written from their update
equations: the one reference that the replay checks compare the library with.

They ask the oracles for one row at a time, o(x), evaluate x_bar directly and
keep their own trace, p_eps and status. From the library they take only the
oracle calls, ``problem.residual`` and ``problem.adjoint`` (its one product
with A), ``norm_power_subgrad`` and ``SADDLE_TOL``, so that a kernel change
there enters both sides alike and the two agree bit for bit on any BLAS
kernel. The bits still follow numpy's reduction code: digests of either are
pinned per numpy version.
"""

import itertools
import math
from collections import namedtuple

import numpy as np
from numpy.linalg import norm

from subgrad import COMPLETED, NO_EPS_FEASIBLE, SADDLE_TERMINATED
from subgrad.oracles import norm_power_subgrad
from subgrad.problem import SADDLE_TOL

Row = namedtuple("Row", "k val infeas residual")
Run = namedtuple("Run", "status p_eps x_out trace")


def start(cfg, *sizes):
    """The start blocks x0, lam0, nu0 of the given sizes, concatenated; None is zeros."""
    return np.concatenate([np.zeros(k) if v is None else np.asarray(v, dtype=float)
                           for v, k in zip((cfg.x0, cfg.lam0, cfg.nu0), sizes)])


def fbar(p, x):
    """max{f_i(x), |a_j.x - b_j|} and the subgradient of its first row that
    attains it, (-inf, None) with no rows; a NaN row wins, and sign(0) = +1."""
    rows = [o(x) for o in p.ineq]
    for a, b in zip(p.A, p.b):
        r = float(a.dot(x)) - b
        rows.append((r, a) if r >= 0.0 else (-r, -a))
    best = (-math.inf, None)
    for v, g in rows:
        if best[1] is None or v > best[0] or (v != v and best[0] == best[0]):
            best = v, g
    return best


def infeasibility(p, x, max_form=False):
    """max{fbar(x), 0} on the max form, else ||max{f(x), 0}|| + ||A x - b||."""
    if max_form:
        fv = fbar(p, x)[0]
        return 0.0 if fv <= 0.0 else fv
    return norm(np.maximum([o(x)[0] for o in p.ineq], 0.0)) + norm(p.residual(x))


def direction(p, z, rho=0.0, s_exp=2.0, max_form=False):
    """(T, f0(x)) at z = (x, lam, nu): T = (g0 + sum_{F_i > 0} w_i g_i + A^T (nu
    + rho q), -F, b - A x), F = max{f(x), 0}, w = lam + rho p, p and q the
    subgradients of ||.||^s_exp at F and A x - b, the rows added one by one.
    On the max form the one row is fbar(x), with no A."""
    n = p.n
    x = z[:n]
    f0_val, tx = p.f0(x)
    rows = [fbar(p, x)] if max_form else [o(x) for o in p.ineq]
    w, nu = z[n:n + len(rows)], z[n + len(rows):]
    minus_f = np.array([0.0 if v <= 0.0 else -v for v, _ in rows])
    if rho != 0.0:
        w = w + rho * norm_power_subgrad(-minus_f, s_exp)
    for wi, (v, g) in zip(w, rows):
        if v > 0.0 and wi != 0.0:
            tx = tx + wi * g
    if max_form or not p.l:
        return np.concatenate([tx, minus_f]), f0_val
    r = p.residual(x)
    if rho != 0.0:
        nu = nu + rho * norm_power_subgrad(r, s_exp)
    return np.concatenate([tx + p.adjoint(nu), minus_f, -r]), f0_val


def switching(p, cfg):
    """sg: x -= (length / ||g||^2) g along f0's subgradient with length eps
    when fbar(x) <= eps, else along fbar's with length fbar(x); g = 0 stops."""
    x = start(cfg, p.n)
    fv, gbar = fbar(p, x)
    while True:
        g, length = (p.f0(x)[1], cfg.eps) if fv <= cfg.eps else (gbar, fv)
        gg = float(g.dot(g))
        if gg == 0.0:
            return
        x = x - (length / gg) * g
        fv, gbar = fbar(p, x)
        yield x, p.f0(x)[0], 0.0 if fv <= 0.0 else fv


def dual_averaging(p, cfg):
    """mdsg, and sdsg on the max form: s += G / ||G||, z = z0 - s / beta,
    beta += 1 / beta; x_bar averages the x_j with weights 1 / ||G_j||, and
    ||G|| <= SADDLE_TOL stops."""
    max_form = cfg.solver == "sdsg"
    z0 = start(cfg, p.n, 1, 0) if max_form else start(cfg, p.n, p.m, p.l)
    z, s, beta, x_sum, weight = z0, np.zeros(z0.size), 1.0, np.zeros(p.n), 0.0
    while True:
        g = direction(p, z, max_form=max_form)[0]
        gnorm = norm(g)
        if gnorm <= SADDLE_TOL:
            return
        x_sum, weight = x_sum + z[:p.n] / gnorm, weight + 1.0 / gnorm
        s = s + g / gnorm
        z, beta = z0 - s / beta, beta + 1.0 / beta
        x_bar = x_sum / weight
        yield x_bar, p.f0(x_bar)[0], infeasibility(p, x_bar, max_form)


def primal_dual(p, cfg):
    """pds: z -= (gamma_k / ||T||) T, gamma_k = k^(-1 + delta_exp/2) for
    k = 1, 2, ..; rho = None is 1/s_exp, and ||T|| <= SADDLE_TOL stops."""
    rho = 1.0 / cfg.s_exp if cfg.rho is None else cfg.rho
    z = start(cfg, p.n, p.m, p.l)
    t = direction(p, z, rho, cfg.s_exp)[0]
    for k in itertools.count(1):
        tnorm = norm(t)
        if tnorm <= SADDLE_TOL:
            return
        z = z - (float(k) ** (-1.0 + cfg.delta_exp / 2.0) / tnorm) * t
        t, val = direction(p, z, rho, cfg.s_exp)
        yield z[:p.n], val, infeasibility(p, z[:p.n])


SOLVERS = {"sg": switching, "sdsg": dual_averaging, "mdsg": dual_averaging, "pds": primal_dual}


def run(p, cfg):
    """A Row (k, f0, infeas, ||A x - b||, the scale of a residual read off a
    sum) per step k = 1, 2, .., for every k; p_eps, the least finite f0 of a
    row with infeas <= eps; the status, SADDLE_TERMINATED when a direction
    vanished, else NO_EPS_FEASIBLE when no row set p_eps, else COMPLETED."""
    x_out, trace, p_eps = start(cfg, p.n), [], None
    points = SOLVERS[cfg.solver](p, cfg)
    for k in range(1, cfg.iterations + 1):
        point = next(points, None)
        if point is None:
            return Run(SADDLE_TERMINATED, p_eps, x_out.copy(), trace)
        x_out, val, infeas = point[0], float(point[1]), float(point[2])
        if infeas <= cfg.eps and math.isfinite(val) and (p_eps is None or val < p_eps):
            p_eps = val
        trace.append(Row(k, val, infeas, norm(p.residual(x_out))))
    return Run(COMPLETED if p_eps is not None else NO_EPS_FEASIBLE, p_eps, x_out.copy(), trace)
