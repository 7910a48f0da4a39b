"""Switching subgradient method on the single-max-constraint form.

Each iteration looks at fbar(x). If fbar(x) <= eps the step descends the
objective with length eps/||g0||^2; otherwise it descends fbar with length
fbar(x)/||gbar||^2. A zero subgradient in the active branch is a
certificate (optimality at an eps-feasible point, or infeasibility of the
constraint system) and stops the run.

``step`` is that rule alone: it takes the oracle outputs at x and calls no
oracle. ``solve`` evaluates fbar and then f0 once per iterate, value first:
it builds the subgradient of only the function the next step descends (fbar
when fbar(x) > eps or is NaN, f0 otherwise), and runs ``step`` in the shared
``reports.drive`` loop.
"""

from __future__ import annotations

from . import reports
from .problem import single_constraint_form, start_point

__all__ = ["step", "solve"]


def step(x, eps, f0_grad, fbar_val, fbar_grad):
    """One switching update from the oracle outputs at x; the rule ``solve`` runs.

    fbar_val and fbar_grad are fbar(x) and a subgradient of it on the
    single-constraint form; fbar_val None means the problem is
    unconstrained and the objective branch is always active. Returns
    (x_next, stopped); stopped flags the zero-subgradient termination with
    x unchanged.
    """
    if fbar_val is None or fbar_val <= eps:
        gn2 = float(f0_grad.dot(f0_grad))
        if gn2 == 0.0:
            return x, True
        return x - (eps / gn2) * f0_grad, False
    gn2 = float(fbar_grad.dot(fbar_grad))
    if gn2 == 0.0:
        return x, True
    return x - (fbar_val / gn2) * fbar_grad, False


def solve(problem, cfg):
    """Run the switching method for cfg.iterations steps.

    The problem is reformulated internally when it has any constraints.
    Trace rows carry val = f0(x_k) and infeas = max{fbar(x_k), 0}; p_eps is
    the best objective over iterates with fbar(x_k) <= eps. fbar is read
    through ``select``, and its subgradient is built only before a
    constraint step; f0's is built at x0 and before each objective step.
    """
    cfg.validate()
    for name in ("lam0", "nu0"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"{name} is set, but sg has no multipliers; it takes only x0")
    run = single_constraint_form(problem) if problem.m + problem.l >= 1 else problem
    fbar = run.ineq[0] if run.m == 1 else None

    def read_fbar(x):
        """fbar(x), and its subgradient only when the next step descends fbar."""
        v, key = fbar.select(x)
        return v, (None if v <= cfg.eps else fbar.subgrad(key))  # NaN descends fbar

    x = start_point(run, cfg.x0)[:run.n]
    _, f0_grad = run.f0(x)
    fbar_val, fbar_grad = read_fbar(x) if fbar is not None else (None, None)

    def advance():
        nonlocal x, f0_grad, fbar_val, fbar_grad
        x, stopped = step(x, cfg.eps, f0_grad, fbar_val, fbar_grad)
        if stopped:
            return None
        if fbar is None:
            f0_val, f0_grad = run.f0(x)
            return x, f0_val, 0.0
        fbar_val, fbar_grad = read_fbar(x)
        if fbar_grad is None:  # the next step descends f0
            f0_val, f0_grad = run.f0(x)
        else:
            f0_val = run.f0.value(x)
        return x, f0_val, (0.0 if fbar_val <= 0.0 else fbar_val)

    return reports.drive(cfg, advance, x)
