"""Switching subgradient method on the single-max-constraint form.

Each iteration looks at fbar(x). If fbar(x) <= eps the step descends the
objective with length eps/||g0||^2; otherwise (fbar(x) > eps, or NaN) it
descends fbar with length fbar(x)/||gbar||^2. A zero subgradient in the
active branch is a certificate (optimality at an eps-feasible point, or
infeasibility of the constraint system) and stops the run.

``solve`` reads each iterate once, value first: it selects fbar(x), makes
the switching decision there, and builds the subgradient of only the
function the next step descends. On a constraint step it reads f0(x) only
for a row that ``reports.drive`` reads in full, as fbar(x) > eps makes any
other row ineligible for p_eps. ``step`` is the move alone, along that
subgradient by that length; ``solve`` runs it in ``reports.drive``.
"""

from __future__ import annotations

import math

from . import reports
from .problem import single_constraint_form, start_point

__all__ = ["step", "solve"]


def step(x, g, length):
    """Move from x along -g so that g.(x - x_next) = length; the move ``solve`` runs.

    Returns (x_next, stopped); stopped flags a zero g, the certificate that
    ends the run, with x unchanged.
    """
    gn2 = float(g.dot(g))
    if gn2 == 0.0:
        return x, True
    return x - (length / gn2) * g, False


def solve(problem, cfg):
    """Run the switching method for cfg.iterations steps.

    The problem is reformulated internally when it has any constraints; with
    none, fbar = -inf, the maximum over no constraint, and every step
    descends f0. Trace rows carry val = f0(x_k) and infeas = max{fbar(x_k), 0};
    p_eps is the best objective over iterates with fbar(x_k) <= eps.
    """
    for name in ("lam0", "nu0"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"{name} is set, but sg has no multipliers; it takes only x0")
    run = single_constraint_form(problem) if problem.m + problem.l >= 1 else problem
    select = run.ineq[0].select if run.m else lambda x: (-math.inf, None)

    x = start_point(run, cfg.x0)[:run.n]
    g = length = None

    def read(full):
        """x's trace row, and the step that leaves x: its subgradient g and
        length. f0(x) is read on a constraint step only when ``full``."""
        nonlocal g, length
        fv, key = select(x)
        if fv <= cfg.eps:
            f0_val, g = run.f0(x)
            length = cfg.eps
        else:  # a NaN fv descends fbar
            f0_val = run.f0.value(x) if full else None
            g, length = run.ineq[0].subgrad(key), fv
        return x, f0_val, (0.0 if fv <= 0.0 else fv)

    def advance():
        nonlocal x
        x, stopped = step(x, g, length)
        return not stopped

    read(True)  # the step that leaves x0, which has no trace row
    return reports.drive(cfg, advance, read, x)
