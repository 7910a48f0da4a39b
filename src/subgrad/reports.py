"""Solver configuration, per-iteration traces, solve reports, and the
iteration driver shared by all solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .oracles import _as_int, _check_number

__all__ = [
    "COMPLETED",
    "SADDLE_TERMINATED",
    "NO_EPS_FEASIBLE",
    "SolverConfig",
    "TraceRecord",
    "SolveReport",
    "TraceCollector",
    "drive",
    "gap",
]

COMPLETED = "COMPLETED"
SADDLE_TERMINATED = "SADDLE_TERMINATED"
NO_EPS_FEASIBLE = "NO_EPS_FEASIBLE"

SOLVER_NAMES = ("sg", "sdsg", "mdsg", "pds")


@dataclass
class SolverConfig:
    """Knobs shared by all solvers; rho/s_exp/delta_exp only matter for pds.

    ``iterations`` is the number of update steps performed; the trace then
    covers iterates 1..iterations. ``rho = None`` resolves to 1/s_exp, the
    setting used throughout the experiment presets.

    The start blocks are read against the problem each solver runs on:
    ``sg`` takes only ``x0`` and rejects a set ``lam0`` or ``nu0``; ``sdsg``
    reads ``lam0``/``nu0`` against the single-constraint form, so they have
    lengths 1 and 0; ``mdsg`` and ``pds`` read them against the native
    blocks, lengths m and l.
    """

    solver: str = "pds"
    eps: float = 1e-3
    iterations: int = 10_000
    rho: float | None = None
    s_exp: float = 2.0
    delta_exp: float = 0.5
    trace_every: int = 1
    x0: np.ndarray | None = None
    lam0: np.ndarray | None = None
    nu0: np.ndarray | None = None

    def validate(self):
        """Check every setting; strings and booleans are refused, as in oracle fields."""
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVER_NAMES}")
        for name in ("eps", "s_exp", "delta_exp") + (() if self.rho is None else ("rho",)):
            _check_number(getattr(self, name), name)
        self.iterations = _as_int(self.iterations, "iterations")
        self.trace_every = _as_int(self.trace_every, "trace_every")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if self.solver == "pds":
            if not 1.0 <= self.s_exp <= 2.0:
                raise ValueError("s_exp must lie in [1, 2]")
            if not 0.0 < self.delta_exp < 1.0:
                raise ValueError("delta_exp must lie in (0, 1)")
            if self.rho is not None and not 0 < self.rho < math.inf:
                raise ValueError("rho must be positive and finite")
        return self

    def resolved_rho(self):
        return 1.0 / self.s_exp if self.rho is None else float(self.rho)


@dataclass(slots=True)
class TraceRecord:
    k: int
    val: float
    infeas: float
    elapsed_s: float


@dataclass
class SolveReport:
    """Outcome of one solve: thinned trace, eps-feasible best value, final point.

    ``p_eps`` is the running minimum of the objective over *all* iterates
    whose recorded infeasibility is at most eps and whose value is finite
    (full resolution, not just the thinned trace rows); it is None when no
    iterate qualified.
    """

    trace: list[TraceRecord]
    p_eps: float | None
    x_out: np.ndarray
    status: str
    wall_time_s: float

    @property
    def final(self):
        return self.trace[-1] if self.trace else None


class TraceCollector:
    """Accumulates the thinned trace and the full-resolution p_eps minimum."""

    def __init__(self, eps, trace_every, total_iters):
        self.eps = eps
        self.trace_every = max(1, int(trace_every))
        self.total = int(total_iters)
        self.records = []
        self.p_eps = None
        self._t0 = time.perf_counter()

    def note(self, k, val, infeas):
        val = float(val)
        infeas = float(infeas)
        if (infeas <= self.eps and (self.p_eps is None or val < self.p_eps)
                and math.isfinite(val)):
            self.p_eps = val
        if k % self.trace_every == 0 or k == self.total:
            self.records.append(TraceRecord(k, val, infeas, time.perf_counter() - self._t0))

    def elapsed(self):
        return time.perf_counter() - self._t0


def drive(cfg, advance, x_out):
    """Run ``advance()`` for k = 1..cfg.iterations and assemble the report.

    ``advance()`` takes one step and returns (val, infeas) of the point the
    solver reports at iterate k, or None when the direction vanished, which
    stops the run as SADDLE_TERMINATED. ``x_out()`` gives the reported point
    once the loop has ended.
    """
    collector = TraceCollector(cfg.eps, cfg.trace_every, cfg.iterations)
    status = COMPLETED
    for k in range(1, cfg.iterations + 1):
        point = advance()
        if point is None:
            status = SADDLE_TERMINATED
            break
        collector.note(k, *point)
    if status is COMPLETED and collector.p_eps is None:
        status = NO_EPS_FEASIBLE
    return SolveReport(
        trace=collector.records,
        p_eps=collector.p_eps,
        x_out=x_out(),
        status=status,
        wall_time_s=collector.elapsed(),
    )


def gap(val, val_star):
    """Relative optimality gap |val - val*| / (1 + max{|val*|, |val|})."""
    val = float(val)
    val_star = float(val_star)
    if not (np.isfinite(val) and np.isfinite(val_star)):
        raise ValueError("gap requires finite values")
    return abs(val - val_star) / (1.0 + max(abs(val_star), abs(val)))
