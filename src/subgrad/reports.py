"""Solver configuration, per-iteration traces, solve reports, and the
iteration driver shared by all solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .oracles import _as_int, _as_scalar, _check_number

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


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Knobs shared by all solvers; ``solver`` names one in ``subgrad.SOLVERS``.

    ``iterations`` is the number of update steps performed; the trace then
    covers iterates 1..iterations. A config refuses a bad setting when it
    is built, and cannot be changed afterwards. A config equals only itself
    and hashes by identity, as its start blocks are arrays. Only pds reads
    rho, s_exp and delta_exp, but one rule checks them for every solver.
    ``rho = None`` makes pds run at 1/s_exp, the setting used throughout
    the experiment presets.

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

    def __post_init__(self):
        """Check every setting but the solver name, which ``subgrad.solve``
        checks; strings and booleans are refused, as in oracle fields."""
        put = object.__setattr__  # the frozen config stores each setting normalised
        _check_number(self.eps, "eps")
        put(self, "iterations", _as_int(self.iterations, "iterations"))
        put(self, "trace_every", _as_int(self.trace_every, "trace_every"))
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        put(self, "eps", _as_scalar(self.eps, "eps"))  # an int such as 10**400 is below inf
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        _check_number(self.s_exp, "s_exp")
        _check_number(self.delta_exp, "delta_exp")
        if not 1.0 <= self.s_exp <= 2.0:
            raise ValueError("s_exp must lie in [1, 2]")
        if not 0.0 < self.delta_exp < 1.0:
            raise ValueError("delta_exp must lie in (0, 1)")
        if self.rho is not None:
            _check_number(self.rho, "rho")
            if not 0 < self.rho < math.inf:
                raise ValueError("rho must be positive and finite")
            put(self, "rho", _as_scalar(self.rho, "rho"))


@dataclass(slots=True)
class TraceRecord:
    k: int
    val: float
    infeas: float
    elapsed_s: float


@dataclass
class SolveReport:
    """Outcome of one solve: p_eps, the final point x_out and a thinned trace ending at it.

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
    """Accumulates every ``trace_every``-th trace row and the full-resolution
    p_eps minimum; ``note`` returns the row of iterate k, kept or not."""

    def __init__(self, eps, trace_every):
        self.eps = eps
        self.trace_every = trace_every
        self.records = []
        self.p_eps = None
        self._t0 = time.perf_counter()

    def note(self, k, val, infeas):
        """Record iterate k. ``val`` is None on a row that ``drive`` did not
        read in full, whose infeas (or a lower bound of it) is not <= eps:
        it cannot move p_eps, and is never kept."""
        infeas = float(infeas)
        if val is not None:
            val = float(val)
            if (infeas <= self.eps and (self.p_eps is None or val < self.p_eps)
                    and math.isfinite(val)):
                self.p_eps = val
        row = TraceRecord(k, val, infeas, time.perf_counter() - self._t0)
        if k % self.trace_every == 0:
            self.records.append(row)
        return row

    def elapsed(self):
        return time.perf_counter() - self._t0


def drive(cfg, step, read, x0):
    """Run ``step()`` for k = 1..cfg.iterations and assemble the report.

    ``step()`` moves the solver's state to iterate k and returns True, or
    returns False with the state unchanged when the direction vanished,
    which stops the run as SADDLE_TERMINATED. ``read(full)`` returns
    (x, val, infeas) of the point the solver reports at the current
    iterate. Only the rows a run can observe are read in full: kept rows
    (k % trace_every == 0), rows that may move p_eps, and the row of
    ``x_out``. ``read(False)`` may return val = None, and x = None, once it
    has shown that infeas, or the lower bound of it that it returns, is not
    <= eps; it reads val otherwise. When such a row ends the run, it is read
    again by ``read(True)``. ``x_out`` is a copy of the last x read, or of
    ``x0`` if none was, and the trace ends with its row.
    """
    collector = TraceCollector(cfg.eps, cfg.trace_every)
    status = COMPLETED
    x, row = x0, None
    for k in range(1, cfg.iterations + 1):
        if not step():
            status = SADDLE_TERMINATED
            break
        x, val, infeas = read(k % cfg.trace_every == 0)
        row = collector.note(k, val, infeas)
    if row is not None and row.k % cfg.trace_every:  # x_out's row was not kept
        if row.val is None:  # nor read in full
            x, val, infeas = read(True)
            row = TraceRecord(row.k, float(val), float(infeas), row.elapsed_s)
        collector.records.append(row)
    if status is COMPLETED and collector.p_eps is None:
        status = NO_EPS_FEASIBLE
    return SolveReport(
        trace=collector.records,
        p_eps=collector.p_eps,
        x_out=x.copy(),
        status=status,
        wall_time_s=collector.elapsed(),
    )


def gap(val, val_star):
    """Relative optimality gap |val - val*| / (1 + max{|val*|, |val|})."""
    _check_number(val, "val")
    _check_number(val_star, "val_star")
    try:
        val, val_star = float(val), float(val_star)
    except OverflowError:  # an int past the float range, such as 10**400
        val = math.inf
    if not (math.isfinite(val) and math.isfinite(val_star)):
        raise ValueError("gap requires finite values")
    return abs(val - val_star) / (1.0 + max(abs(val_star), abs(val)))
