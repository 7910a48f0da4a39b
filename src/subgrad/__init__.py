"""Subgradient solvers for convex problems with functional constraints.

The package bundles four first-order methods (a switching subgradient
method, dual averaging with a single or with several dual variables, and a
penalized primal-dual method), generators for four benchmark problem
families, an independent dense-simplex LP oracle for ground truth, and a
benchmark CLI (``subgrad-bench``).
"""

from functools import partial

from . import dsg, pds, sg
from .oracles import (AbsAffineOracle, AffineOracle, ConvexOracle,
                      HingeSumOracle, LogBarrierOracle, MaxOracle, Norm1Oracle,
                      PositivePart, SqNormOracle, SumOracle, norm_power_subgrad)
from .problem import ConstrainedProblem, max_constraint_oracle, single_constraint_form
from .reports import (COMPLETED, NO_EPS_FEASIBLE, SADDLE_TERMINATED,
                      SolveReport, SolverConfig, TraceRecord, gap)
from .simplex import LpProblem, encode_case1, encode_lad, lp_solve_small
from .testbeds import TestInstance, build_lad, build_svm, gen_random
from .validate import subgradient_validate

__version__ = "0.1.0"

# The one list of solver names: the CLI takes its --solver choices from it.
SOLVERS = {
    "sg": sg.solve,
    "sdsg": partial(dsg.solve, mode="single"),
    "mdsg": partial(dsg.solve, mode="multi"),
    "pds": pds.solve,
}


def solve(problem, cfg):
    """Run the solver that ``cfg.solver`` names in ``SOLVERS`` on problem."""
    run = SOLVERS.get(cfg.solver) if isinstance(cfg.solver, str) else None
    if run is None:
        raise ValueError(f"unknown solver {cfg.solver!r}; expected one of {tuple(SOLVERS)}")
    return run(problem, cfg)


__all__ = [
    "AbsAffineOracle", "AffineOracle", "ConvexOracle", "HingeSumOracle",
    "LogBarrierOracle", "MaxOracle", "Norm1Oracle", "PositivePart",
    "SqNormOracle", "SumOracle", "norm_power_subgrad",
    "ConstrainedProblem", "max_constraint_oracle", "single_constraint_form",
    "COMPLETED", "NO_EPS_FEASIBLE", "SADDLE_TERMINATED",
    "SolveReport", "SolverConfig", "TraceRecord", "gap",
    "SOLVERS", "solve", "sg", "dsg", "pds",
    "LpProblem", "encode_case1", "encode_lad", "lp_solve_small",
    "TestInstance", "build_lad", "build_svm", "gen_random",
    "subgradient_validate",
]
