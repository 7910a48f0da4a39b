"""Dispatch a SolverConfig to the matching solver."""

from __future__ import annotations

from . import dsg, pds, sg

__all__ = ["solve"]


def solve(problem, cfg):
    if cfg.solver == "sg":
        return sg.solve(problem, cfg)
    if cfg.solver == "sdsg":
        return dsg.solve(problem, cfg, mode="single")
    if cfg.solver == "mdsg":
        return dsg.solve(problem, cfg, mode="multi")
    # pds.solve validates cfg first, which rejects an unknown solver name
    return pds.solve(problem, cfg)
