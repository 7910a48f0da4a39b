"""JSON problem files.

A problem document looks like

    {
      "n": 3, "m": 1, "l": 2,
      "objective": {"op": "affine", "c": [..], "d": 0.0},
      "ineq": [node, ...],
      "A": [[..], ..],              # l rows of n entries
      "b": [..]
    }

where each oracle node is one of

    {"op": "affine",      "c": [..], "d": f}
    {"op": "abs_affine",  "a": [..], "b": f}
    {"op": "max",         "parts": [node, ..]}
    {"op": "sum",         "parts": [node, ..]}
    {"op": "pos",         "arg": node}
    {"op": "norm1",       "dim": i, "coords": [..], "offset": f}
    {"op": "sq_norm",     "dim": i, "coords": [..], "scale": f}
    {"op": "hinge_sum",   "dim": i, "coords": [..], "labels": [..], "scale": f}
    {"op": "log_barrier", "dim": i, "index": i, "shift": f, "offset": f}

Floats round-trip exactly (json uses repr), so a reloaded problem
reproduces the original solver trace bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .oracles import (AbsAffineOracle, AffineOracle, HingeSumOracle,
                      LogBarrierOracle, MaxOracle, Norm1Oracle, PositivePart,
                      SqNormOracle, SumOracle)
from .problem import ConstrainedProblem

__all__ = ["oracle_to_node", "oracle_from_node", "problem_to_dict",
           "problem_from_dict", "save_problem", "load_problem"]


def oracle_to_node(oracle):
    if isinstance(oracle, AffineOracle):
        return {"op": "affine", "c": oracle.c.tolist(), "d": oracle.d}
    if isinstance(oracle, AbsAffineOracle):
        return {"op": "abs_affine", "a": oracle.a.tolist(), "b": oracle.b}
    if isinstance(oracle, MaxOracle):
        return {"op": "max", "parts": [oracle_to_node(p) for p in oracle.parts]}
    if isinstance(oracle, SumOracle):
        return {"op": "sum", "parts": [oracle_to_node(p) for p in oracle.parts]}
    if isinstance(oracle, PositivePart):
        return {"op": "pos", "arg": oracle_to_node(oracle.inner)}
    if isinstance(oracle, Norm1Oracle):
        return {"op": "norm1", "dim": oracle.dim, "coords": oracle.coords.tolist(),
                "offset": oracle.offset}
    if isinstance(oracle, SqNormOracle):
        return {"op": "sq_norm", "dim": oracle.dim, "coords": oracle.coords.tolist(),
                "scale": oracle.scale}
    if isinstance(oracle, HingeSumOracle):
        return {"op": "hinge_sum", "dim": oracle.dim, "coords": oracle.coords.tolist(),
                "labels": oracle.labels.tolist(), "scale": oracle.scale}
    if isinstance(oracle, LogBarrierOracle):
        return {"op": "log_barrier", "dim": oracle.dim, "index": oracle.index,
                "shift": oracle.shift, "offset": oracle.offset}
    raise TypeError(f"cannot serialize oracle of type {type(oracle).__name__}")


def oracle_from_node(node):
    if not isinstance(node, dict):
        raise ValueError(f"oracle node must be an object, got {node!r}")
    op = node.get("op")
    if op == "affine":
        return AffineOracle(node["c"], node.get("d", 0.0))
    if op == "abs_affine":
        return AbsAffineOracle(node["a"], node.get("b", 0.0))
    if op == "max":
        return MaxOracle([oracle_from_node(p) for p in node["parts"]])
    if op == "sum":
        return SumOracle([oracle_from_node(p) for p in node["parts"]])
    if op == "pos":
        return PositivePart(oracle_from_node(node["arg"]))
    if op == "norm1":
        return Norm1Oracle(node["dim"], node.get("coords"), node.get("offset", 0.0))
    if op == "sq_norm":
        return SqNormOracle(node["dim"], node.get("coords"), node.get("scale", 1.0))
    if op == "hinge_sum":
        return HingeSumOracle(node["dim"], node["coords"], node["labels"],
                              node.get("scale", 1.0))
    if op == "log_barrier":
        return LogBarrierOracle(node["dim"], node["index"], node.get("shift", 1.0),
                                node.get("offset", 0.0))
    raise ValueError(f"unknown oracle op {op!r}")


def problem_to_dict(problem, label=None):
    doc = {
        "n": problem.n,
        "m": problem.m,
        "l": problem.l,
        "objective": oracle_to_node(problem.f0),
        "ineq": [oracle_to_node(o) for o in problem.ineq],
        "A": problem.A.tolist(),
        "b": problem.b.tolist(),
    }
    if label is not None:
        doc["label"] = label
    return doc


def problem_from_dict(doc):
    f0 = oracle_from_node(doc["objective"])
    ineq = [oracle_from_node(node) for node in doc.get("ineq", [])]
    A = np.asarray(doc.get("A", []), dtype=float)
    if A.size == 0:
        A = np.zeros((0, f0.dim))
    b = np.asarray(doc.get("b", []), dtype=float)
    problem = ConstrainedProblem(f0, ineq, A, b)
    for key in ("n", "m", "l"):
        if key in doc and doc[key] != getattr(problem, key):
            raise ValueError(f"document says {key}={doc[key]} but the oracles "
                             f"give {key}={getattr(problem, key)}")
    return problem


def save_problem(path, problem, label=None):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem, label=label), fh)


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
