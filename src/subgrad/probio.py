"""JSON problem files.

A problem document looks like

    {
      "n": 3, "m": 1, "l": 2,
      "objective": {"op": "affine", "c": [..], "d": 0.0},
      "ineq": [node, ...],
      "A": [[..], ..],              # l rows of n entries; [] for none
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

Node keys are the oracle's constructor arguments (and attributes), so the
table ``_NODES`` is this schema in code; a key left out takes the default.

Floats round-trip exactly (json uses repr), so a reloaded problem
reproduces the original solver trace bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .oracles import (AbsAffineOracle, AffineOracle, ConvexOracle, HingeSumOracle,
                      LogBarrierOracle, MaxOracle, Norm1Oracle, PositivePart,
                      SqNormOracle, SumOracle)
from .problem import ConstrainedProblem

__all__ = ["oracle_to_node", "oracle_from_node", "problem_to_dict",
           "problem_from_dict", "save_problem", "load_problem"]

# op -> (oracle class, node keys in document order)
_NODES = {
    "affine": (AffineOracle, ("c", "d")),
    "abs_affine": (AbsAffineOracle, ("a", "b")),
    "max": (MaxOracle, ("parts",)),
    "sum": (SumOracle, ("parts",)),
    "pos": (PositivePart, ("arg",)),
    "norm1": (Norm1Oracle, ("dim", "coords", "offset")),
    "sq_norm": (SqNormOracle, ("dim", "coords", "scale")),
    "hinge_sum": (HingeSumOracle, ("dim", "coords", "labels", "scale")),
    "log_barrier": (LogBarrierOracle, ("dim", "index", "shift", "offset")),
}


def _to_json(v):
    if isinstance(v, list):  # parts
        return [oracle_to_node(p) for p in v]
    if isinstance(v, ConvexOracle):  # arg
        return oracle_to_node(v)
    return v.tolist() if isinstance(v, np.ndarray) else v


def oracle_to_node(oracle):
    for op, (cls, keys) in _NODES.items():
        if isinstance(oracle, cls):
            return {"op": op, **{key: _to_json(getattr(oracle, key)) for key in keys}}
    raise TypeError(f"cannot serialize oracle of type {type(oracle).__name__}")


def oracle_from_node(node):
    if not isinstance(node, dict):
        raise ValueError(f"oracle node must be an object, got {node!r}")
    op = node.get("op")
    if not isinstance(op, str) or op not in _NODES:
        raise ValueError(f"unknown oracle op {op!r}")
    cls, keys = _NODES[op]
    args = {key: node[key] for key in keys if key in node}
    if "parts" in args:
        args["parts"] = [oracle_from_node(p) for p in args["parts"]]
    if "arg" in args:
        args["arg"] = oracle_from_node(args["arg"])
    return cls(**args)


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
    problem = ConstrainedProblem(f0, ineq, doc.get("A"), doc.get("b"))
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
