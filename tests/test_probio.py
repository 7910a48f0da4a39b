import hashlib
import json

import numpy as np
import pytest

from subgrad import pds, probio, sg
from subgrad.oracles import (AbsAffineOracle, AffineOracle, HingeSumOracle,
                             LogBarrierOracle, MaxOracle, Norm1Oracle,
                             PositivePart, SqNormOracle, SumOracle)
from subgrad.problem import ConstrainedProblem
from subgrad.reports import SolverConfig
from subgrad.testbeds import build_lad, build_svm, gen_random

ROUND_TRIP_ORACLES = [
    AffineOracle([0.5, -1.0], 0.25),
    AbsAffineOracle([2.0, 0.0], -0.5),
    MaxOracle([AffineOracle([1.0, 0.0]), AbsAffineOracle([0.0, 1.0], 0.1)]),
    SumOracle([Norm1Oracle(2), SqNormOracle(2, scale=0.5)]),
    PositivePart(AffineOracle([1.0, 1.0], -1.0)),
    Norm1Oracle(2, coords=[1], offset=-1.0),
    SqNormOracle(2, coords=[0], scale=2.0),
    HingeSumOracle(2, coords=[0, 1], labels=[1.0, -1.0], scale=0.5),
    LogBarrierOracle(2, index=0, shift=1.0, offset=-1.0),
]


@pytest.mark.parametrize("oracle", ROUND_TRIP_ORACLES, ids=lambda o: type(o).__name__)
def test_oracle_round_trip(oracle):
    node = oracle_json = probio.oracle_to_node(oracle)
    json.dumps(node)  # must be serializable
    back = probio.oracle_from_node(oracle_json)
    assert probio.oracle_to_node(back) == node
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.normal(size=2)
        v1, g1 = oracle(x)
        v2, g2 = back(x)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


# sha256 of json.dumps(problem_to_dict(...)): the exact bytes of the format
@pytest.mark.parametrize("build,digest", [
    (lambda: gen_random(1, 6, 3).problem,
     "42a6ef4de9038d35823762268bd759e7869d3d7508c42b2c74e27090ecb3a4be"),
    (lambda: gen_random(2, 5, 3).problem,
     "f2151dc609fd9c7463baac10ea3d04beb9af9a6f0336d6148887803d73e76a0b"),
    (lambda: build_lad(3, 3).problem,
     "6c201cc33db84b3d0ef75eb277e83b42956f234574220fe86ef6fe5f98fd0ce2"),
    (lambda: build_svm(1, 3).problem,
     "ca2a8502c8b632e09d74c6512652619678494813bf5cdab07023e7f4cea57112"),
    (lambda: ConstrainedProblem(ROUND_TRIP_ORACLES[0], ROUND_TRIP_ORACLES[1:]),
     "26cfccd34210015aae37755772349f99c19dd2347b2af4e15fa6218753b97b0a"),
], ids=["case1", "case2", "lad", "svm", "all-nodes"])
def test_document_bytes_are_pinned(build, digest):
    text = json.dumps(probio.problem_to_dict(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # reading the document back writes the same bytes; all-nodes has "A": []
    back = probio.problem_from_dict(json.loads(text))
    assert json.dumps(probio.problem_to_dict(back)) == text


@pytest.mark.parametrize("inst_fn", [
    lambda: gen_random(1, 6, 3),
    lambda: gen_random(2, 5, 3),
    lambda: build_lad(3, 3),
    lambda: build_svm(1, 3),
], ids=["case1", "case2", "lad", "svm"])
def test_problem_round_trip_preserves_traces(tmp_path, inst_fn):
    inst = inst_fn()
    path = tmp_path / "problem.json"
    probio.save_problem(path, inst.problem, label=inst.label)
    loaded = probio.load_problem(path)
    assert (loaded.n, loaded.m, loaded.l) == (inst.problem.n, inst.problem.m, inst.problem.l)

    cfg = SolverConfig(solver="pds", eps=1e-3, iterations=120, trace_every=1)
    r1 = pds.solve(inst.problem, cfg)
    r2 = pds.solve(loaded, cfg)
    for a, b in zip(r1.trace, r2.trace):
        assert a.val == b.val and a.infeas == b.infeas
    np.testing.assert_array_equal(r1.x_out, r2.x_out)

    cfg_sg = SolverConfig(solver="sg", eps=1e-3, iterations=120, trace_every=1)
    s1 = sg.solve(inst.problem, cfg_sg)
    s2 = sg.solve(loaded, cfg_sg)
    for a, b in zip(s1.trace, s2.trace):
        assert a.val == b.val and a.infeas == b.infeas


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        probio.oracle_from_node({"op": "mystery"})


def test_inconsistent_sizes_rejected():
    doc = probio.problem_to_dict(gen_random(1, 5, 1).problem)
    doc["m"] = 7
    with pytest.raises(ValueError):
        probio.problem_from_dict(doc)


def test_document_shape():
    inst = gen_random(2, 4, 2)
    doc = probio.problem_to_dict(inst.problem, label=inst.label)
    assert set(doc) == {"n", "m", "l", "objective", "ineq", "A", "b", "label"}
    assert doc["m"] == len(doc["ineq"]) == 9
    assert len(doc["A"]) == doc["l"]
