import hashlib
import json

import numpy as np
import pytest

from test_replay import INSTANCES, trace_digest

from subgrad import pds, probio, sg, solve
from subgrad.oracles import (AbsAffineOracle, AffineBlockOracle, AffineOracle, ConvexOracle,
                             HingeSumOracle, LogBarrierOracle, MaxOracle, Norm1Oracle,
                             PositivePart, SqNormOracle, SumOracle)
from subgrad.problem import ConstrainedProblem, single_constraint_form
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


# an AffineBlockOracle is one affine_block node, and reads back as a block
BLOCKS = [AffineBlockOracle([[1.0, -2.0], [0.5, 0.0], [0.0, 1.0]], [0.0, 0.25, -1.0]),
          AffineBlockOracle([[1.0, -2.0], [0.5, 0.0], [0.0, 1.0]], [0.0, 0.25, -1.0], True)]


@pytest.mark.parametrize("oracle", ROUND_TRIP_ORACLES + BLOCKS, ids=lambda o: type(o).__name__)
def test_oracle_round_trip(oracle):
    node = oracle_json = probio.oracle_to_node(oracle)
    json.dumps(node)  # must be serializable
    back = probio.oracle_from_node(oracle_json)
    assert type(back) is type(oracle)
    assert probio.oracle_to_node(back) == node
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.normal(size=2)
        v1, g1 = oracle(x)
        v2, g2 = back(x)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


# sha256 of json.dumps(problem_to_dict(...)): the exact bytes of the format,
# which are also the bytes of the file that save_problem writes
BYTE_PINS = pytest.mark.parametrize("build,digest", [
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


@BYTE_PINS
def test_document_bytes_are_pinned(build, digest):
    text = json.dumps(probio.problem_to_dict(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # reading the document back writes the same bytes; all-nodes has "A": []
    back = probio.problem_from_dict(json.loads(text))
    assert json.dumps(probio.problem_to_dict(back)) == text


@BYTE_PINS
def test_saved_file_bytes_are_pinned(tmp_path, build, digest):
    problem = build()
    path = tmp_path / "problem.json"
    probio.save_problem(path, problem)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    probio.save_problem(path, problem, label="case-\u00e9")
    text = json.dumps(probio.problem_to_dict(problem, label="case-\u00e9"))
    assert path.read_bytes() == text.encode()


class _Unwritable(ConvexOracle):
    """A user oracle that the document format has no node for."""

    dim = 1

    def __call__(self, x):
        return float(x[0]), np.ones(1)


def test_failed_save_leaves_file_unchanged(tmp_path):
    path = tmp_path / "problem.json"
    probio.save_problem(path, gen_random(1, 5, 1).problem, label="kept")
    before = path.read_bytes()
    with pytest.raises(TypeError, match="cannot serialize oracle of type _Unwritable"):
        probio.save_problem(path, ConstrainedProblem(_Unwritable(), [AffineOracle([-1.0])]))
    assert path.read_bytes() == before


def _pos_chain(depth):
    node = {"op": "affine", "c": [-1.0], "d": 0.0}
    for _ in range(depth):
        node = {"op": "pos", "arg": node}
    return node


def test_node_depth_limit():
    # the objective is at depth 0, so a chain of MAX_NODE_DEPTH pos nodes is the deepest
    deepest = probio.oracle_from_node(_pos_chain(probio.MAX_NODE_DEPTH))
    assert deepest.value(np.array([-2.0])) == 2.0
    depth = probio.MAX_NODE_DEPTH + 1
    with pytest.raises(ValueError, match=f"^oracle node at depth {depth} is nested deeper"):
        probio.oracle_from_node(_pos_chain(depth))
    doc = {"objective": {"op": "affine", "c": [1.0]},
           "ineq": [{"op": "sum", "parts": [_pos_chain(probio.MAX_NODE_DEPTH)]}]}
    with pytest.raises(ValueError, match=f"depth {depth}"):
        probio.problem_from_dict(doc)


def test_undecodable_nesting_is_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        probio.load_problem(path)


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


MAX_FORM_LABELS = ["case2-n4-s2", "lad-nbar3-s1", "svm-nbar1-s1", "dense-rows-s8"]

# the op of each oracle type, as oracle_to_node writes it
OPS = {cls: op for op, (cls, _) in probio._NODES.items()}


def assert_same_runs(single, back):
    """sg and sdsg give the same status, trace digest and x_out bytes on both forms."""
    for solver in ("sg", "sdsg"):
        cfg = SolverConfig(solver=solver, iterations=200)
        r1, r2 = solve(single, cfg), solve(back, cfg)
        assert (r1.status, trace_digest(r1.trace)) == (r2.status, trace_digest(r2.trace))
        assert r1.x_out.tobytes() == r2.x_out.tobytes()


@pytest.mark.parametrize("label", MAX_FORM_LABELS)
def test_max_constraint_form_round_trip_preserves_traces(label):
    # the form stacks row runs and the equality residuals into AffineBlockOracles,
    # and each part of the max, a block too, is written as one node
    single = single_constraint_form(INSTANCES[label]())
    parts = single.ineq[0].parts
    assert any(isinstance(part, AffineBlockOracle) for part in parts)
    doc = probio.problem_to_dict(single)
    back = probio.problem_from_dict(json.loads(json.dumps(doc)))
    assert_same_runs(single, back)
    assert [node["op"] for node in doc["ineq"][0]["parts"]] == [OPS[type(q)] for q in parts]
    assert [type(q) for q in back.ineq[0].parts] == [type(q) for q in parts]


def short_abs_run():
    """Two AbsAffineOracle inequalities and l = 4 equality rows."""
    rng = np.random.default_rng(3)
    return ConstrainedProblem(AffineOracle(rng.standard_normal(3)),
                              [AbsAffineOracle(rng.standard_normal(3), 0.5),
                               AbsAffineOracle(rng.standard_normal(3), -0.25)],
                              rng.standard_normal((4, 3)), rng.standard_normal(4))


def max_form(label):
    return single_constraint_form(short_abs_run() if label == "short-abs-run"
                                  else INSTANCES[label]())


def test_max_form_of_short_abs_run_and_equality_block_reads_back_its_parts():
    # the equality block stays one part beside the two rows, in memory and after a reload
    single = max_form("short-abs-run")
    back = probio.problem_from_dict(json.loads(json.dumps(probio.problem_to_dict(single))))
    for form in (single, back):
        assert [type(q) for q in form.ineq[0].parts] == [AbsAffineOracle, AbsAffineOracle,
                                                         AffineBlockOracle]
        assert form.ineq[0].parts[2].C.shape == (4, 3)
    assert_same_runs(single, back)


def block_row_nodes(block):
    """A block as the row nodes that documents held before the affine_block node."""
    rows = zip(block.C.tolist(), block.d.tolist())
    if block.absolute:
        return [{"op": "abs_affine", "a": c, "b": -d} for c, d in rows]
    return [{"op": "affine", "c": c, "d": d} for c, d in rows]


@pytest.mark.parametrize("label", MAX_FORM_LABELS + ["short-abs-run"])
def test_nested_max_layout_still_loads(label):
    # older documents hold one max node of rows per block
    single = max_form(label)
    doc = probio.problem_to_dict(single)
    doc["ineq"] = [{"op": "max", "parts": [
        {"op": "max", "parts": block_row_nodes(q)} if isinstance(q, AffineBlockOracle)
        else probio.oracle_to_node(q) for q in single.ineq[0].parts]}]
    back = probio.problem_from_dict(json.loads(json.dumps(doc)))
    assert_same_runs(single, back)
    for q, q_back in zip(single.ineq[0].parts, back.ineq[0].parts, strict=True):
        if isinstance(q, AffineBlockOracle):  # one MaxOracle of the block's rows
            assert [probio.oracle_to_node(r) for r in q_back.parts] == block_row_nodes(q)


@pytest.mark.parametrize("label", MAX_FORM_LABELS + ["short-abs-run"])
def test_rows_in_place_layout_still_loads(label):
    # older documents hold a block's rows in place inside the max node
    single = max_form(label)
    doc = probio.problem_to_dict(single)
    doc["ineq"] = [{"op": "max", "parts": [
        node for q in single.ineq[0].parts
        for node in (block_row_nodes(q) if isinstance(q, AffineBlockOracle)
                     else [probio.oracle_to_node(q)])]}]
    back = probio.problem_from_dict(json.loads(json.dumps(doc)))
    assert_same_runs(single, back)
    # the rows read back as rows, one part per node
    assert [probio.oracle_to_node(q) for q in back.ineq[0].parts] == doc["ineq"][0]["parts"]


@pytest.mark.parametrize("parts", [5, {"op": "affine", "c": [1.0]}], ids=["number", "object"])
def test_parts_must_be_an_array(parts):
    for op in ("max", "sum"):
        with pytest.raises(ValueError, match="^parts must be an array of oracle nodes"):
            probio.oracle_from_node({"op": op, "parts": parts})


@pytest.mark.parametrize("doc,message", [
    ([], "^a problem document must be an object"),
    ("x", "^a problem document must be an object"),
    ({"ineq": []}, "^a problem document must be an object with an objective"),
    ({"objective": {"op": "affine", "c": [1.0]}, "ineq": 5}, "^ineq must be an array"),
    # an object would iterate its keys as nodes
    ({"objective": {"op": "affine", "c": [1.0]}, "ineq": {"op": "affine", "c": [1.0]}},
     "^ineq must be an array"),
    ({"objective": {"op": "norm1", "dim": float("inf")}}, "^dim must be an integer"),
    ({"objective": {"op": "norm1", "dim": -1}}, "^dim must be nonnegative"),
    ({"objective": {"op": "affine", "c": "ab"}}, "^c must hold numbers"),
], ids=["list", "text", "no-objective", "ineq-number", "ineq-object", "dim-inf",
        "dim-negative", "c-text"])
def test_bad_document_is_refused_by_name(doc, message):
    with pytest.raises(ValueError, match=message):
        probio.problem_from_dict(doc)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        probio.oracle_from_node({"op": "mystery"})


def test_inconsistent_sizes_rejected():
    doc = probio.problem_to_dict(gen_random(1, 5, 1).problem)
    doc["m"] = 7
    with pytest.raises(ValueError):
        probio.problem_from_dict(doc)


@pytest.mark.parametrize("key,value", [("n", True), ("n", "1"), ("m", 1.5), ("l", None)])
def test_document_sizes_follow_number_rule(key, value):
    doc = probio.problem_to_dict(ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])]))
    doc[key] = value
    with pytest.raises(ValueError, match=f"^{key} must be"):
        probio.problem_from_dict(doc)


def test_document_shape():
    inst = gen_random(2, 4, 2)
    doc = probio.problem_to_dict(inst.problem, label=inst.label)
    assert set(doc) == {"n", "m", "l", "objective", "ineq", "A", "b", "label"}
    assert doc["m"] == len(doc["ineq"]) == 9
    assert len(doc["A"]) == doc["l"]
