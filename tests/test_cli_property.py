"""Property test: the CLI gives an exit code for every problem document.

Random small documents mix valid oracle nodes with wrong types, NaN and
infinite numbers, bad shapes and unknown ops. Sizes stay at 5 or less:
a huge ``dim`` would make a node allocate gigabytes, so that case is not
drawn here.
"""

import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from subgrad.cli import main  # noqa: E402

MAX_SIZE = 5
BAD = st.sampled_from([float("nan"), float("inf"), -float("inf"), "x", None, True,
                       [], {}, [[1.0]]])
NUMBER = st.floats(-5.0, 5.0)


def field(strategy, faulty):
    """The valid strategy; in a faulty document, now and then a wrong value."""
    return st.one_of(strategy, strategy, strategy, BAD) if faulty else strategy


def vector(size, faulty):
    right = st.lists(NUMBER, min_size=size, max_size=size)
    if faulty:
        right = st.one_of(right, right, st.lists(field(NUMBER, True), max_size=MAX_SIZE))
    return field(right, faulty)


@st.composite
def node(draw, dim, faulty, depth=0):
    ops = ["affine", "abs_affine", "norm1", "sq_norm", "hinge_sum", "log_barrier"]
    if depth < 2:
        ops += ["max", "sum", "pos"]
    if faulty:
        ops.append("bogus")
    op = draw(st.sampled_from(ops))
    size = field(st.integers(-1, MAX_SIZE) if faulty else st.just(dim), faulty)
    coords = st.lists(st.integers(-1 if faulty else 0, dim if faulty else dim - 1),
                      max_size=MAX_SIZE)
    if op == "affine":
        fields = {"c": vector(dim, faulty), "d": field(NUMBER, faulty)}
    elif op == "abs_affine":
        fields = {"a": vector(dim, faulty), "b": field(NUMBER, faulty)}
    elif op in ("max", "sum"):
        fields = {"parts": field(st.lists(node(dim, faulty, depth + 1),
                                          min_size=1, max_size=3), faulty)}
    elif op == "pos":
        fields = {"arg": field(node(dim, faulty, depth + 1), faulty)}
    elif op == "norm1":
        fields = {"dim": size, "coords": field(coords, faulty),
                  "offset": field(NUMBER, faulty)}
    elif op == "sq_norm":
        fields = {"dim": size, "coords": field(coords, faulty),
                  "scale": field(st.floats(0.0, 5.0), faulty)}
    elif op == "hinge_sum":
        # one label per coordinate; a faulty document may break the pairing
        cs = draw(field(coords, faulty))
        n_labels = len(cs) if isinstance(cs, list) else 0
        labels = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_labels,
                          max_size=n_labels)
        fields = {"dim": size, "coords": st.just(cs),
                  "labels": vector(n_labels, True) if faulty else labels,
                  "scale": field(st.floats(0.0, 5.0), faulty)}
    elif op == "log_barrier":
        fields = {"dim": size,
                  "index": field(st.integers(-1, dim) if faulty else st.integers(0, dim - 1),
                                 faulty),
                  "shift": field(NUMBER, faulty), "offset": field(NUMBER, faulty)}
    else:
        fields = {}
    doc = {"op": op}
    for key, strategy in fields.items():
        if not faulty or draw(st.integers(0, 9)):  # a field may go missing
            doc[key] = draw(strategy)
    return doc


@st.composite
def problem_document(draw):
    """Half the documents are well formed; the rest may hold faults anywhere."""
    faulty = draw(st.booleans())
    dim = draw(st.integers(1, MAX_SIZE))
    rows = draw(st.integers(0, MAX_SIZE))
    doc = {
        "objective": draw(field(node(dim, faulty), faulty)),
        "ineq": draw(field(st.lists(node(dim, faulty), max_size=3), faulty)),
        "A": draw(field(st.lists(vector(dim, faulty), min_size=rows, max_size=rows),
                        faulty)),
        "b": draw(vector(rows, faulty)),
    }
    if faulty:
        for key in ("n", "m", "l"):
            if draw(st.booleans()):
                doc[key] = draw(field(st.integers(0, MAX_SIZE), True))
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(problem_document())
@example({"objective": {"op": "norm1", "dim": float("inf")}})  # int(inf) overflows
def test_run_exit_code_is_defined_for_any_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for solver in ("sg", "sdsg", "mdsg", "pds"):
            code = main(["run", "--problem", "file", "--in", path, "--solver", solver,
                         "--K", "5"])
            assert code in (0, 2, 3), (solver, code)
