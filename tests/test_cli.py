import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subgrad
from subgrad import SolverConfig, probio, solve
from subgrad.cli import main
from subgrad.reports import gap
from subgrad.simplex import encode_lad, lp_solve_small
from subgrad.testbeds import build_lad, build_svm, gen_random


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_gap_formula():
    assert gap(0.25, 0.25) == 0.0
    assert gap(1.0, 0.0) == 0.5
    assert gap(0.5070, 0.5069) == pytest.approx(6.6357e-5, rel=1e-3)
    assert gap(0.5069, 0.5070) == gap(0.5070, 0.5069)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.normal(size=2)
        g = gap(a, b)
        assert 0.0 <= g
        if abs(a - b) < 1.0 + max(abs(a), abs(b)):
            assert g < 1.0


# an int past the float range is not finite by the number rule
@pytest.mark.parametrize("val,val_star", [
    (np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0),
    pytest.param(10**400, 0.0, id="10**400-0.0"), pytest.param(0.0, -10**400, id="0.0--10**400"),
])
def test_gap_refuses_a_nonfinite_value(val, val_star):
    with pytest.raises(ValueError, match="^gap requires finite values"):
        gap(val, val_star)


@pytest.mark.parametrize("val,val_star,message", [
    ("1.0", 0.0, "val must be a number, got '1.0'"),
    (True, 0.0, "val must be a number, got True"),
    (1.0, False, "val_star must be a number, got False"),
])
def test_gap_refuses_a_string_or_a_boolean_by_name(val, val_star, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        gap(val, val_star)


@pytest.mark.parametrize("fields,message", [
    (dict(iterations=-1), "iterations must be nonnegative"),
    (dict(trace_every=0), "trace_every must be >= 1"),
    (dict(solver="pds", s_exp=0.5), r"s_exp must lie in \[1, 2\]"),
    (dict(solver="pds", s_exp=2.5), r"s_exp must lie in \[1, 2\]"),
    (dict(solver="pds", delta_exp=0.0), r"delta_exp must lie in \(0, 1\)"),
    (dict(solver="pds", delta_exp=1.0), r"delta_exp must lie in \(0, 1\)"),
    # one rule for every solver, though only pds reads these settings
    (dict(solver="sg", s_exp=0.5), r"s_exp must lie in \[1, 2\]"),
    (dict(solver="mdsg", delta_exp=1.0), r"delta_exp must lie in \(0, 1\)"),
    (dict(solver="sdsg", rho=-1.0), "rho must be positive and finite"),
    (dict(iterations=float("inf")), "iterations must be an integer, got inf"),
    (dict(iterations=float("nan")), "iterations must be an integer, got nan"),
    (dict(trace_every=float("inf")), "trace_every must be an integer, got inf"),
    # each number field is checked once, with the same message
    (dict(eps="1"), "eps must be a number, got '1'"),
    (dict(s_exp="2"), "s_exp must be a number, got '2'"),
    (dict(delta_exp=True), "delta_exp must be a number, got True"),
    (dict(solver="sg", rho="1"), "rho must be a number, got '1'"),
    # an integer too large for a float passes the number check, not this one
    (dict(eps=10**400), "eps must be within the float range"),
    (dict(solver="sg", rho=10**400), "rho must be within the float range"),
    (dict(s_exp=5.0), r"s_exp must lie in \[1, 2\]"),
    (dict(s_exp=9.0), r"s_exp must lie in \[1, 2\]"),
    (dict(delta_exp=1.5), r"delta_exp must lie in \(0, 1\)"),
    (dict(rho=float("inf")), "rho must be positive and finite"),
    (dict(rho=True), "rho must be a number, got True"),
])
def test_solver_config_refuses_out_of_range_settings(fields, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        SolverConfig(**fields)


def test_solver_config_takes_any_integer():
    assert SolverConfig(iterations=10**400, trace_every=2.0).iterations == 10**400


def test_solver_config_cannot_be_changed_once_built():
    cfg = SolverConfig(trace_every=2.0, eps=1)
    assert (cfg.trace_every, cfg.eps) == (2, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.s_exp = 5.0


def test_solver_config_with_a_start_block_compares_and_hashes_by_identity():
    # field-wise equality would compare the arrays, which has no truth value
    cfg = SolverConfig(x0=np.zeros(2))
    assert cfg == cfg and cfg != SolverConfig(x0=np.zeros(2))
    assert {cfg: "run"}[cfg] == "run"


def test_run_writes_trace_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "case1", "--n", "10", "--seed", "1",
                 "--solver", "pds", "--s", "2", "--rho", "0.5", "--delta", "0.5",
                 "--K", "2000", "--eps", "1e-3", "--trace-every", "10",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "k,val,infeas,elapsed_s"
    assert len(rows) == 200  # K / trace_every
    ks = [int(r[0]) for r in rows]
    assert ks == sorted(ks) and ks[-1] == 2000
    summary = capsys.readouterr().out.splitlines()
    assert summary[0] == "method,s,val,infeas,gap,time_s"
    fields = summary[1].split(",")
    assert fields[0] == "pds" and fields[4] == "NA"


def test_trace_of_an_early_stop_ends_at_the_reported_point(tmp_path, capsys):
    # f0 = max{x + 1, 0} from x = 0 in steps of eps: x_4 = -1.2 has f0 = 0 and
    # a zero subgradient, so step 5 stops the run before the row of k = 6
    pfile = tmp_path / "pos.json"
    pfile.write_text(json.dumps(
        {"objective": {"op": "pos", "arg": {"op": "affine", "c": [1.0], "d": 1.0}}}))
    out = tmp_path / "trace.csv"
    assert main(["run", "--problem", "file", "--in", str(pfile), "--solver", "sg",
                 "--eps", "0.3", "--K", "10", "--trace-every", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [int(r[0]) for r in rows] == [3, 4]
    assert float(rows[-1][1]) == 0.0
    summary = capsys.readouterr().out.splitlines()
    assert summary[1].split(",")[2] == "0.0"
    assert summary[2] == "# p_eps=0.0 status=SADDLE_TERMINATED"


def test_run_is_deterministic_modulo_elapsed(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["run", "--problem", "lad", "--nbar", "3", "--seed", "2",
                     "--solver", "mdsg", "--K", "500", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        outs.append([r[:3] for r in rows])  # drop the elapsed column
    assert outs[0] == outs[1]


def test_run_from_problem_file_matches_generated(tmp_path):
    inst = gen_random(1, 8, 4)
    pfile = tmp_path / "p.json"
    probio.save_problem(pfile, inst.problem)
    out_mem = tmp_path / "mem.csv"
    out_file = tmp_path / "file.csv"
    assert main(["run", "--problem", "case1", "--n", "8", "--seed", "4",
                 "--solver", "sg", "--K", "300", "--out", str(out_mem)]) == 0
    assert main(["run", "--problem", "file", "--in", str(pfile),
                 "--solver", "sg", "--K", "300", "--out", str(out_file)]) == 0
    _, rows_mem = read_csv(out_mem)
    _, rows_file = read_csv(out_file)
    assert [r[:3] for r in rows_mem] == [r[:3] for r in rows_file]


def test_run_valstar_enables_gap(capsys):
    assert main(["run", "--problem", "case1", "--n", "6", "--seed", "1",
                 "--solver", "pds", "--K", "200", "--valstar", "-0.5"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[4] != "NA"


def test_missing_size_flag_is_config_error(capsys):
    assert main(["run", "--problem", "case1", "--solver", "sg"]) == 2


def test_unknown_solver_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "case1", "--n", "6", "--solver", "bogus"])
    assert exc.value.code == 2


def test_unwritable_output_exits_three(tmp_path):
    code = main(["run", "--problem", "case1", "--n", "6", "--seed", "1",
                 "--solver", "sg", "--K", "50",
                 "--out", str(tmp_path / "missing_dir" / "t.csv")])
    assert code == 3


def _pos_chain_text(depth):
    # built as text: json.dumps itself refuses a few thousand levels
    return '{"op": "pos", "arg": ' * depth + '{"op": "affine", "c": [-1.0]}' + "}" * depth


def test_bad_problem_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    documents = [
        "{not json",
        # parts is not a list of nodes
        json.dumps({"objective": {"op": "max", "parts": 5}}),
        # a coordinate outside [0, dim) would only fail inside a solve
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "norm1", "dim": 2, "coords": [5]}]}),
        json.dumps({"objective": 5}),
        # json reads NaN; the equality rows must be finite
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "A": [[float("nan"), 1.0]], "b": [0.0]}),
        # scalar fields must be finite, labels too
        json.dumps({"objective": {"op": "affine", "c": [1.0], "d": float("nan")},
                    "ineq": [{"op": "affine", "c": [-1.0], "d": float("inf")}]}),
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "hinge_sum", "dim": 2, "coords": [0, 1],
                              "labels": [float("nan"), 1.0]}]}),
        # sizes and indices are not truncated to integers
        json.dumps({"objective": {"op": "norm1", "dim": 2.7},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}),
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "norm1", "dim": 2, "coords": [0.5, 1.7]}]}),
        # a repeated coordinate would give a wrong subgradient
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "norm1", "dim": 2, "coords": [0, 0]}]}),
        # strings and booleans are not numbers
        json.dumps({"objective": {"op": "affine", "c": ["1", "0"], "d": True},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}),
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0], "d": True},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}),
        json.dumps({"objective": {"op": "norm1", "dim": 2, "coords": [True]},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}),
        # the equality rows follow the same number rule
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}],
                    "A": [["1", True]], "b": ["0.5"]}),
        # so do the sizes: True == 1, and "1" is no number
        json.dumps({"n": True, "objective": {"op": "affine", "c": [1.0]},
                    "ineq": [{"op": "affine", "c": [-1.0]}]}),
        json.dumps({"n": "1", "objective": {"op": "affine", "c": [1.0]},
                    "ineq": [{"op": "affine", "c": [-1.0]}]}),
        # a negative scale makes a squared norm or a hinge sum concave
        json.dumps({"objective": {"op": "sq_norm", "dim": 2, "scale": -1},
                    "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}),
        json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                    "ineq": [{"op": "hinge_sum", "dim": 2, "coords": [0, 1],
                              "labels": [1.0, -1.0], "scale": -0.5}]}),
        # nodes nested past probio.MAX_NODE_DEPTH: 600 would decode and then
        # overflow the stack in a solve, 5000 overflow it in the decoder
        '{"objective": {"op": "affine", "c": [1.0]}, "ineq": [%s]}' % _pos_chain_text(600),
        '{"objective": %s}' % _pos_chain_text(5000),
        # parts must be an array: a number, or an object, which would iterate its keys
        json.dumps({"objective": {"op": "affine", "c": [1.0]},
                    "ineq": [{"op": "sum", "parts": 5}]}),
        json.dumps({"objective": {"op": "max", "parts": {"op": "affine", "c": [1.0]}}}),
        # an affine_block node: ragged or NaN C, a d of another length, and an
        # absolute that is not a JSON boolean
        *(json.dumps({"objective": {"op": "affine", "c": [1.0, 0.0]},
                      "ineq": [{"op": "affine_block", **block}]}) for block in [
            {"C": [[1.0, 0.0], [0.0]], "d": [0.0, 0.0]},
            {"C": [[1.0, float("nan")]], "d": [0.0]},
            {"C": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0]},
            {"C": [[1.0, 0.0]], "d": [0.0], "absolute": 1},
            {"C": [[1.0, 0.0]], "d": [0.0], "absolute": "true"},
            {"C": [[1.0, 0.0]], "d": [0.0], "absolute": None},
        ]),
    ]
    for text in documents:
        bad.write_text(text)
        assert main(["run", "--problem", "file", "--in", str(bad), "--solver", "mdsg",
                     "--K", "10"]) == 2, text
    # a batch file nested too deeply to decode
    bad.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["compare", "--batch", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read batch file:")


def test_run_solver_refusal_exits_two(tmp_path, capsys):
    # sdsg needs a constraint to collapse; compare turns this into an NA row
    pfile = tmp_path / "free.json"
    pfile.write_text(json.dumps({"objective": {"op": "affine", "c": [1.0]}}))
    assert main(["run", "--problem", "file", "--in", str(pfile), "--solver", "sdsg",
                 "--K", "10"]) == 2
    assert "at least one constraint" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_gap_is_na_for_nonfinite_value(tmp_path, capsys):
    pfile = tmp_path / "huge.json"
    pfile.write_text(json.dumps({"objective": {"op": "affine", "c": [1e308, 1e308]},
                                 "ineq": [{"op": "affine", "c": [-1.0, 0.0]}]}))
    assert main(["run", "--problem", "file", "--in", str(pfile), "--solver", "sdsg",
                 "--K", "50", "--valstar", "0"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[2] == "nan" and fields[4] == "NA"


def test_compare_emits_row_per_method(tmp_path, capsys):
    batch = {
        "problem": {"kind": "case1", "n": 8, "seed": 1},
        "K": 400, "eps": 1e-3, "delta": 0.5, "trace_every": 10,
        "lp_oracle": True,
        "methods": [{"solver": "sg"}, {"solver": "sdsg"}, {"solver": "mdsg"},
                    {"solver": "pds", "s": 1}, {"solver": "pds", "s": 1.5},
                    {"solver": "pds", "s": 2}],
    }
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps(batch))
    out = tmp_path / "summary.csv"
    assert main(["compare", "--batch", str(bfile), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,s,val,infeas,gap,time_s"
    assert lines[1].startswith("oracle,")
    methods = [line.split(",")[0] for line in lines[2:]]
    assert methods == ["sg", "sdsg", "mdsg", "pds", "pds", "pds"]
    # gap column filled from the LP oracle
    assert all(line.split(",")[4] != "NA" for line in lines[2:])
    assert out.read_text().splitlines() == lines


def test_compare_lp_oracle_on_lad(tmp_path, capsys):
    # nbar = 10: at nbar = 100 the LP oracle ends NUMERICAL_LIMIT
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "lad", "nbar": 10, "seed": 1},
                                 "K": 50, "lp_oracle": True, "methods": [{"solver": "mdsg"}]}))
    assert main(["compare", "--batch", str(bfile)]) == 0
    oracle, mdsg = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    lp = lp_solve_small(encode_lad(build_lad(10, 1).problem, 10))
    assert oracle[:5] == ["oracle", "NA", repr(lp.value), "0.0", "0.0"]
    assert mdsg[0] == "mdsg" and mdsg[4] == repr(gap(float(mdsg[2]), lp.value))


def test_compare_unwritable_out_exits_three_after_printing(tmp_path, capsys):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "case1", "n": 6}, "K": 10,
                                 "methods": [{"solver": "sg"}]}))
    out = tmp_path / "missing_dir" / "summary.csv"
    assert main(["compare", "--batch", str(bfile), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert [line.split(",")[0] for line in captured.out.splitlines()] == ["method", "sg"]
    assert captured.err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


@pytest.mark.parametrize("lp_oracle", [None, False])
def test_compare_without_lp_oracle_has_no_oracle_row(tmp_path, capsys, lp_oracle):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "case1", "n": 6}, "K": 10,
                                 "lp_oracle": lp_oracle, "methods": [{"solver": "sg"}]}))
    assert main(["compare", "--batch", str(bfile)]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()] == [
        "method", "sg"]


def test_compare_infeas_is_one_measure_at_x_out(tmp_path, capsys):
    # the summary's infeas is problem.infeasibility(x_out) for every method,
    # whatever measure the solver's own trace uses
    solvers = ["sg", "sdsg", "mdsg", "pds"]
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "svm", "nbar": 1, "seed": 1},
                                 "K": 300, "trace_every": 10,
                                 "methods": [{"solver": s} for s in solvers]}))
    assert main(["compare", "--batch", str(bfile)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    problem = build_svm(1, 1).problem
    for solver, row in zip(solvers, rows, strict=True):
        report = solve(problem, SolverConfig(solver=solver, iterations=300, trace_every=10))
        assert row[:4] == [solver, "NA" if solver != "pds" else "2.0",
                           repr(report.final.val), repr(problem.infeasibility(report.x_out))]


def test_compare_empty_methods_exits_two(tmp_path):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "case1", "n": 6, "seed": 1},
                                 "methods": []}))
    assert main(["compare", "--batch", str(bfile)]) == 2


def test_compare_lp_oracle_requires_supported_family(tmp_path):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "svm", "nbar": 1, "seed": 1},
                                 "lp_oracle": True,
                                 "methods": [{"solver": "sg"}]}))
    assert main(["compare", "--batch", str(bfile)]) == 2


@pytest.mark.parametrize("argv,batch", [
    (["run", "--problem", "case1", "--n", "1", "--solver", "sg", "--K", "10"], None),
    (["run", "--problem", "lad", "--nbar", "0", "--solver", "sg", "--K", "10"], None),
    (None, []),
    (None, {"problem": {"kind": "case1", "n": 6}, "methods": ["pds"]}),
    (None, {"problem": {"kind": "case1", "n": "10"}, "methods": [{"solver": "pds"}]}),
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "valstar": "x",
            "methods": [{"solver": "sg"}]}),
    (["run", "--problem", "case1", "--n", "10", "--solver", "sg", "--K", "10",
      "--eps", "inf"], None),
    (["run", "--problem", "case1", "--n", "10", "--solver", "pds", "--K", "10",
      "--rho", "inf"], None),
    (None, {"problem": {"kind": "case1", "n": float("inf")}, "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "valstar": 10**400,
            "methods": [{"solver": "sg"}]}),
    # json refuses integers of more than 4300 digits
    pytest.param(None, '{"problem": {"kind": "case1", "n": 6}, "valstar": ' + "9" * 5000
                 + ', "methods": [{"solver": "sg"}]}', id="None-overlong-valstar"),
    # a seed is an integer, not a boolean
    (None, {"problem": {"kind": "case1", "n": 6, "seed": True}, "methods": [{"solver": "sg"}]}),
    # run refuses a non-finite valstar as compare does
    (["run", "--problem", "case1", "--n", "10", "--solver", "sg", "--K", "10",
      "--valstar", "nan"], None),
    (["run", "--problem", "case1", "--n", "10", "--solver", "sg", "--K", "10",
      "--valstar", "inf"], None),
    # lp_oracle is a JSON boolean or null: these once ran the LP or skipped it
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "lp_oracle": "false",
            "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "lp_oracle": 0.5,
            "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "lp_oracle": 1,
            "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"kind": "case1", "n": 6}, "K": 10, "lp_oracle": [],
            "methods": [{"solver": "sg"}]}),
    # rho is checked for every solver, though only pds reads it
    (["run", "--problem", "case1", "--n", "10", "--solver", "sdsg", "--K", "5",
      "--rho", "-1"], None),
    # the batch problem is an object of a known kind
    (None, {"problem": [], "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"n": 6}, "methods": [{"solver": "sg"}]}),
    (None, {"problem": {"kind": "case3", "n": 6}, "methods": [{"solver": "sg"}]}),
    # a problem document (read by run --in) whose coords cannot be allocated:
    # 10**12 fails at once, where 10**8 would really allocate 800 MB
    (None, {"objective": {"op": "norm1", "dim": 1000000000000}}),
])
def test_bad_document_exits_two(tmp_path, capsys, argv, batch):
    if isinstance(batch, dict) and "objective" in batch:
        pfile = tmp_path / "problem.json"
        pfile.write_text(json.dumps(batch))
        argv = ["run", "--problem", "file", "--in", str(pfile), "--solver", "sg", "--K", "5"]
    elif argv is None:
        bfile = tmp_path / "batch.json"
        bfile.write_text(batch if isinstance(batch, str) else json.dumps(batch))
        argv = ["compare", "--batch", str(bfile)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if isinstance(batch, dict) and "lp_oracle" in batch:
        assert "lp_oracle" in err


@pytest.mark.parametrize("path", [0, 1, 2, True, 1.5, ["x"]])
def test_batch_path_must_be_a_string(tmp_path, path):
    # in a child process: open() took an integer path as a file descriptor,
    # which in pytest's own process would close or read its stdio
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "file", "path": path}, "K": 5,
                                 "methods": [{"solver": "sg"}]}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subgrad.__file__)))
    proc = subprocess.run([sys.executable, "-m", "subgrad.cli", "compare", "--batch", str(bfile)],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "path" in proc.stderr


@pytest.mark.parametrize("method,extra", [
    ({"solver": "pds", "s": "x"}, {}),
    ({"solver": "pds"}, {"K": "5"}),
    ({"solver": "pds", "rho": float("inf")}, {}),
    # booleans are not numbers, for any solver
    ({"solver": "pds"}, {"K": True}),
    ({"solver": "sg"}, {"eps": True}),
    ({"solver": "pds", "rho": True}, {}),
    ({"solver": "sg", "s": True}, {}),
])
def test_bad_method_gives_na_row(tmp_path, capsys, method, extra):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": {"kind": "case1", "n": 6}, "K": 10,
                                 "methods": [method], **extra}))
    assert main(["compare", "--batch", str(bfile)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith(f"{method['solver']},NA,NA,NA,NA,NA  # ")


@pytest.mark.parametrize("solver", ["sg,x", ["sg", "pds"], None])
def test_na_row_names_a_solver_or_na(tmp_path, capsys, solver):
    bfile, out = tmp_path / "batch.json", tmp_path / "summary.csv"
    bfile.write_text(json.dumps({"problem": {"kind": "case1", "n": 6}, "K": 10,
                                 "methods": [{"solver": solver}, {"solver": "pds", "s": "x"}]}))
    assert main(["compare", "--batch", str(bfile), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    # stdout says why each row is NA; the CSV holds six fields per line
    assert stdout[1].startswith("NA,NA,NA,NA,NA,NA  # unknown solver")
    assert stdout[2].startswith("pds,NA,NA,NA,NA,NA  # ")
    assert out.read_text().splitlines() == ["method,s,val,infeas,gap,time_s",
                                            "NA,NA,NA,NA,NA,NA", "pds,NA,NA,NA,NA,NA"]


@pytest.mark.parametrize("problem,key", [
    ({"kind": "file"}, "path"),
    ({"kind": "case1"}, "n"),
    ({"kind": "lad"}, "nbar"),
])
def test_batch_problem_messages_name_batch_keys(tmp_path, capsys, problem, key):
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps({"problem": problem, "K": 5, "methods": [{"solver": "sg"}]}))
    assert main(["compare", "--batch", str(bfile)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} is required for problem {problem['kind']}\n"
    # run names its own flags
    flag = {"path": "--in", "n": "--n", "nbar": "--nbar"}[key]
    assert main(["run", "--problem", problem["kind"], "--solver", "sg"]) == 2
    assert capsys.readouterr().err == f"error: {flag} is required for problem {problem['kind']}\n"


def test_readme_batch_example_runs(tmp_path, capsys):
    # the documented batch keys and defaults cannot drift from the code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    batch = json.loads(re.search(r"```json\n(.*?)```", cli_section, re.S).group(1))
    batch["K"] = 20
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps(batch))
    assert main(["compare", "--batch", str(bfile)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["method", "s", "val", "infeas", "gap", "time_s"]
    assert [row[0] for row in rows[1:]] == ["oracle"] + [m["solver"] for m in batch["methods"]]
    assert all(row[2] != "NA" and row[4] != "NA" for row in rows[1:])


@pytest.mark.parametrize("flags,message", [
    (["--valstar", "inf"], "valstar must be finite, got inf"),
    (["--K", "-1"], "iterations must be nonnegative"),
    (["--rho", "-1"], "rho must be positive and finite"),
    (["--s", "3"], "s_exp must lie in [1, 2]"),
])
def test_run_refusal_lines_are_pinned(capsys, flags, message):
    # the library's refusals reach stderr with their own text
    assert main(["run", "--problem", "case1", "--n", "6", "--solver", "sdsg", "--K", "5",
                 *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_compare_refusal_lines_are_pinned(tmp_path, capsys):
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"objective": {"op": "affine", "c": [1.0]}}))
    batch = {"problem": {"kind": "file", "path": str(free)}, "K": 5,
             "methods": [{"solver": "sdsg"}, {"solver": "pds", "s": "x"}]}
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps(batch))
    assert main(["compare", "--batch", str(bfile)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "sdsg,NA,NA,NA,NA,NA  # the max-constraint form needs at least one constraint;"
        " the problem has m = l = 0",
        "pds,NA,NA,NA,NA,NA  # s_exp must be a number, got 'x'"]
    bfile.write_text(json.dumps({**batch, "valstar": "x"}))
    assert main(["compare", "--batch", str(bfile)]) == 2
    assert capsys.readouterr().err == "error: batch valstar must be a number, got 'x'\n"
    # the wraps that add context keep it
    assert main(["run", "--problem", "file", "--in", str(tmp_path / "none.json"),
                 "--solver", "sg"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load problem file {tmp_path}")


def test_batch_integer_too_large_for_a_float_is_named(tmp_path, capsys):
    # json reads such a literal as an int, not as inf; every solver refuses it by name
    solvers = ["sg", "sdsg", "mdsg", "pds"]
    batch = {"problem": {"kind": "case1", "n": 6}, "K": 5, "eps": 10**400,
             "methods": [{"solver": s} for s in solvers]}
    bfile = tmp_path / "batch.json"
    bfile.write_text(json.dumps(batch))
    assert main(["compare", "--batch", str(bfile)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{s},NA,NA,NA,NA,NA  # eps must be within the float range" for s in solvers]
    bfile.write_text(json.dumps({**batch, "eps": 1e-3, "valstar": 10**400}))
    assert main(["compare", "--batch", str(bfile)]) == 2
    assert capsys.readouterr().err == "error: batch valstar must be within the float range\n"
