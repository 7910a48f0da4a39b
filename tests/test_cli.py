import json

import numpy as np
import pytest

from subgrad import SolverConfig, probio, solve
from subgrad.cli import main
from subgrad.reports import gap
from subgrad.testbeds import build_svm, gen_random


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


def test_bad_problem_file_is_config_error(tmp_path):
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
    ]
    for text in documents:
        bad.write_text(text)
        assert main(["run", "--problem", "file", "--in", str(bad), "--solver", "mdsg",
                     "--K", "10"]) == 2, text


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
])
def test_bad_document_exits_two(tmp_path, capsys, argv, batch):
    if argv is None:
        bfile = tmp_path / "batch.json"
        bfile.write_text(batch if isinstance(batch, str) else json.dumps(batch))
        argv = ["compare", "--batch", str(bfile)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
