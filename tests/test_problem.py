import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subgrad import SolverConfig, dsg, pds, solve
from subgrad.oracles import (ROW_BLOCK_MIN, AbsAffineOracle, AffineBlockOracle, AffineOracle,
                             ConvexOracle, MaxOracle, Norm1Oracle, PositivePart, euclidean_norm)
from subgrad.problem import (ConstrainedProblem, max_constraint_oracle, saddle_direction,
                             single_constraint_form, start_point)
from subgrad.reports import SADDLE_TERMINATED
from subgrad.simplex import LpProblem
from subgrad.testbeds import build_lad, build_svm, gen_random
from test_replay import assert_matches_transcription, dense_rows, reads_a_sum, row_bits
from test_sg import _CountingOracle
from transcription import direction, fbar


def one_d(c=1.0, ineq_c=None, A=None, b=None):
    ineq = [AffineOracle([ineq_c], 0.0)] if ineq_c is not None else []
    return ConstrainedProblem(AffineOracle([c]), ineq, A, b)


def test_shape_validation():
    with pytest.raises(ValueError):
        ConstrainedProblem(AffineOracle([1.0, 0.0]), [AffineOracle([1.0])])
    with pytest.raises(ValueError):
        ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0, 2.0]], b=[0.0])
    with pytest.raises(ValueError):
        ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[0.0, 1.0])
    with pytest.raises(ValueError, match="^A has a non-finite entry"):
        ConstrainedProblem(AffineOracle([1.0, 0.0]), [], A=[[np.nan, 1.0]], b=[0.0])
    with pytest.raises(ValueError, match="^b has a non-finite entry"):
        ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[np.inf])
    for no_rows in (None, [], np.zeros((0, 1))):
        assert ConstrainedProblem(AffineOracle([1.0]), [], A=no_rows).A.shape == (0, 1)


@pytest.mark.parametrize("A,b", [
    (np.zeros((2, 0)), None),  # two rows, not none
    (np.zeros((2, 0)), [0.0, 0.0]),  # the error names A, not b
    ([[]], None),
    (np.zeros((0, 5)), None),
], ids=["2x0", "2x0-with-b", "empty-row", "0x5"])
def test_equality_rows_need_n_columns(A, b):
    with pytest.raises(ValueError, match=r"^A has \d columns, expected 3"):
        ConstrainedProblem(AffineOracle([1.0, 0.0, 0.0]), [], A=A, b=b)


# A and b follow the number rule of oracle fields
@pytest.mark.parametrize("A,b,field", [
    ([["1", 0.0]], [0.0], "A"),
    ([[1.0, True]], [0.0], "A"),
    (np.array([[True, False]]), [0.0], "A"),
    ([[1.0, 0.0]], ["0.5"], "b"),
    ([[1.0, 0.0]], [False], "b"),
    ([[1.0, 0.0]], np.array([True]), "b"),
    ({"a": 1}, None, "A"),
], ids=["A-str", "A-bool", "A-numpy-bool", "b-str", "b-bool", "b-numpy-bool", "A-dict"])
def test_constructor_rejects_non_numbers(A, b, field):
    with pytest.raises(ValueError, match=f"^{field} must hold numbers"):
        ConstrainedProblem(AffineOracle([1.0, 0.0]), [], A=A, b=b)


def test_violation_vector():
    p = ConstrainedProblem(AffineOracle([1.0]))
    assert p.violation_vector(np.array([2.0])).shape == (0,)

    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([1.0], -1.0)])
    np.testing.assert_array_equal(p.violation_vector(np.array([3.0])), [2.0])
    np.testing.assert_array_equal(p.violation_vector(np.array([0.5])), [0.0])


def test_infeasibility():
    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])])
    assert p.infeasibility(np.array([4.0])) == 0.0

    p = ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[1.0])
    assert p.infeasibility(np.array([0.0])) == 1.0

    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([1.0])], A=[[1.0]], b=[0.0])
    assert p.infeasibility(np.array([2.0])) == pytest.approx(4.0)


class _CountedSubgrads(ConvexOracle):
    """Another oracle read through select and subgrad, counting the subgradients it builds."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim
        self.built = 0

    def select(self, x):
        return self.inner.select(x)

    def subgrad(self, key):
        self.built += 1
        return self.inner.subgrad(key)


def test_infeasibility_and_direction_build_only_the_subgradients_they_add():
    def problem(wrap):
        # at x = (1, -2): row 0 is inactive (-2), rows 1 and 2 active (2.5 and 2)
        rows = [AffineOracle([1.0, 0.0], -3.0), AffineOracle([0.0, -1.0], 0.5),
                Norm1Oracle(2, offset=-1.0)]
        return ConstrainedProblem(AffineOracle([1.0, 1.0]), [wrap(o) for o in rows],
                                  A=[[1.0, 2.0]], b=[0.5])

    p, plain = problem(_CountedSubgrads), problem(lambda o: o)
    x = np.array([1.0, -2.0])
    assert p.infeasibility(x) == plain.infeasibility(x)
    assert [o.built for o in p.ineq] == [0, 0, 0]
    # a row is built only where it is added: f_i(x) > 0 and w_i != 0
    for lam, rho, built in [((0.0, 0.0, 0.0), 0.0, [0, 0, 0]), ((3.0, 0.0, 2.0), 0.0, [0, 0, 1]),
                            ((3.0, 0.0, 0.0), 0.5, [0, 1, 1])]:
        z = np.concatenate([x, lam, [0.7]])
        t = saddle_direction(p, z, rho)[0]
        assert t.tobytes() == saddle_direction(plain, z, rho)[0].tobytes()
        assert [o.built for o in p.ineq] == built
        for o in p.ineq:
            o.built = 0


@pytest.mark.parametrize("case", [1, 2])
def test_value_first_traces_equal_the_unwrapped_problem(case):
    # every row read through select and subgrad, so no AffineOracle run is stacked;
    # the bits are per row either way
    p = gen_random(case, 6, 3).problem
    q = ConstrainedProblem(p.f0, [_CountedSubgrads(o) for o in p.ineq], p.A, p.b)
    for solver in ("sg", "sdsg", "mdsg", "pds"):
        cfg = SolverConfig(solver=solver, iterations=300, trace_every=7)
        a, b = solve(q, cfg), solve(p, cfg)
        assert [(r.k, r.val, r.infeas) for r in a.trace] == [(r.k, r.val, r.infeas) for r in b.trace]
        assert (a.status, a.p_eps, a.x_out.tobytes()) == (b.status, b.p_eps, b.x_out.tobytes())


def test_sg_builds_fbar_subgradient_only_before_constraint_steps():
    # fbar's subgradient is built at x0 and at each later iterate whose fbar(x) > eps,
    # i.e. only where the next step descends fbar
    p = gen_random(1, 10, 5).problem
    fbar = _CountedSubgrads(single_constraint_form(p).ineq[0])
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=400, trace_every=1)
    r = solve(ConstrainedProblem(p.f0, [fbar]), cfg)
    assert [row.k for row in r.trace] == list(range(1, 401))
    constraint_iterates = sum(row.infeas > cfg.eps for row in r.trace)
    assert 0 < constraint_iterates < 400
    x0_descends_fbar = fbar.value(np.zeros(p.n)) > cfg.eps
    assert fbar.built == x0_descends_fbar + constraint_iterates
    plain = solve(p, cfg)
    assert [(a.val, a.infeas) for a in r.trace] == [(a.val, a.infeas) for a in plain.trace]


def test_row_blocks_start_at_a_64_byte_boundary():
    # a misaligned A is copied once, aligned; the max form's equality block shares it
    buf = np.arange(1.0, 60.0)
    k = next(k for k in range(8) if (buf.ctypes.data + 8 * k) % 64)
    A = buf[k:k + 20].reshape(4, 5)
    p = ConstrainedProblem(AffineOracle(np.ones(5)), [], A=A, b=np.zeros(4))
    lp = LpProblem(c=np.ones(5), A_eq=A, b_eq=np.zeros(4), lower=np.zeros(5),
                   upper=np.ones(5))
    block = AffineBlockOracle(A, np.zeros(4))
    for rows in (p.A, lp.A_eq, block.C):
        assert rows.ctypes.data % 64 == 0 and rows.flags.c_contiguous
        assert rows.tobytes() == A.tobytes()
    assert max_constraint_oracle(p).parts[-1].C is p.A
    # the B of a slack-form A = [B | I] is a copy, aligned the same way
    for cols in range(1, 9):
        B = buf[:4 * cols].reshape(4, cols)
        s = ConstrainedProblem(AffineOracle(np.ones(cols + 4)), [], A=np.hstack([B, np.eye(4)]))
        assert s._B.ctypes.data % 64 == 0 and s._B.flags.c_contiguous
        assert s._B.tobytes() == B.tobytes()


def test_max_constraint_oracle():
    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([1.0], -1.0)],
                           A=[[1.0]], b=[0.0])
    fbar = max_constraint_oracle(p)
    v, g = fbar(np.array([2.0]))
    assert v == 2.0 and g[0] == 1.0  # |x| branch wins at x = 2

    # m = 1, l = 0 degenerates to the single inequality
    q = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([1.0], -1.0)])
    fbar_q = max_constraint_oracle(q)
    for x in [np.array([-1.0]), np.array([0.3]), np.array([5.0])]:
        assert fbar_q(x) == q.ineq[0](x)

    with pytest.raises(ValueError):
        max_constraint_oracle(ConstrainedProblem(AffineOracle([1.0])))


def assert_same_fbar(p, points):
    # the transcription's fbar has one call per constraint row: what the blocks must reproduce
    for x in points:
        (v, g), (v_ref, g_ref) = max_constraint_oracle(p)(x), fbar(p, x)
        assert np.float64(v).tobytes() == np.float64(v_ref).tobytes(), x
        np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("make,n_parts", [
    (lambda: gen_random(2, 4, 1), 3),      # box block, domain max, one equality row
    (lambda: gen_random(2, 100, 1), 3),    # box block, domain max, equality block
    (lambda: gen_random(1, 10, 1), 3),     # l1 ball, two equality rows
    (lambda: gen_random(1, 1000, 1), 2),
    (lambda: build_lad(3, 1), 1),
    (lambda: build_svm(1, 1), 1),          # 200 equality rows in one block
], ids=["case2-n4", "case2-n100", "case1-n10", "case1-n1000", "lad-nbar3", "svm-nbar1"])
def test_block_fbar_matches_per_row_fbar(make, n_parts):
    p = make().problem
    assert len(max_constraint_oracle(p).parts) == n_parts
    rng = np.random.default_rng(0)
    xs = [rng.uniform(-2.0, 2.0, p.n) for _ in range(20)]
    assert_same_fbar(p, xs + [np.round(x) for x in xs] + [np.zeros(p.n)])


def test_block_fbar_ties_and_run_lengths():
    e = np.eye(2)
    f0 = AffineOracle([1.0, 0.0])
    box = [AffineOracle(c, -1.0) for c in (e[0], e[1], -e[0], -e[1])]
    # rows 0 and 1 tie at x = (2, 2): the lower index wins
    p = ConstrainedProblem(f0, box)
    assert [type(q) for q in max_constraint_oracle(p).parts] == [AffineBlockOracle]
    np.testing.assert_array_equal(max_constraint_oracle(p)(np.array([2.0, 2.0]))[1], e[0])
    assert_same_fbar(p, [np.array([2.0, 2.0]), np.array([-3.0, 0.5])])
    # r = 0 on every equality row at x = 0 takes sign(0) = +1 on row 0
    q = ConstrainedProblem(f0, [], A=np.vstack([e, e]), b=np.zeros(4))
    v, g = max_constraint_oracle(q)(np.zeros(2))
    assert v == 0.0
    np.testing.assert_array_equal(g, e[0])
    assert_same_fbar(q, [np.zeros(2), np.array([0.0, -1.0])])
    # at x = (2, 0) the box block and the equality block both read 1: the box wins
    r = ConstrainedProblem(f0, box, A=np.tile(e[1], (4, 1)), b=-np.ones(4))
    assert len(max_constraint_oracle(r).parts) == 2
    v, g = max_constraint_oracle(r)(np.array([2.0, 0.0]))
    assert v == 1.0
    np.testing.assert_array_equal(g, e[0])
    assert_same_fbar(r, [np.array([2.0, 0.0]), np.array([0.0, 1.0])])
    # an inf coordinate makes row 1 read 0 * inf + 1, a NaN, and the NaN wins
    with np.errstate(invalid="ignore"):
        assert math.isnan(max_constraint_oracle(r)(np.array([np.inf, 1.0]))[0])
        assert_same_fbar(r, [np.array([np.inf, 1.0])])

    # runs one row short of ROW_BLOCK_MIN keep one part per row
    rng = np.random.default_rng(2)
    for k in (ROW_BLOCK_MIN - 1, ROW_BLOCK_MIN):
        rows = [AffineOracle(rng.normal(size=2), rng.normal()) for _ in range(k)]
        s = ConstrainedProblem(f0, rows + [Norm1Oracle(2, offset=-1.0)] + rows,
                               A=rng.normal(size=(k, 2)), b=rng.normal(size=k))
        per_run = 1 if k == ROW_BLOCK_MIN else k
        assert len(max_constraint_oracle(s).parts) == 3 * per_run + 1
        assert_same_fbar(s, [np.round(rng.normal(size=2), 1) for _ in range(50)])



def row_blocks(p):
    """The AffineBlockOracles a problem's solvers read: its stacked inequality
    runs, then the parts of its max form."""
    fbar = max_constraint_oracle(p).parts
    return [o for _, k, o in p._blocks if k] + [q for q in fbar if type(q) is AffineBlockOracle]


def kernel(o):
    """Which kernel the nonzero rule gives an oracle's rows: "sparse", "dense"
    or, for a block of both, "mixed"."""
    if type(o) is AffineBlockOracle:
        return "dense" if o._kernel is None else "mixed" if o._split else "sparse"
    return "dense" if o._dot == (o.c if type(o) is AffineOracle else o.a).dot else "sparse"


def test_kernel_of_each_bench_and_replay_block():
    # case2: the box rows +-e_i.x - 1, one block in F(x) and the same block as
    # fbar's first part, are sparse on n = 100 columns and dense on 4; the
    # domain's single row e_2.x - 1, of one nonzero, and the random equality
    # rows are dense
    for n, seed, box_kernel in ((4, 2, "dense"), (100, 1, "sparse")):
        p = gen_random(2, n, seed).problem
        box, fbar_box, *eq = row_blocks(p)
        assert fbar_box is box and kernel(box) == box_kernel
        assert kernel(p.ineq[-1].parts[1]) == "dense"
        assert {kernel(q) for q in eq + p._eq_parts} == {"dense"}
    # svm's [-Z | 1 | I] rows hold nbar + 2 nonzeros of 201 nbar + 1
    for nbar in (1, 2):
        p = build_svm(nbar, 1).problem
        assert [kernel(q) for q in row_blocks(p)] == ["sparse"]
        assert p._eq_parts[0]._kernel[0].shape == (nbar + 2, 200 * nbar)
    # lad's [-D | I] rows hold nbar + 1 nonzeros of 3 nbar; case1's and the
    # dense-rows instance's rows are dense
    for p in (gen_random(1, 10, 1).problem, gen_random(1, 1000, 1).problem,
              build_lad(3, 1).problem, build_lad(100, 1).problem, dense_rows()):
        parts = row_blocks(p) + p._eq_parts + [o for o in p.ineq if type(o) is AffineOracle]
        assert parts and {kernel(q) for q in parts} == {"dense"}


def test_block_direction_matches_per_row_direction():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 7

    def run(k):  # dense rows: every pair of rows shares every coordinate
        return [AffineOracle(c, d) for c, d in zip(rng.standard_normal((k, n)),
                                                   rng.uniform(-1.0, 0.5, k))]

    ineq = run(3) + [Norm1Oracle(n, offset=-2.0)] + run(4) + [Norm1Oracle(n, offset=-3.0)] + run(5)
    p = ConstrainedProblem(AffineOracle(rng.standard_normal(n)), ineq,
                           A=rng.standard_normal((2, n)), b=rng.standard_normal(2))
    # the run of 3 keeps one part per row, the runs of 4 and 5 are blocks
    assert [type(q) for q in max_constraint_oracle(p).parts] == [AffineOracle] * 3 + [
        Norm1Oracle, AffineBlockOracle, Norm1Oracle, AffineBlockOracle] + [AbsAffineOracle] * 2

    def zs(count):
        for _ in range(count):
            lam = rng.uniform(0.0, 2.0, p.m) * (rng.uniform(size=p.m) < 0.6)
            yield np.concatenate([rng.uniform(-2.0, 2.0, n), lam, rng.standard_normal(p.l)])

    # x = (inf, -inf, ...) reads inf - inf, a NaN, on rows whose first two
    # entries share a sign
    z_inf = next(zs(1))
    z_inf[:2] = np.inf, -np.inf
    points = list(zs(40)) + [z_inf]
    settings = [(0.0, 2.0)] + [(0.7, s) for s in (1.0, 1.5, 2.0)]
    block_rows = n + np.r_[4:8, 9:14]
    active = 0
    with np.errstate(invalid="ignore"):
        for rho, s_exp in settings:
            for z in points:
                (t, f0_val), (t_ref, f0_ref) = (saddle_direction(p, z, rho, s_exp),
                                                direction(p, z, rho, s_exp))
                assert t.tobytes() == t_ref.tobytes(), (rho, s_exp, z)
                assert np.float64(f0_val).tobytes() == np.float64(f0_ref).tobytes()
                active += np.count_nonzero(t[block_rows] < 0.0)
        vv = [p.violation_vector(z[:n]) for z in points]
        ref = [np.maximum([o(z[:n])[0] for o in p.ineq], 0.0) for z in points]
        assert [v.tobytes() for v in vv] == [v.tobytes() for v in ref]
        t = saddle_direction(p, z_inf)[0]
    assert np.isnan(t[block_rows]).any() and np.isnan(vv[-1]).any()
    assert active > 500  # many block rows are violated, so their rows are summed

    # an AffineBlockOracle constraint is one row, max_j r_j, however many it follows
    q = ConstrainedProblem(p.f0, [max_constraint_oracle(p).parts[4]] * ROW_BLOCK_MIN)
    for rho, s_exp in settings:
        for z in points[:10]:
            z = np.concatenate([z[:n], z[n:n + q.m]])
            t, t_ref = saddle_direction(q, z, rho, s_exp)[0], direction(q, z, rho, s_exp)[0]
            assert t.tobytes() == t_ref.tobytes()


def test_abs_affine_inequalities_stay_single_rows():
    # F(x) reads signed rows, so a problem stacks no AbsAffineOracle run, and fbar keeps its rows
    rng = np.random.Generator(np.random.PCG64(5))
    n = 3
    ineq = [AbsAffineOracle(c, b) for c, b in zip(rng.standard_normal((ROW_BLOCK_MIN + 1, n)),
                                                   rng.uniform(0.5, 2.0, ROW_BLOCK_MIN + 1))]
    p = ConstrainedProblem(AffineOracle(rng.standard_normal(n)), ineq)
    assert [(i, k) for i, k, _ in p._blocks] == [(i, 0) for i in range(ROW_BLOCK_MIN + 1)]
    points = [np.concatenate([rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 2.0, p.m)])
              for _ in range(20)]
    for z in points:
        x = z[:n]
        ref = np.maximum([o(x)[0] for o in p.ineq], 0.0)
        assert p.violation_vector(x).tobytes() == ref.tobytes()
        for rho, s_exp in ((0.0, 2.0), (0.7, 1.5)):
            t, t_ref = saddle_direction(p, z, rho, s_exp)[0], direction(p, z, rho, s_exp)[0]
            assert t.tobytes() == t_ref.tobytes()
    assert max_constraint_oracle(p).parts == ineq
    assert_same_fbar(p, [z[:n] for z in points])


def test_single_constraint_form_shape():
    rng = np.random.default_rng(0)
    p = ConstrainedProblem(
        AffineOracle(rng.normal(size=4)),
        [AffineOracle(rng.normal(size=4)) for _ in range(2)],
        A=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    q = single_constraint_form(p)
    assert (q.m, q.l) == (1, 0)
    assert q.f0 is p.f0
    assert (repr(p), repr(q)) == ("ConstrainedProblem(n=4, m=2, l=3)",
                                  "ConstrainedProblem(n=4, m=1, l=0)")


def test_fbar_sign_iff_feasible():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = rng.integers(2, 5)
        m = rng.integers(1, 4)
        l = rng.integers(0, 3)
        p = ConstrainedProblem(
            AffineOracle(rng.normal(size=n)),
            [AffineOracle(rng.normal(size=n), rng.normal()) for _ in range(m)],
            A=rng.normal(size=(l, n)), b=rng.normal(size=l))
        fbar = max_constraint_oracle(p)
        for _ in range(20):
            x = rng.normal(size=n)
            assert (fbar(x)[0] <= 0.0) == (p.infeasibility(x) == 0.0)


def test_infeasibility_zero_iff_feasible_exactly():
    p = ConstrainedProblem(AffineOracle([1.0, 1.0]),
                           [Norm1Oracle(2, offset=-1.0)],
                           A=[[1.0, -1.0]], b=[0.0])
    feasible = np.array([0.25, 0.25])
    assert p.infeasibility(feasible) == 0.0
    assert p.violation_vector(feasible)[0] == 0.0


def test_start_point_rejects_negative_multiplier():
    p = one_d(ineq_c=-1.0)
    np.testing.assert_array_equal(start_point(p, lam0=[0.5]), [0.0, 0.5])
    with pytest.raises(ValueError, match="multipliers for inequalities must be nonnegative"):
        start_point(p, lam0=[-0.1])


# sg runs on the single-constraint form and takes only x0 from the config
@pytest.mark.parametrize("solver,field", [
    ("sg", "x0"),
    *[(s, f) for s in ("sdsg", "mdsg", "pds") for f in ("x0", "lam0", "nu0")],
])
def test_start_point_shape_is_checked(solver, field):
    # n = 2, m = 1, l = 1; no solver form of it has a block of length 3
    p = ConstrainedProblem(AffineOracle([1.0, 0.0]), [AffineOracle([-1.0, 0.0])],
                           A=[[0.0, 1.0]], b=[1.0])
    for bad in (np.zeros(3), np.zeros((2, 1))):
        cfg = SolverConfig(solver=solver, iterations=5, **{field: bad})
        with pytest.raises(ValueError, match=f"^{field} has shape"):
            solve(p, cfg)


# start blocks follow the number rule of oracle fields; sg refuses any lam0
@pytest.mark.parametrize("solver", ["sg", "sdsg", "mdsg", "pds"])
@pytest.mark.parametrize("field,bad", [("x0", ["1"]), ("x0", [True]), ("x0", [math.nan]),
                                       ("lam0", [math.nan]), ("x0", "ab")],
                         ids=["x0-str", "x0-bool", "x0-nan", "lam0-nan", "x0-text"])
def test_start_point_follows_number_rule(solver, field, bad):
    p = one_d(ineq_c=-1.0)
    with pytest.raises(ValueError, match=f"^{field} "):
        solve(p, SolverConfig(solver=solver, iterations=5, **{field: bad}))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("solver", ["sg", "sdsg", "mdsg", "pds"])
def test_p_eps_is_none_or_finite(solver):
    # f0(x) overflows to inf or nan once x moves off zero
    p = ConstrainedProblem(AffineOracle([1e308, 1e308]), [AffineOracle([-1.0, 0.0])])
    rep = solve(p, SolverConfig(solver=solver, iterations=50))
    assert rep.p_eps is None or np.isfinite(rep.p_eps)


class NanOracle(ConvexOracle):
    """A constraint whose value is NaN everywhere."""

    dim = 1

    def __call__(self, x):
        return math.nan, np.ones(1)


@pytest.mark.parametrize("solver", ["sg", "sdsg", "mdsg", "pds"])
def test_nan_constraint_is_never_reported_feasible(solver):
    # the NaN part comes first, and then after a part with a number value
    for ineq in ([NanOracle()], [AffineOracle([-1.0]), NanOracle()]):
        p = ConstrainedProblem(AffineOracle([1.0]), ineq)
        assert math.isnan(max_constraint_oracle(p)(np.array([1.0]))[0])
        rep = solve(p, SolverConfig(solver=solver, iterations=20))
        assert rep.trace and all(math.isnan(r.infeas) for r in rep.trace)


SEED = st.integers(0, 2**32 - 1)


@st.composite
def instance_spec(draw):
    """(n, run lengths, separators, l, seed) of a small problem: runs of 0-6
    dense affine rows, split by Norm1Oracle or MaxOracle rows, and 0-5
    equality rows; the numbers come from a PCG64 stream of the seed."""
    runs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    seps = draw(st.lists(st.sampled_from(["norm1", "max"]),
                         min_size=len(runs) - 1, max_size=len(runs) - 1))
    return draw(st.integers(1, 4)), runs, seps, draw(st.integers(0, 5)), draw(SEED)


def build_instance(n, runs, seps, l, seed):
    rng = np.random.Generator(np.random.PCG64(seed))

    def run(k):  # dense rows; one in five has d = 0, which reads exactly 0 at x = 0
        d = rng.uniform(-1.0, 0.5, k) * (rng.uniform(size=k) < 0.8)
        return [AffineOracle(c, dj) for c, dj in zip(rng.standard_normal((k, n)), d)]

    ineq = run(runs[0])
    for sep, k in zip(seps, runs[1:]):
        ineq.append(Norm1Oracle(n, offset=-rng.uniform(0.5, 2.0)) if sep == "norm1"
                    else MaxOracle(run(2)))
        ineq += run(k)
    return ConstrainedProblem(AffineOracle(rng.standard_normal(n)), ineq,
                              A=rng.standard_normal((l, n)), b=rng.standard_normal(l))


def random_z(p, seed):
    """z = (x, lam, nu) with lam >= 0; x and lam hold some exact zeros."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-2.0, 2.0, p.n) * (rng.uniform(size=p.n) < 0.8)
    lam = rng.uniform(0.0, 2.0, p.m) * (rng.uniform(size=p.m) < 0.6)
    return np.concatenate([x, lam, rng.standard_normal(p.l)])


RHO = st.one_of(st.floats(0.1, 2.0), st.just(0.0))
S_EXP = st.sampled_from([1.0, 1.5, 2.0])


def test_walk_matches_per_row_walk_on_random_instances():
    seen = set()  # (end, length) of the first and last runs drawn

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(instance_spec(), SEED, RHO, S_EXP)
    @example((2, [ROW_BLOCK_MIN, 6], ["norm1"], 2, 1), 1, 0.0, 2.0)
    @example((3, [6, 0, ROW_BLOCK_MIN], ["max", "norm1"], 0, 2), 2, 0.5, 1.5)
    def check(spec, z_seed, rho, s_exp):
        p = build_instance(*spec)
        z = random_z(p, z_seed)
        (t, f0_val), (t_ref, f0_ref) = (saddle_direction(p, z, rho, s_exp),
                                        direction(p, z, rho, s_exp))
        assert t.tobytes() == t_ref.tobytes()
        assert np.float64(f0_val).tobytes() == np.float64(f0_ref).tobytes()
        x = z[:p.n]
        ref = np.maximum([o(x)[0] for o in p.ineq], 0.0)
        assert p.violation_vector(x).tobytes() == ref.tobytes()
        seen.update({("first", spec[1][0]), ("last", spec[1][-1])})

    check()
    # blocks of exactly ROW_BLOCK_MIN rows, and of the longest length, sat at both ends
    assert {(end, k) for end in ("first", "last") for k in (ROW_BLOCK_MIN, 6)} <= seen


def test_solver_invariants_on_random_instances():
    seen = set()  # a lam0 with a positive entry, and a DSG run of at least 10 steps

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(instance_spec(), SEED, st.integers(1, 30), st.floats(0.1, 2.0), S_EXP,
           st.sampled_from([0.25, 0.5, 0.75]), st.sampled_from([1e-3, 1.0]))
    def check(spec, z_seed, iterations, rho, s_exp, delta_exp, eps):
        p = build_instance(*spec)
        n, m = p.n, p.m
        z = random_z(p, z_seed)
        native = dict(x0=z[:n], lam0=z[n:n + m], nu0=z[n + m:])
        starts = {"sg": dict(x0=z[:n]), "mdsg": native, "pds": native}
        if p.m + p.l:  # sdsg's start is read against the max form: lam0 of length 1, no nu0
            zs = random_z(single_constraint_form(p), z_seed)
            starts["sdsg"] = dict(x0=zs[:n], lam0=zs[n:])
        # DSG keeps lam >= lam0 and beta on its recursion, replayed in floats; PDS
        # keeps lam >= 0, and every PDS step has length gamma_k
        dst = dsg.init_state(p, **native)
        pst = pds.init_state(p, SolverConfig(rho=rho, s_exp=s_exp, delta_exp=delta_exp, **native))
        beta, dsg_steps = 1.0, 0
        for k in range(iterations):
            if dsg.step(p, dst):
                beta += 1.0 / beta
                dsg_steps += 1
                assert np.all(dst.z_arr[n:n + m] >= native["lam0"])
                assert dst.beta == beta
            z_before = pst.z_arr
            if pds.step(p, pst):
                assert np.min(pst.z_arr[n:n + m], initial=0.0) >= 0.0
                gamma = pds.step_length(k, delta_exp)
                assert abs(euclidean_norm(pst.z_arr - z_before) - gamma) <= 1e-12 * gamma
        # the same run twice, bit for bit; sg and pds also against the transcription's
        # run (mdsg and sdsg have tests of their own below)
        for solver in ("sg", "sdsg", "mdsg", "pds"):
            cfg = dict(solver=solver, iterations=iterations, eps=eps, rho=rho, s_exp=s_exp,
                       delta_exp=delta_exp)
            if solver not in starts:
                with pytest.raises(ValueError, match="at least one constraint"):
                    solve(p, SolverConfig(**cfg))
                continue
            cfg = SolverConfig(**cfg, **starts[solver])
            a, b = solve(p, cfg), solve(p, cfg)
            assert [row_bits(r) for r in a.trace] == [row_bits(r) for r in b.trace]
            assert (a.status, a.p_eps, a.x_out.tobytes()) == (b.status, b.p_eps, b.x_out.tobytes())
            if solver in ("sg", "pds"):
                assert_matches_transcription(p, cfg, a)
        if np.any(native["lam0"] > 0.0):
            seen.add("positive lam0")
        if dsg_steps >= 10:
            seen.add("10 DSG steps")

    check()
    assert seen == {"positive lam0", "10 DSG steps"}


def test_mdsg_trace_matches_direct_evaluation_on_random_instances():
    # mdsg reads A x_bar - b off its dual sum; from any start z0 (the sum
    # holds no nu0) it must agree with the transcription, which evaluates x_bar directly
    seen_l = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(instance_spec(), SEED, st.integers(1, 30), st.sampled_from([1e-3, 1.0]))
    @example((2, [2], [], 0, 1), 1, 10, 1e-3)
    @example((2, [2], [], 3, 2), 2, 10, 1.0)
    def check(spec, z_seed, iterations, eps):
        p = build_instance(*spec)
        n, m = p.n, p.m
        z = random_z(p, z_seed)
        cfg = SolverConfig(solver="mdsg", iterations=iterations, eps=eps,
                           x0=z[:n], lam0=z[n:n + m], nu0=z[n + m:])
        assert_matches_transcription(p, cfg, solve(p, cfg))
        seen_l.add(reads_a_sum(p, "mdsg"))

    check()
    assert seen_l == {False, True}  # instances with and without equality rows


def test_sdsg_trace_matches_direct_evaluation_on_random_instances():
    # sdsg reads the row blocks of fbar at x_bar off its row sums; from any
    # start (x0, lam0) it must agree with the transcription, which evaluates
    # fbar(x_bar) directly
    seen_block = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(instance_spec(), SEED, st.integers(1, 30), st.sampled_from([1e-3, 1.0]))
    @example((2, [2], [], 1, 1), 1, 10, 1e-3)
    @example((2, [ROW_BLOCK_MIN], [], 0, 2), 2, 10, 1.0)
    def check(spec, z_seed, iterations, eps):
        p = build_instance(*spec)
        assume(p.m + p.l)
        z = random_z(single_constraint_form(p), z_seed)
        cfg = SolverConfig(solver="sdsg", iterations=iterations, eps=eps,
                           x0=z[:p.n], lam0=z[p.n:])
        assert_matches_transcription(p, cfg, solve(p, cfg))
        seen_block.add(reads_a_sum(p, "sdsg"))

    check()
    assert seen_block == {False, True}  # max forms with and without a row block


def test_thinned_trace_ends_at_x_out_on_random_instances():
    stops = set()  # solvers seen stopping after some steps but before the last one

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(instance_spec(), st.integers(1, 30), st.sampled_from([1e-3, 0.5]))
    @example((2, [1], [], 0, 1), 30, 0.5)  # all four solvers stop, after 2-6 steps
    @example((1, [1], [], 0, 3), 30, 1e-3)  # sdsg stops at k = 7, between kept rows
    def check(spec, iterations, eps):
        p = build_instance(*spec)
        # f0 = max{c.x + 1, 0} has a zero subgradient where c.x <= -1, so runs can stop there
        p = ConstrainedProblem(PositivePart(AffineOracle(p.f0.c, 1.0)), p.ineq, p.A, p.b)
        for solver in ("sg", "sdsg", "mdsg", "pds"):
            if solver == "sdsg" and p.m + p.l == 0:
                continue
            cfg = dict(solver=solver, iterations=iterations, eps=eps)
            full = solve(p, SolverConfig(**cfg))
            k_last = full.trace[-1].k if full.trace else 0
            if 0 < k_last < iterations:
                stops.add(solver)
            full_rows = {r.k: row_bits(r) for r in full.trace}
            for every in (2, 3, 7):
                rep = solve(p, SolverConfig(**cfg, trace_every=every))
                kept = {*range(every, k_last, every), k_last} - {0}
                assert [r.k for r in rep.trace] == sorted(kept)
                assert [row_bits(r) for r in rep.trace] == [full_rows[r.k] for r in rep.trace]
                assert (rep.status, rep.p_eps) == (full.status, full.p_eps)
                assert rep.x_out.tobytes() == full.x_out.tobytes()

    check()
    # each solver closes a thinned trace once with a row it did not keep
    assert stops == {"sg", "sdsg", "mdsg", "pds"}


def test_thinned_trace_reads_an_ineligible_last_row_in_full():
    # the run stops right after a row it did not keep and did not read f0
    # at, as its infeas is above eps; that row closes the trace all the same
    p = build_instance(2, [1], [], 0, 1)
    p = ConstrainedProblem(PositivePart(AffineOracle(p.f0.c, 1.0)), p.ineq)
    # fbar(x) = max{x - 1, 0.5}: sg steps from 3 to 1, where its active part is constant
    one_d = ConstrainedProblem(AffineOracle([1.0]), [
        MaxOracle([AffineOracle([1.0], -1.0), AffineOracle([0.0], 0.5)])])
    for problem, solver, x0 in ((one_d, "sg", [3.0]), (p, "sdsg", None), (p, "mdsg", None)):
        cfg = dict(solver=solver, iterations=30, eps=1e-3, x0=x0)
        full = solve(problem, SolverConfig(**cfg))
        last = full.trace[-1]
        assert full.status == SADDLE_TERMINATED and last.infeas > cfg["eps"]
        rep = solve(problem, SolverConfig(**cfg, trace_every=last.k + 1))
        assert [row_bits(r) for r in rep.trace] == [row_bits(last)]
        assert (rep.status, rep.p_eps) == (full.status, full.p_eps)
        assert rep.x_out.tobytes() == full.x_out.tobytes()


def test_thinned_run_reads_f0_only_at_the_rows_it_can_observe(monkeypatch):
    # f0 is read at the reported point of row k only when the row is kept,
    # is the last one, or has infeas_k <= eps; sg also reads it where its
    # step descends f0. The logs of f0's reads are compared with a full run's.
    p = gen_random(2, 100, 1).problem
    infeasibility, at = ConstrainedProblem.infeasibility, []

    def counted_infeasibility(self, x, residual=None):
        at.append(x)
        return infeasibility(self, x, residual)

    monkeypatch.setattr(ConstrainedProblem, "infeasibility", counted_infeasibility)
    eligible_unkept = set()
    for solver, eps in (("sg", 1e-3), ("sdsg", 1e-3), ("sdsg", 2.0), ("mdsg", 1e-3),
                        ("mdsg", 0.7)):
        runs = []
        for every in (1, 100, 30):
            counted = _CountingOracle(p.f0)
            cfg = SolverConfig(solver=solver, eps=eps, iterations=200, trace_every=every)
            at.clear()
            runs.append((solve(ConstrainedProblem(counted, p.ineq, p.A, p.b), cfg),
                         [(built, x.tobytes()) for built, x in counted.log], len(at)))
        (full, full_log, _), *thinned = runs
        assert [r.k for r in full.trace] == list(range(1, 201))
        for every, (rep, log, evaluated) in zip((100, 30), thinned):
            if (solver, eps) == ("mdsg", 1e-3):  # ||A x_bar - b|| > eps on every row:
                assert evaluated == len(rep.trace)  # x_bar only at the kept ones
            def observable(k):
                return k % every == 0 or k == 200 or full.trace[k - 1].infeas <= eps

            if solver == "sg":  # one read per iterate x_0 .. x_200, built on objective steps
                expected = [e for k, e in enumerate(full_log) if e[0] or k == 0 or observable(k)]
            else:  # step k builds f0's subgradient at x_(k-1); then x_bar_k is read
                expected, k = [], 0
                for e in full_log:
                    k += e[0]
                    if e[0] or observable(k):
                        expected.append(e)
                eligible_unkept.update(
                    solver for r in full.trace if r.infeas <= eps and r.k % every)
            assert log == expected and len(log) < len(full_log)
            kept = [*range(every, 200, every), 200]
            assert [row_bits(r) for r in rep.trace] == [row_bits(full.trace[k - 1]) for k in kept]
            assert (rep.status, rep.p_eps) == (full.status, full.p_eps)
            assert rep.x_out.tobytes() == full.x_out.tobytes()
    assert eligible_unkept == {"sdsg", "mdsg"}


def test_thinned_sdsg_reads_the_other_parts_of_fbar_only_at_observable_rows():
    # case 2's fbar is a box block, the domain oracle and an equality block.
    # A row that is not read in full stops at the first part above eps, the
    # blocks read first off their row sums, so the domain oracle, the one other
    # part, is read at x_bar_k only when row k is kept, is the last one or has
    # infeas_k <= eps. Step k reads it at x_(k-1), as the full run's log shows.
    p, eps = gen_random(2, 100, 1).problem, 1e-3
    runs = []
    for every in (1, 100, 30):
        domain = _CountingOracle(p.ineq[-1])
        q = ConstrainedProblem(p.f0, [*p.ineq[:-1], domain], p.A, p.b)
        cfg = SolverConfig(solver="sdsg", eps=eps, iterations=200, trace_every=every)
        runs.append((solve(q, cfg), [x.tobytes() for _, x in domain.log]))
    assert [type(o) for o in single_constraint_form(q).ineq[0].parts] == \
        [AffineBlockOracle, _CountingOracle, AffineBlockOracle]
    (full, full_log), *thinned = runs
    assert [r.k for r in full.trace] == list(range(1, 201)) and len(full_log) == 400
    for every, (rep, log) in zip((100, 30), thinned):
        observable = [k % every == 0 or k == 200 or full.trace[k - 1].infeas <= eps
                      for k in range(1, 201)]
        assert log == [x for k, seen in enumerate(observable)
                       for x in full_log[2 * k:2 * k + 1 + seen]]
        kept = [*range(every, 200, every), 200]
        assert [row_bits(r) for r in rep.trace] == [row_bits(full.trace[k - 1]) for k in kept]
        assert (rep.status, rep.p_eps) == (full.status, full.p_eps)
        assert rep.x_out.tobytes() == full.x_out.tobytes()


def test_iterations_run_no_python_wrapper_of_numpy():
    # np.argmax, np.repeat and ndarray.sum run Python frames of numpy's
    # fromnumeric and _methods around one C call, at several times its cost
    # on short arrays; no iteration of a solver may enter them
    wrappers = {np._core.fromnumeric.__file__, np._core._methods.__file__}

    def wrapper_calls(p, solver, iterations, every):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_filename in wrappers

        cfg = SolverConfig(solver=solver, iterations=iterations, trace_every=every)
        sys.setprofile(profile)
        try:
            solve(p, cfg)
        finally:
            sys.setprofile(None)
        return calls

    for p in (gen_random(2, 30, 1).problem, build_svm(1, 1).problem):
        for solver in ("sg", "sdsg", "mdsg", "pds"):
            for every in (1, 7):
                # the first solve also builds what a problem builds once, such as fbar's parts
                calls = [wrapper_calls(p, solver, k, every) for k in (100, 200, 100)]
                assert calls[1] == calls[2], (p, solver, every, calls)


def test_split_products_match_dense_products_on_random_slack_forms():
    # A = [B | I] is read as B; the split sums in another order than A @ x
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 5), st.integers(1, 6), SEED)
    @example(0, 3, 1)  # l = n: p = 0 and A = I
    def check(p, l, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        B = rng.uniform(-2.0, 2.0, (l, p)) * (rng.uniform(size=(l, p)) < 0.8)
        A, b = np.hstack([B, np.eye(l)]), rng.standard_normal(l)
        prob = ConstrainedProblem(AffineOracle(np.ones(p + l)), [], A, b)
        assert prob._B.tobytes() == B.tobytes() and prob.A.tobytes() == A.tobytes()
        x, nu = rng.uniform(-2.0, 2.0, p + l), rng.standard_normal(l)
        for got, ref in ((prob.residual(x), A @ x - b), (prob.adjoint(nu), A.T @ nu)):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref)))

    check()


def test_only_an_exact_identity_tail_is_split():
    rng = np.random.Generator(np.random.PCG64(3))
    B, eye = rng.standard_normal((3, 2)), np.eye(3)
    off, extra = eye.copy(), eye.copy()
    off[1, 1] = 1.0 + 2.0**-52
    extra[0, 2] = 0.5
    split = ConstrainedProblem(AffineOracle(np.ones(5)), [], np.hstack([B, eye]))
    assert split._B.tobytes() == B.tobytes()
    refused = [np.hstack([B, off]), np.hstack([B, eye[[1, 0, 2]]]), np.hstack([B, extra]),
               np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 1.0]])]  # l = 3 > n = 2
    for A in refused:
        p = ConstrainedProblem(AffineOracle(np.ones(A.shape[1])), [], A, rng.standard_normal(3))
        assert p._B is None
        x, nu = rng.standard_normal(p.n), rng.standard_normal(3)
        assert p.residual(x).tobytes() == (p.A @ x - p.b).tobytes()
        assert p.adjoint(nu).tobytes() == (p.A.T @ nu).tobytes()
    # l = 0 has nothing to split; l = n splits A = I into a B with no columns
    assert ConstrainedProblem(AffineOracle(np.ones(2)))._B is None
    p = ConstrainedProblem(AffineOracle(np.ones(3)), [], np.eye(3), [1.0, 2.0, 3.0])
    x, nu = np.array([0.5, -1.0, 2.0]), np.array([0.25, 0.0, -4.0])
    assert p._B.shape == (3, 0)
    assert p.residual(x).tobytes() == (x - p.b).tobytes()
    assert p.adjoint(nu).tobytes() == nu.tobytes()


def test_slack_form_families_are_split_and_random_instances_are_not():
    for inst in (build_lad(3, 1), build_lad(100, 1), build_svm(1, 1), build_svm(2, 1)):
        p = inst.problem
        assert p._B.tobytes() == np.ascontiguousarray(p.A[:, :p.n - p.l]).tobytes()
    for case, n, seed in ((1, 10, 1), (1, 100, 2), (2, 4, 2), (2, 100, 1)):
        assert gen_random(case, n, seed).problem._B is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(instance_spec())
    def check(spec):
        assert build_instance(*spec)._B is None

    check()


# Entries of x: numbers, both zeros, NaN and both infinities.
X_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]),
                      st.floats(-4.0, 4.0))


@st.composite
def stacked_max_spec(draw):
    """(n, runs, lead, seed, x, blocks) of a max: runs of 0-6 AffineOracle or
    AbsAffineOracle rows, one type per run, each after a Norm1Oracle (the first
    one only when lead), and per run the rows a:e that one AffineBlockOracle of
    the run's type holds in their place (none when a = e); the numbers come from
    a PCG64 stream of the seed."""
    n = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.sampled_from(["affine", "abs"]), st.integers(0, 6)),
                         min_size=1, max_size=4))
    x = draw(st.lists(X_ENTRIES, min_size=n, max_size=n))
    lead, seed = draw(st.booleans()), draw(SEED)
    blocks = []
    for _, k in runs:
        a = draw(st.integers(0, k))
        blocks.append((a, draw(st.integers(a, k))))
    return n, runs, lead, seed, np.array(x), blocks


def stacked_max_parts(n, runs, lead, seed, blocks):
    """The parts, and the same rows as one oracle per row."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts, rows = [], []
    for j, ((kind, k), (a, e)) in enumerate(zip(runs, blocks)):
        if lead or j:  # its coordinates may miss a NaN entry of x that every row reads
            coords = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            parts.append(Norm1Oracle(n, coords=coords, offset=-rng.uniform(0.0, 2.0)))
            rows.append(parts[-1])
        cls = AffineOracle if kind == "affine" else AbsAffineOracle
        # one entry in three is an exact zero, which reads 0 * inf, a NaN
        C = rng.standard_normal((k, n)) * (rng.uniform(size=(k, n)) < 0.67)
        d = rng.uniform(-1.0, 1.0, k) * (rng.uniform(size=k) < 0.8)
        run_rows = [cls(c, dj) for c, dj in zip(C, d)]
        # a row AbsAffineOracle(c, b) is the block row (c, -b)
        block = [AffineBlockOracle(C[a:e], d[a:e] if cls is AffineOracle else -d[a:e],
                                   absolute=cls is AbsAffineOracle)] if e > a else []
        parts += run_rows[:a] + block + run_rows[e:]
        rows += run_rows
    return parts, rows


def test_stacked_max_matches_per_row_max_on_random_parts():
    seen = set()  # (type, length) of the runs drawn, and whether a block part had rows beside it

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(stacked_max_spec(), st.integers(0, 3))
    @example((2, [(kind, k) for kind in ("affine", "abs")
                  for k in (ROW_BLOCK_MIN - 1, ROW_BLOCK_MIN)],
              True, 1, np.array([0.5, -0.5]), [(0, 0), (0, ROW_BLOCK_MIN), (1, 3), (0, 0)]), 1)
    def check(spec, i):
        n, runs, lead, seed, x, blocks = spec
        parts, rows = stacked_max_parts(n, runs, lead, seed, blocks)
        assume(parts)
        o = MaxOracle(parts)
        assert o.parts == parts  # a max keeps the parts it is given
        ref = ConstrainedProblem(AffineOracle(np.zeros(n)), rows)  # fbar is the per-row max
        # x as drawn, and with its entry i set to each special value in turn
        points = [x]
        for special in (math.nan, math.inf, -math.inf, -0.0):
            points.append(x.copy())
            points[-1][i % n] = special
        with np.errstate(invalid="ignore"):
            for y in points:
                (v, g), (v_ref, g_ref) = o(y), fbar(ref, y)
                assert np.float64(v).tobytes() == np.float64(v_ref).tobytes(), y
                assert g.tobytes() == g_ref.tobytes(), y
                assert np.float64(o.value(y)).tobytes() == np.float64(v_ref).tobytes(), y
        seen.update(runs)
        seen.update(("block part", e - a < k) for (_, k), (a, e) in zip(runs, blocks) if e > a)

    check()
    # runs one row short of a block and of exactly ROW_BLOCK_MIN rows, of both types
    assert {(kind, k) for kind in ("affine", "abs")
            for k in (ROW_BLOCK_MIN - 1, ROW_BLOCK_MIN)} <= seen
    # a block part with rows of its type beside it, and one alone in its run
    assert {("block part", True), ("block part", False)} <= seen


def test_walk_over_fbar_at_x_bar_has_the_bits_of_fbar():
    # sdsg's walk reads a block part off its row sum R and the other parts at
    # x_bar. With delta = 2^k, k >= 0, x_hat = x delta and R = (C x + d) delta
    # give x_bar = x and R / delta = C x + d exactly, so a full walk must have
    # the bits of fbar(x), NaN parts included; a walk given eps
    # either has them too or stops at a part above eps, of at most fbar(x).
    seen = set()  # NaN parts of both kinds

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(stacked_max_spec(), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from([1e-3, 0.5, 2.0]))
    def check(spec, i, power, eps):
        n, runs, lead, seed, x, blocks = spec
        parts, _ = stacked_max_parts(n, runs, lead, seed, blocks)
        assume(parts)
        fbar = MaxOracle(parts)
        state = dsg.init_state(ConstrainedProblem(AffineOracle(np.zeros(n))))
        walk = dsg._fbar_at_x_bar(fbar, state)
        state.delta = 2.0 ** power
        points = [x, np.zeros(n), np.full(n, -0.0)]
        for special in (math.nan, math.inf, -math.inf, -0.0):
            points.append(x.copy())
            points[-1][i % n] = special
        with np.errstate(invalid="ignore"):
            for y in points:
                state.x_hat = y * state.delta
                for j, acc in state.row_sums:
                    acc[:] = parts[j].rows(y) * state.delta
                seen.update(type(o) is AffineBlockOracle for o in parts if math.isnan(o.value(y)))
                ref = fbar.value(y)
                x_bar, v = walk()
                assert np.float64(v).tobytes() == np.float64(ref).tobytes(), y
                assert x_bar is None or x_bar.tobytes() == y.tobytes()
                _, v = walk(eps)
                if v <= eps:
                    assert np.float64(v).tobytes() == np.float64(ref).tobytes(), y
                else:
                    assert v <= ref or math.isnan(ref), y

    check()
    assert seen == {True, False}


@st.composite
def row_block_spec(draw):
    """(block, x, i): an AffineBlockOracle of 1-6 rows on 1-4 coordinates,
    signed or absolute, some entries exact zeros; a point x of X_ENTRIES; an index."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.Generator(np.random.PCG64(draw(SEED)))
    C = rng.standard_normal((k, n)) * (rng.uniform(size=(k, n)) < 0.67)
    d = rng.uniform(-1.0, 1.0, k) * (rng.uniform(size=k) < 0.8)
    x = draw(st.lists(X_ENTRIES, min_size=n, max_size=n))
    return AffineBlockOracle(C, d, draw(st.booleans())), np.array(x), draw(st.integers(0, 3))


def test_block_rule_on_rows_is_select_and_value():
    # select is select_rows(rows(x)), and a max keeps every part's key, so a
    # block's rows read off a key are the rows it computed, bit for bit
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(row_block_spec())
    def check(spec):
        block, x, i = spec
        points = [x]
        for special in (math.nan, math.inf, -math.inf, -0.0):
            points.append(x.copy())
            points[-1][i % x.size] = special
        lead = Norm1Oracle(x.size, offset=-1.0)
        with np.errstate(invalid="ignore"):
            for y in points:
                r = block.rows(y)
                v, (r_key, i_key, negated) = block.select_rows(r)
                v_ref, key_ref = block.select(y)
                assert np.float64(v).tobytes() == np.float64(v_ref).tobytes(), y
                assert np.float64(v).tobytes() == np.float64(block.value(y)).tobytes(), y
                assert (r_key.tobytes(), i_key, negated) == (key_ref[0].tobytes(), *key_ref[1:])
                assert block.subgrad((r_key, i_key, negated)).tobytes() == \
                    block.subgrad(key_ref).tobytes()
                keys = MaxOracle([lead, block]).select(y)[1][2]
                assert keys[1][0].tobytes() == r.tobytes(), y

    check()
