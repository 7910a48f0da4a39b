import math

import numpy as np
import pytest

from subgrad import SolverConfig, solve
from subgrad.oracles import (AbsAffineOracle, AffineBlockOracle, AffineOracle, ConvexOracle,
                             MaxOracle, Norm1Oracle)
from subgrad.problem import (ROW_BLOCK_MIN, ConstrainedProblem, max_constraint_oracle,
                             single_constraint_form, start_point)
from subgrad.testbeds import build_lad, build_svm, gen_random


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


# A and b follow the number rule of oracle fields
@pytest.mark.parametrize("A,b,field", [
    ([["1", 0.0]], [0.0], "A"),
    ([[1.0, True]], [0.0], "A"),
    (np.array([[True, False]]), [0.0], "A"),
    ([[1.0, 0.0]], ["0.5"], "b"),
    ([[1.0, 0.0]], [False], "b"),
    ([[1.0, 0.0]], np.array([True]), "b"),
], ids=["A-str", "A-bool", "A-numpy-bool", "b-str", "b-bool", "b-numpy-bool"])
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


def per_row_fbar(p):
    """fbar with one MaxOracle part per constraint row: what the blocks must reproduce."""
    return MaxOracle(list(p.ineq) + [AbsAffineOracle(a, b) for a, b in zip(p.A, p.b)])


def assert_same_fbar(p, points):
    fbar, ref = max_constraint_oracle(p), per_row_fbar(p)
    for x in points:
        (v, g), (v_ref, g_ref) = fbar(x), ref(x)
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


def test_single_constraint_form_shape():
    rng = np.random.default_rng(0)
    p = ConstrainedProblem(
        AffineOracle(rng.normal(size=4)),
        [AffineOracle(rng.normal(size=4)) for _ in range(2)],
        A=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    q = single_constraint_form(p)
    assert (q.m, q.l) == (1, 0)
    assert q.f0 is p.f0


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
