import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from subgrad.oracles import AffineOracle, Norm1Oracle
from subgrad.problem import ConstrainedProblem
from subgrad.simplex import (INFEASIBLE, NUMERICAL_LIMIT, OPTIMAL, UNBOUNDED,
                             LpProblem, encode_case1, encode_lad, lp_solve_small)
from subgrad.testbeds import build_lad, gen_random
from subgrad.validate import subgradient_validate


def test_l1_ball_vertex():
    # min x1 over the unit l1 ball: -1 at (-1, 0)
    p = ConstrainedProblem(AffineOracle([1.0, 0.0]), [Norm1Oracle(2, offset=-1.0)])
    res = lp_solve_small(encode_case1(p))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    x = res.x[:2] - res.x[2:4]
    np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-9)


def test_feasibility_only():
    lp = LpProblem(c=[0.0, 0.0], A_eq=np.eye(2), b_eq=[2.0, -3.0],
                   lower=[-np.inf, -np.inf], upper=[np.inf, np.inf])
    res = lp_solve_small(lp)
    assert res.status == OPTIMAL
    assert res.value == 0.0
    np.testing.assert_allclose(res.x, [2.0, -3.0], atol=1e-9)


def test_unbounded():
    lp = LpProblem(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                   lower=[0.0], upper=[np.inf])
    assert lp_solve_small(lp).status == UNBOUNDED


def test_infeasible():
    lp = LpProblem(c=[0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0],
                   lower=[-np.inf], upper=[np.inf])
    assert lp_solve_small(lp).status == INFEASIBLE


def test_two_sided_bounds():
    lp = LpProblem(c=[-1.0, 1.0], A_eq=np.zeros((0, 2)), b_eq=[],
                   lower=[0.0, -2.0], upper=[3.0, 2.0])
    res = lp_solve_small(lp)
    assert res.status == OPTIMAL
    np.testing.assert_allclose(res.x, [3.0, -2.0], atol=1e-9)
    assert res.value == pytest.approx(-5.0)


def test_upper_bound_only_variable():
    lp = LpProblem(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                   lower=[-np.inf], upper=[5.0])
    res = lp_solve_small(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-5.0)


def test_pivot_cap_reports_limit():
    inst = gen_random(1, 10, 1)
    res = lp_solve_small(encode_case1(inst.problem), max_pivots=1)
    assert res.status == NUMERICAL_LIMIT


def _brute_force_min(lp):
    """Enumerate basic solutions of A u = b, u >= 0 and take the best value."""
    A, b, c = lp.A_eq, lp.b_eq, lp.c
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        try:
            u_b = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(u_b) < -1e-9:
            continue
        val = float(c[list(cols)] @ u_b)
        if best is None or val < best:
            best = val
    return best


@pytest.mark.parametrize("n", [4, 6])
def test_case1_matches_vertex_enumeration(n):
    for seed in [1, 2, 3]:
        inst = gen_random(1, n, seed)
        lp = encode_case1(inst.problem)
        res = lp_solve_small(lp)
        assert res.status == OPTIMAL
        brute = _brute_force_min(lp)
        assert res.value == pytest.approx(brute, abs=1e-9)


def _scipy_value(lp):
    bounds = [(lo if np.isfinite(lo) else None, up if np.isfinite(up) else None)
              for lo, up in zip(lp.lower, lp.upper)]
    sp = linprog(lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, bounds=bounds, method="highs")
    assert sp.status == 0
    return sp.fun


def test_case1_matches_scipy():
    for seed in range(1, 6):
        lp = encode_case1(gen_random(1, 10, seed).problem)
        res = lp_solve_small(lp)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(_scipy_value(lp), abs=1e-8)


def test_lad_matches_scipy_and_direct_form():
    for seed in range(1, 4):
        inst = build_lad(6, seed)
        lp = encode_lad(inst.problem, 6)
        res = lp_solve_small(lp)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(_scipy_value(lp), abs=1e-8)
        # direct formulation of min ||Dx - w||_1 via scipy on (x, t) with
        # -t <= Dx - w <= t gives the same optimum
        D = -inst.problem.A[:, :6]
        w = -inst.problem.b
        rows = D.shape[0]
        c = np.concatenate([np.zeros(6), np.ones(rows)])
        A_ub = np.block([[D, -np.eye(rows)], [-D, -np.eye(rows)]])
        b_ub = np.concatenate([w, -w])
        sp = linprog(c, A_ub=A_ub, b_ub=b_ub,
                     bounds=[(None, None)] * 6 + [(0, None)] * rows, method="highs")
        assert res.value == pytest.approx(sp.fun, abs=1e-8)


def test_solution_feasibility_and_duality():
    for seed in range(1, 6):
        inst = gen_random(1, 10, seed)
        lp = encode_case1(inst.problem)
        res = lp_solve_small(lp)
        assert res.status == OPTIMAL
        scale = 1.0 + np.linalg.norm(lp.b_eq)
        assert np.linalg.norm(lp.A_eq @ res.x - lp.b_eq) <= 1e-8 * scale
        assert np.all(res.x >= lp.lower)
        assert np.all(res.x <= lp.upper)
        assert res.dual_obj == pytest.approx(res.value, abs=1e-8 * (1 + abs(res.value)))


inf = np.inf

# The hand LPs above, four integer LPs with ratio ties in Bland's rule (the
# second and third with a redundant row to drop), and lad. case1 is left out:
# its b = A @ xbar takes the bits of the BLAS kernel.
PINNED_LPS = {
    "l1-ball": lambda: encode_case1(ConstrainedProblem(AffineOracle([1.0, 0.0]),
                                                       [Norm1Oracle(2, offset=-1.0)])),
    "feasibility": lambda: LpProblem([0.0, 0.0], np.eye(2), [2.0, -3.0], [-inf, -inf], [inf, inf]),
    "unbounded": lambda: LpProblem([-1.0], [], [], [0.0], [inf]),
    "infeasible": lambda: LpProblem([0.0], [[1.0], [1.0]], [0.0, 1.0], [-inf], [inf]),
    "two-sided": lambda: LpProblem([-1.0, 1.0], [], [], [0.0, -2.0], [3.0, 2.0]),
    "upper-only": lambda: LpProblem([-1.0], [], [], [-inf], [5.0]),
    "int-ties": lambda: LpProblem(
        [-1, 1, -2, -1, -2, 2, -3],
        [[1, -2, -1, 2, -1, -2, 1], [3, 3, 0, -1, 0, -3, -1],
         [-1, -1, 2, -2, 2, 1, 3], [-1, -1, 3, -3, -3, 2, 0]], [-1, 1, 2, 2],
        [-inf, -inf, -3, 1, 1, -inf, -2], [2, inf, inf, 1, inf, 2, 1]),
    "int-ties-redundant": lambda: LpProblem(
        [-3, -1, -1, -3, -1, 1],
        [[1, 0, 0, 0, 2, 1], [0, 0, -1, -2, 3, -1], [-2, 3, -1, -2, -1, -3],
         [1, 0, -1, -2, 5, 0]], [-1, -2, -4, -3],
        [-inf, -2, -inf, 0, -1, -inf], [0, 1, 1, 3, inf, 0]),
    "int-redundant": lambda: LpProblem(
        [-3, -3, 1, -1], [[0, 1, 3, -1], [1, 3, 0, -2], [1, 4, 3, -3]], [3, -1, 2],
        [-3, -inf, -inf, -inf], [inf, 0, -2, inf]),
    "int-ties-free": lambda: LpProblem(
        [2, 3, 0, -2, 0, -1], [[2, 1, 2, -2, -3, 0], [3, 3, 3, -2, -2, 0], [0, 0, -2, 0, -1, -2]],
        [1, 3, 2], [0, -inf, -inf, -inf, -inf, -inf], [0, 1, 1, inf, inf, inf]),
    **{f"lad-{nbar}-{seed}": (lambda nbar=nbar, seed=seed:
                              encode_lad(build_lad(nbar, seed).problem, nbar))
       for nbar in (6, 10, 30) for seed in (1, 2, 3)},
}


# status, pivots and sha256 of x.tobytes() are pinned; the value c @ x and
# dual_obj (np.linalg.solve) are BLAS results, so they are compared by tolerance
@pytest.mark.parametrize("name,status,pivots,value,digest", [
    ("l1-ball", OPTIMAL, 3, -1.0,
     "d9f9d95f41b9fed76e320257c36fab3ec16adf9134c7457502fda06869cad895"),
    ("feasibility", OPTIMAL, 2, 0.0,
     "e806427daabda91c312bde0bff859dc3e251c4e200a30d6c35001e5ab81079a0"),
    ("unbounded", UNBOUNDED, 0, None, None),
    ("infeasible", INFEASIBLE, 1, None, None),
    ("two-sided", OPTIMAL, 3, -5.0,
     "631c2f0071e20c8b7093bb9f232d6b5ff4b36e85051ea249c5fe81f65206035f"),
    ("upper-only", OPTIMAL, 0, -5.0,
     "a7ca1349517e14c0690dccc98bf9a515019b2018116a3191f6c7d53831c0432a"),
    ("int-ties", OPTIMAL, 11, -9.0,
     "e65f4a6867ea2bbd40a3f1c24b478e1e9d7607f66901345232a74d7fa260db19"),
    ("int-ties-redundant", OPTIMAL, 7, -12.066666666666666,
     "fe5ad4ed377c10d6a70fb11d7eabdbab9e7d725c7a4e91403aadbb8baf926f40"),
    ("int-redundant", OPTIMAL, 3, 80.0,
     "f984bb03ca209cd51d2bfcc001ab7c04d17bc96f09782d4e5459cbca18faec47"),
    ("int-ties-free", OPTIMAL, 9, -0.5,
     "82a7299055c143824eecb296c14f649ff93df81dc6af607e694b39819a36a2c5"),
    ("lad-6-1", OPTIMAL, 41, 3.6679553115364927,
     "1c1c8f15f33afbdd85e46999b8d0b3c153ffca414cb2176f590a0a61bed83ed2"),
    ("lad-6-2", OPTIMAL, 63, 3.1587796171624483,
     "c32d49a827e0b3ea8e6f22eccfa0c56f32c27752ba9e581fc67206a8b6fcd518"),
    ("lad-6-3", OPTIMAL, 35, 5.181323760097876,
     "e9ef6cf61edb9f80e7297f17d5d609c19145c63521885749adc7c59cd7580305"),
    ("lad-10-1", OPTIMAL, 120, 5.225731085443655,
     "bca45a3b8a13413b21f156ce4b9dfa28ebc63348604042cfc87f554f1ac27e6e"),
    ("lad-10-2", OPTIMAL, 110, 5.0101239475689425,
     "47d5a56ca57d25dee41494c681784813f20aba392e3e857972f5fbd9cede70b7"),
    ("lad-10-3", OPTIMAL, 96, 5.257842790875355,
     "d27a303ea053179be5ad7249bda4d106a775c01be5e2fd670332fc0a223eeccb"),
    ("lad-30-1", OPTIMAL, 889, 17.464438057912723,
     "de02b3cc71f48e4afa5fd8fd87b7067e2c0713e40b6fc825d7245774c746b4e7"),
    ("lad-30-2", OPTIMAL, 637, 19.29645992942751,
     "d12211718ac4d9e27eaf0d5082116234ad56a2895db6a2e712ed2db2441d0849"),
    ("lad-30-3", OPTIMAL, 957, 14.047051036323861,
     "9b5d4aff86eb9f4829e97b2701b78e838593680e472159081a891eae14b05367"),
])
def test_lp_results_are_pinned(name, status, pivots, value, digest):
    res = lp_solve_small(PINNED_LPS[name]())
    assert (res.status, res.n_pivots) == (status, pivots)
    if status != OPTIMAL:
        assert res.x is None and res.value is None
        return
    assert hashlib.sha256(res.x.tobytes()).hexdigest() == digest
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert res.dual_obj == pytest.approx(value, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("cap,status", [(7, OPTIMAL), (6, NUMERICAL_LIMIT)])
def test_pivot_cap_counts_the_pivots_made(cap, status):
    # int-ties-redundant is OPTIMAL after 7 pivots, so a cap of 7 lets it finish
    lp = PINNED_LPS["int-ties-redundant"]()
    res = lp_solve_small(lp, max_pivots=cap)
    assert (res.status, res.n_pivots) == (status, cap)
    assert loop_reference_solve(lp, max_pivots=cap)[:2] == (status, cap)


@st.composite
def integer_lps(draw):
    """A small LP of integers: m <= 5 rows, n <= 8 variables, each free, bounded
    on one side or on both; the last of three or more rows may be the sum of the
    first two."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 5))
    ints = lambda lo, hi, k: draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))
    A, b, c = [ints(-3, 3, n) for _ in range(m)], ints(-4, 4, m), ints(-3, 3, n)
    if m >= 3 and draw(st.booleans()):
        A[-1], b[-1] = [p + q for p, q in zip(A[0], A[1])], b[0] + b[1]
    lower, upper = [], []
    for kind in ints(0, 3, n):  # 0 free, 1 lower, 2 upper, 3 both
        lo, width = draw(st.integers(-3, 1)), draw(st.integers(0, 3))
        lower.append(lo if kind in (1, 3) else -inf)
        upper.append(lo + width if kind in (2, 3) else inf)
    return LpProblem(c, A, b, lower, upper)


def loop_reference_solve(lp, tol=1e-9, max_pivots=10**6):
    """(status, pivots, x) of lp_solve_small by its loop form: one Python scan per
    variable, column and row, as the solver ran before its scans became array
    expressions. The arithmetic is the same, so the two agree bit for bit."""
    cols, shift, ranged = [], np.zeros(lp.c.size), []  # (variable, sign), (column, width)
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        if np.isfinite(lo):
            shift[j] = lo
            cols.append((j, 1.0))
            if np.isfinite(up):
                ranged.append((len(cols) - 1, up - lo))
        elif np.isfinite(up):
            shift[j] = up
            cols.append((j, -1.0))
        else:
            cols += [(j, 1.0), (j, -1.0)]
    meq, n_main = lp.A_eq.shape[0], len(cols)
    m, n_std = meq + len(ranged), n_main + len(ranged)
    A, c = np.zeros((m, n_std)), np.zeros(n_std)
    for k, (j, sign) in enumerate(cols):
        A[:meq, k] = sign * lp.A_eq[:, j]
        c[k] = sign * lp.c[j]
    for r, (k, _) in enumerate(ranged):
        A[meq + r, k] = A[meq + r, n_main + r] = 1.0
    b = np.concatenate([lp.b_eq - lp.A_eq @ shift, [w for _, w in ranged]])
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    tab = np.zeros((m + 2, n_std + m + 1))
    tab[:m, :n_std], tab[:m, n_std:-1], tab[:m, -1] = A, np.eye(m), b
    tab[m, :n_std] = c
    tab[m + 1, :n_std], tab[m + 1, -1] = -A.sum(axis=0), -b.sum()
    basis, pivots = list(range(n_std, n_std + m)), 0

    def pivot(row, col):
        tab[row] /= tab[row, col]
        for i in range(tab.shape[0]):
            if i != row and tab[i, col] != 0.0:
                tab[i] -= tab[i, col] * tab[row]
        basis[row] = col

    def run_phase(cost_row, n_allowed):  # the allowed columns are 0..n_allowed-1
        nonlocal pivots
        while True:
            enter = next((j for j in range(n_allowed) if tab[cost_row, j] < -tol), -1)
            if enter < 0:
                return OPTIMAL
            ratio, leave = None, -1
            for i in range(len(basis)):
                if tab[i, enter] > tol:
                    r = tab[i, -1] / tab[i, enter]
                    if ratio is None or r < ratio - 1e-15 or (
                            abs(r - ratio) <= 1e-15 and basis[i] < basis[leave]):
                        ratio, leave = r, i
            if leave < 0:
                return UNBOUNDED
            if pivots >= max_pivots:
                return NUMERICAL_LIMIT
            pivot(leave, enter)
            pivots += 1

    if run_phase(m + 1, n_std + m) != OPTIMAL:
        return NUMERICAL_LIMIT, pivots, None
    if -tab[m + 1, -1] > tol * (1.0 + float(np.linalg.norm(b))):
        return INFEASIBLE, pivots, None
    keep = [True] * m
    for i in range(m):
        if basis[i] >= n_std:  # an artificial left in the basis
            j = next((j for j in range(n_std) if abs(tab[i, j]) > tol), -1)
            if j >= 0:
                pivot(i, j)
                pivots += 1
            else:
                keep[i] = False
    kept = [i for i in range(m) if keep[i]]
    tab = tab[kept + [m, m + 1]]
    basis[:] = [basis[i] for i in kept]
    status = run_phase(len(kept), n_std)
    if status != OPTIMAL:
        return status, pivots, None
    u = np.zeros(n_std)
    for i, bi in enumerate(basis):
        u[bi] = max(tab[i, -1], 0.0)
    x = shift.copy()
    for k, (j, sign) in enumerate(cols):
        x[j] += sign * u[k]
    return OPTIMAL, pivots, np.clip(x, lp.lower, lp.upper)


def test_lp_oracle_agrees_with_highs_and_its_loop_form():
    seen = collections.Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(integer_lps())
    def check(lp):
        res = lp_solve_small(lp)
        status, pivots, x = loop_reference_solve(lp)
        assert (res.status, res.n_pivots) == (status, pivots)
        assert (res.x is None and x is None) or res.x.tobytes() == x.tobytes()
        m = lp.A_eq.shape[0]
        sp = linprog(lp.c, A_eq=lp.A_eq if m else None, b_eq=lp.b_eq if m else None,
                     bounds=[(lo if lo > -inf else None, up if up < inf else None)
                             for lo, up in zip(lp.lower, lp.upper)], method="highs")
        assert res.status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[sp.status]
        if res.status == OPTIMAL:
            assert abs(res.value - sp.fun) <= 1e-8 * (1 + abs(sp.fun))
        seen[res.status] += 1
        # rows of rank-deficient A_eq that pass phase 1 cannot all keep a basis column
        if res.status != INFEASIBLE and m and np.linalg.matrix_rank(lp.A_eq) < m:
            seen["dropped"] += 1

    check()
    assert all(seen[k] for k in (OPTIMAL, INFEASIBLE, UNBOUNDED, "dropped")), seen


@pytest.mark.parametrize("field,fields", [
    ("c", dict(c=[np.nan])),
    ("A_eq", dict(A_eq=[[np.nan]], b_eq=[1.0])),
    ("b_eq", dict(b_eq=[np.nan])),
    ("b_eq", dict(b_eq=[np.inf])),
    ("lower", dict(lower=[np.nan])),
    ("lower", dict(lower=[np.inf])),
    ("upper", dict(lower=[-np.inf], upper=[-np.inf])),
    # 2 x 3 for n = 2 was once reshaped to 3 x 2 to fit 3 entries of b_eq
    ("A_eq", dict(c=[1.0, 1.0], A_eq=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], b_eq=[1.0, 2.0, 3.0],
                  lower=[0.0, 0.0], upper=[inf, inf])),
    ("A_eq", dict(A_eq=[["1"]])),
    ("b_eq", dict(b_eq=[True])),
    ("upper", dict(upper=["inf"])),
    ("A_eq", dict(b_eq=[1.0, 2.0])),
    ("lower", dict(lower=[0.0, 0.0])),
    ("lower", dict(lower=[2.0], upper=[1.0])),
])
def test_lp_problem_follows_the_number_rule(field, fields):
    one_row = dict(c=[1.0], A_eq=[[1.0]], b_eq=[1.0], lower=[0.0], upper=[inf])
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        LpProblem(**{**one_row, **fields})


def test_lp_problem_reads_an_empty_a_eq_as_no_rows():
    for A_eq in ([], np.zeros((0, 1))):
        lp = LpProblem(c=[1.0], A_eq=A_eq, b_eq=[], lower=[0.0], upper=[inf])
        assert lp.A_eq.shape == (0, 1)
        assert lp_solve_small(lp).x.tolist() == [0.0]


def test_lp_encoders_refuse_other_problems():
    with pytest.raises(ValueError, match="^encode_case1 needs a linear objective"):
        encode_case1(ConstrainedProblem(Norm1Oracle(2), [AffineOracle([-1.0, 0.0])]))
    with pytest.raises(ValueError, match="slack-form"):
        encode_lad(gen_random(1, 5, 1).problem, 5)


def test_subgradient_validate_accepts_affine():
    report = subgradient_validate(AffineOracle([1.0, -2.0], 0.3), n_pairs=500, seed=1)
    assert report.n_violations == 0
    assert report.worst_violation <= 1e-12


def test_subgradient_validate_flags_broken_oracle():
    class DoubledGradient(AffineOracle):
        def __call__(self, x):
            v, g = super().__call__(x)
            return v, 2.0 * g

    report = subgradient_validate(DoubledGradient([1.0, 1.0]), n_pairs=500, seed=1)
    assert report.n_violations > 0
    assert report.worst_violation > 0.0


class _NanAbove(AffineOracle):
    """x0 + x1, written as a user oracle (``__call__`` alone), but NaN where x0 > cut."""

    def __init__(self, cut):
        super().__init__([1.0, 1.0])
        self.cut = cut

    def __call__(self, x):
        v, g = super().__call__(x)
        return (float("nan") if x[0] > self.cut else v), g


def test_subgradient_validate_flags_nan_oracle():
    # every comparison with NaN is False, so a NaN excess must be counted explicitly
    report = subgradient_validate(_NanAbove(-2.0), n_pairs=10, seed=1)
    assert report.n_violations == 10
    assert np.isnan(report.worst_violation)
    # NaN on part of the ball: the NaN pairs are violations, and a finite excess
    # in a later pair does not replace the NaN worst
    report = subgradient_validate(_NanAbove(0.5), n_pairs=200, seed=1)
    assert 0 < report.n_violations < 200
    assert np.isnan(report.worst_violation)


@pytest.mark.parametrize("field,kwargs", [
    ("radius", dict(radius=float("nan"))),
    ("radius", dict(radius=float("inf"))),
    ("radius", dict(radius=0.0)),
    ("radius", dict(radius=-1.0)),
    ("radius", dict(radius="1")),
    ("n_pairs", dict(n_pairs=0)),
    ("n_pairs", dict(n_pairs=-3)),
    ("n_pairs", dict(n_pairs=2.5)),
    ("n_pairs", dict(n_pairs=True)),
])
def test_subgradient_validate_refuses_a_vacuous_or_bad_sample(field, kwargs):
    # nan, inf or no pairs used to report 0 violations, a pass that checked nothing
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        subgradient_validate(AffineOracle([1.0, -2.0]), **kwargs)


def test_subgradient_validate_refuses_a_zero_dimensional_oracle():
    # 1.0 / dim used to raise ZeroDivisionError; the ball in R^0 is one point
    with pytest.raises(ValueError, match=r"^dim\b"):
        subgradient_validate(AffineOracle([]))
