import math

import numpy as np
import pytest

from subgrad import SolverConfig, solve
from subgrad.oracles import AffineOracle, ConvexOracle, Norm1Oracle
from subgrad.problem import (ConstrainedProblem, max_constraint_oracle,
                             single_constraint_form, start_point)


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
    p = ConstrainedProblem(AffineOracle([1.0]), [NanOracle()])
    rep = solve(p, SolverConfig(solver=solver, iterations=20))
    assert rep.trace and all(math.isnan(r.infeas) for r in rep.trace)
