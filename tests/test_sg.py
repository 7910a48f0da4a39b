import numpy as np
import pytest

from subgrad import sg
from subgrad.oracles import AbsAffineOracle, AffineOracle
from subgrad.problem import ConstrainedProblem
from subgrad.reports import COMPLETED, SADDLE_TERMINATED, SolverConfig


def analytic_problem():
    # min x s.t. -x <= 0; optimum 0 at the constraint boundary
    return ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])])


def step_at(p, x, eps):
    # sg.step takes the oracle outputs at x; p has its one constraint in ineq[0]
    fbar_val, fbar_grad = p.ineq[0](x)
    return sg.step(x, eps, p.f0(x)[1], fbar_val, fbar_grad)


def test_step_branches_hand_example():
    # mechanics check with fbar(x) = x and objective x
    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([1.0])])
    x1, stopped = step_at(p, np.array([0.5]), eps=0.1)
    assert not stopped
    assert x1[0] == pytest.approx(0.0)  # infeasible branch: 0.5 - 0.5/1

    x2, stopped = step_at(p, x1, eps=0.1)
    assert not stopped
    assert x2[0] == pytest.approx(-0.1)  # objective branch: 0 - 0.1*1


def test_step_zero_subgradient_terminates():
    p = ConstrainedProblem(AffineOracle([0.0], 5.0), [AffineOracle([1.0])])
    x = np.array([-1.0])  # feasible, objective subgradient is zero
    x1, stopped = step_at(p, x, eps=0.1)
    assert stopped
    np.testing.assert_array_equal(x1, x)


def test_branch_step_identities():
    # objective branch moves the linearization by exactly eps; constraint
    # branch moves fbar's linearization by exactly fbar(x)
    rng = np.random.default_rng(2)
    p = ConstrainedProblem(AffineOracle(rng.normal(size=3)),
                           [AbsAffineOracle(rng.normal(size=3), 0.5)])
    eps = 0.05
    for _ in range(50):
        x = rng.normal(size=3)
        fbar_val, fbar_g = p.ineq[0](x)
        g0 = p.f0(x)[1]
        x_next, stopped = sg.step(x, eps, g0, fbar_val, fbar_g)
        assert not stopped
        if fbar_val <= eps:
            assert g0 @ (x - x_next) == pytest.approx(eps, rel=1e-12)
        else:
            assert fbar_g @ (x - x_next) == pytest.approx(fbar_val, rel=1e-12)


def test_solve_one_dimensional():
    p = analytic_problem()
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=10_000)
    rep = sg.solve(p, cfg)
    assert rep.status == COMPLETED
    assert abs(rep.final.val) <= 2e-3
    assert rep.final.infeas <= 2e-3
    assert rep.p_eps is not None and rep.p_eps <= 1e-3


def test_solve_trace_and_thinning():
    p = analytic_problem()
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=95, trace_every=10)
    rep = sg.solve(p, cfg)
    ks = [r.k for r in rep.trace]
    assert ks == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]  # final always kept
    assert ks == sorted(ks)
    empty = sg.solve(p, SolverConfig(solver="sg", iterations=0))
    assert empty.trace == []


def test_p_eps_nonincreasing_in_iteration_budget():
    p = analytic_problem()
    budgets = [50, 200, 1000, 5000]
    vals = [sg.solve(p, SolverConfig(solver="sg", eps=1e-3, iterations=k)).p_eps
            for k in budgets]
    assert all(v is not None for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_unconstrained_descent():
    # min |x - 3| with no constraints: objective branch is always active
    p = ConstrainedProblem(AbsAffineOracle([1.0], 3.0))
    cfg = SolverConfig(solver="sg", eps=1e-2, iterations=500)
    rep = sg.solve(p, cfg)
    assert rep.final.infeas == 0.0
    assert rep.final.val <= 2e-2


def test_constant_objective_terminates():
    p = ConstrainedProblem(AffineOracle([0.0], 1.0), [AffineOracle([1.0])])
    rep = sg.solve(p, SolverConfig(solver="sg", eps=0.5, iterations=100, x0=np.array([-1.0])))
    assert rep.status == SADDLE_TERMINATED
    np.testing.assert_array_equal(rep.x_out, [-1.0])


def test_case1_p_eps_tracks_lp_optimum():
    from subgrad.simplex import encode_case1, lp_solve_small
    from subgrad.testbeds import gen_random

    inst = gen_random(1, 10, 1)
    p_star = lp_solve_small(encode_case1(inst.problem)).value
    eps = 1e-2
    rep = sg.solve(inst.problem, SolverConfig(solver="sg", eps=eps,
                                              iterations=20_000, trace_every=100))
    assert rep.p_eps is not None
    assert rep.p_eps <= p_star + eps
    assert rep.p_eps >= p_star - 2 * eps  # eps-feasible points may undershoot


def test_solve_reformulates_equalities():
    # min x s.t. x = 1 has fbar(x) = |x - 1|
    p = ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[1.0])
    rep = sg.solve(p, SolverConfig(solver="sg", eps=1e-3, iterations=5000))
    assert rep.final.infeas <= 2e-3
    assert rep.final.val == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("field", ["lam0", "nu0"])
def test_solve_rejects_multiplier_start(field):
    cfg = SolverConfig(solver="sg", iterations=5, **{field: np.zeros(1)})
    with pytest.raises(ValueError, match=f"^{field} is set"):
        sg.solve(analytic_problem(), cfg)
