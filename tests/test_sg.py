import numpy as np
import pytest

from subgrad import sg
from subgrad.oracles import AbsAffineOracle, AffineOracle, ConvexOracle
from subgrad.problem import ConstrainedProblem, single_constraint_form
from subgrad.reports import COMPLETED, SADDLE_TERMINATED, SolverConfig
from subgrad.testbeds import gen_random
from test_replay import INSTANCES


def test_step_branches_hand_example():
    # the two steps from x = 0.5 of fbar(x) = x and objective x at eps = 0.1
    g = np.array([1.0])
    x1, stopped = sg.step(np.array([0.5]), g, 0.5)
    assert not stopped
    assert x1[0] == pytest.approx(0.0)  # constraint step, length fbar(0.5): 0.5 - 0.5/1

    x2, stopped = sg.step(x1, g, 0.1)
    assert not stopped
    assert x2[0] == pytest.approx(-0.1)  # objective step, length eps: 0 - 0.1*1


def test_step_zero_subgradient_terminates():
    x = np.array([-1.0])
    x1, stopped = sg.step(x, np.zeros(1), 0.1)
    assert stopped
    np.testing.assert_array_equal(x1, x)


def test_branch_step_identities():
    # an objective step moves f0's linearization by exactly eps; a constraint
    # step moves fbar's linearization by exactly fbar(x)
    rng = np.random.default_rng(2)
    p = ConstrainedProblem(AffineOracle(rng.normal(size=3)),
                           [AbsAffineOracle(rng.normal(size=3), 0.5)])
    eps = 0.05
    for _ in range(50):
        x = rng.normal(size=3)
        fbar_val, fbar_g = p.ineq[0](x)
        for g, length in ((p.f0(x)[1], eps), (fbar_g, fbar_val)):
            x_next, stopped = sg.step(x, g, length)
            assert not stopped
            assert g @ (x - x_next) == pytest.approx(length, rel=1e-12)


def test_solve_switches_at_fbar_equal_eps():
    # f0 = 2x, x <= 0, so fbar(x) = x: from x0 = eps the step descends f0
    # (length eps along 2), from one ulp above eps it descends fbar to 0
    p = ConstrainedProblem(AffineOracle([2.0]), [AffineOracle([1.0])])
    eps = 1e-3
    for x0, x1 in ((eps, eps / 2), (np.nextafter(eps, 1.0), 0.0)):
        cfg = SolverConfig(solver="sg", eps=eps, iterations=1, x0=np.array([x0]))
        np.testing.assert_array_equal(sg.solve(p, cfg).x_out, [x1])


def test_solve_one_dimensional():
    p = INSTANCES["one_d"]()
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=10_000)
    rep = sg.solve(p, cfg)
    assert rep.status == COMPLETED
    assert abs(rep.final.val) <= 2e-3
    assert rep.final.infeas <= 2e-3
    assert rep.p_eps is not None and rep.p_eps <= 1e-3


def test_solve_trace_and_thinning():
    p = INSTANCES["one_d"]()
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=95, trace_every=10)
    rep = sg.solve(p, cfg)
    ks = [r.k for r in rep.trace]
    assert ks == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]  # final always kept
    assert ks == sorted(ks)
    empty = sg.solve(p, SolverConfig(solver="sg", iterations=0))
    assert empty.trace == []


def test_p_eps_nonincreasing_in_iteration_budget():
    p = INSTANCES["one_d"]()
    budgets = [50, 200, 1000, 5000]
    vals = [sg.solve(p, SolverConfig(solver="sg", eps=1e-3, iterations=k)).p_eps
            for k in budgets]
    assert all(v is not None for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_unconstrained_descent():
    # min |x - 3| with no constraints: objective branch is always active
    p = ConstrainedProblem(AbsAffineOracle([1.0], 3.0))
    cfg = SolverConfig(solver="sg", eps=1e-2, iterations=500, trace_every=1)
    rep = sg.solve(p, cfg)
    assert len(rep.trace) == 500
    assert all(row.infeas == 0.0 for row in rep.trace)  # fbar = -inf, reported as 0
    assert rep.final.val <= 2e-2


def test_constant_objective_terminates():
    p = ConstrainedProblem(AffineOracle([0.0], 1.0), [AffineOracle([1.0])])
    rep = sg.solve(p, SolverConfig(solver="sg", eps=0.5, iterations=100, x0=np.array([-1.0])))
    assert rep.status == SADDLE_TERMINATED
    np.testing.assert_array_equal(rep.x_out, [-1.0])


def test_case1_p_eps_tracks_lp_optimum():
    from subgrad.simplex import encode_case1, lp_solve_small

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
        sg.solve(INSTANCES["one_d"](), cfg)


class _CountingOracle(ConvexOracle):
    """Logs, per evaluation of the oracle it wraps, whether a subgradient was built."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim
        self.log = []

    def __call__(self, x):
        self.log.append((True, x.copy()))
        return self.inner(x)

    def value(self, x):
        self.log.append((False, x.copy()))
        return self.inner.value(x)


def test_objective_subgradient_only_before_objective_steps():
    # each iterate x_0..x_K reads f0 once, and builds its subgradient iff fbar(x_k) <= eps
    p = gen_random(1, 10, 5).problem
    counted = _CountingOracle(p.f0)
    cfg = SolverConfig(solver="sg", eps=1e-3, iterations=400, trace_every=1)
    r = sg.solve(ConstrainedProblem(counted, p.ineq, p.A, p.b), cfg)
    assert [row.k for row in r.trace] == list(range(1, 401))  # one row per iterate after x0
    fbar = single_constraint_form(p).ineq[0]
    assert len(counted.log) == 401
    assert [built for built, _ in counted.log] == [fbar.value(x) <= cfg.eps for _, x in counted.log]
    assert 0 < sum(built for built, _ in counted.log) < 401
    np.testing.assert_array_equal(counted.log[0][1], np.zeros(p.n))
    np.testing.assert_array_equal(counted.log[-1][1], r.x_out)
    plain = sg.solve(p, cfg)
    assert [(a.val, a.infeas) for a in r.trace] == [(a.val, a.infeas) for a in plain.trace]
