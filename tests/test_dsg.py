import numpy as np
import pytest

from subgrad import dsg
from subgrad.oracles import AffineOracle, Norm1Oracle, SqNormOracle
from subgrad.problem import ConstrainedProblem, saddle_direction
from subgrad.reports import NO_EPS_FEASIBLE, SADDLE_TERMINATED, SolverConfig
from subgrad.testbeds import gen_random


def equality_only_problem():
    # min 0 s.t. x = 1 in one dimension
    return ConstrainedProblem(AffineOracle([0.0]), [], A=[[1.0]], b=[1.0])


def min_x_st_neg_x_nonpos():
    # min x s.t. -x <= 0; optimum x* = 0 with multiplier 1
    return ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])])


def test_saddle_subgradient_hand_example():
    p = equality_only_problem()
    g = saddle_direction(p, np.array([0.0, 0.0]))[0]
    np.testing.assert_array_equal(g, [0.0, 1.0])  # (Gx, -Gnu) = (0, -(0-1))


def test_saddle_subgradient_stationary_point():
    # g0 + A^T nu = 0 and feasible x make the whole direction vanish
    p = ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[0.5])
    g = saddle_direction(p, np.array([0.5, -1.0]))[0]
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_lambda_block_is_nonpositive():
    p = gen_random(1, 6, 12).problem
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = np.concatenate([rng.normal(size=6), rng.uniform(0, 2, size=1), rng.normal(size=1)])
        g = saddle_direction(p, z)[0]
        assert np.all(g[6:7] <= 0.0)


@pytest.mark.parametrize("make", [lambda: gen_random(1, 6, 12).problem,
                                  lambda: gen_random(2, 4, 2).problem])
def test_direction_matches_plain_dsg_direction(make):
    # an independent transcription of the DSG direction
    # (g0 + sum_{f_i > 0} lam_i g_i + A^T nu, -F, b - Ax) must equal T at rho = 0
    p = make()
    n, m, l = p.n, p.m, p.l
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = np.concatenate([rng.normal(size=n), rng.uniform(0, 2, size=m),
                            rng.normal(size=l)])
        x, lam, nu = z[:n], z[n:n + m], z[n + m:]
        _, g0 = p.f0(x)
        gx = np.array(g0)
        F = np.zeros(m)
        for i, oracle in enumerate(p.ineq):
            v, g = oracle(x)
            if v > 0.0:
                F[i] = v
                gx += lam[i] * g
        gx += p.A.T @ nu
        expected = np.concatenate([gx, -F, p.b - p.A @ x])
        np.testing.assert_array_equal(saddle_direction(p, z)[0], expected)


def test_step_hand_example():
    p = equality_only_problem()
    st = dsg.init_state(p)
    assert dsg.step(p, st)
    np.testing.assert_array_equal(st.s_acc, [0.0, 1.0])
    np.testing.assert_array_equal(st.z_arr, [0.0, -1.0])
    assert st.beta == 2.0
    assert st.delta == 1.0
    np.testing.assert_array_equal(st.x_hat, [0.0])
    np.testing.assert_array_equal(st.x_bar, [0.0])


def test_beta_recursion_values_and_envelope():
    beta = 1.0
    seen = [beta]
    for _ in range(3):
        beta += 1.0 / beta
        seen.append(beta)
    assert seen == [1.0, 2.0, 2.5, 2.9]

    # beta_k tracks sqrt(2k + 1) for a long horizon
    beta = 1.0
    for k in range(1, 1_000_001):
        beta += 1.0 / beta
        root = (2.0 * k + 1.0) ** 0.5
        assert 0.9 * root <= beta <= root + 1.0


def test_state_beta_matches_recursion():
    p = min_x_st_neg_x_nonpos()
    st = dsg.init_state(p)
    beta = 1.0
    for _ in range(500):
        dsg.step(p, st)
        beta += 1.0 / beta
    assert st.beta == beta  # identical float operations


def test_lambda_never_below_start():
    p = gen_random(1, 8, 3).problem
    lam0 = np.array([0.3])
    st = dsg.init_state(p, lam0=lam0)
    n = p.n
    for _ in range(2000):
        dsg.step(p, st)
        lam = st.z_arr[n:n + p.m]
        assert np.all(lam >= lam0)


def test_boundedness_invariant_on_known_saddle():
    # ||z_k - z*|| <= ||z0 - z*|| + 1 with z* = (0, 1)
    p = min_x_st_neg_x_nonpos()
    st = dsg.init_state(p)
    z_star = np.array([0.0, 1.0])
    bound = np.linalg.norm(st.z0 - z_star) + 1.0
    for _ in range(10_000):
        dsg.step(p, st)
        assert np.linalg.norm(st.z_arr - z_star) <= bound + 1e-9


def test_x_bar_matches_direct_recomputation():
    p = gen_random(1, 5, 9).problem
    st = dsg.init_state(p)
    num = np.zeros(p.n)
    den = 0.0
    for _ in range(300):
        g = saddle_direction(p, st.z_arr)[0]
        gnorm = np.linalg.norm(g)
        x_k = st.z_arr[:p.n]
        assert dsg.step(p, st)
        num += x_k / gnorm
        den += 1.0 / gnorm
        np.testing.assert_allclose(st.x_bar, num / den, rtol=1e-12, atol=1e-15)


def test_solve_one_dimensional_inequality():
    p = min_x_st_neg_x_nonpos()
    rep = dsg.solve(p, SolverConfig(solver="mdsg", eps=1e-3, iterations=10_000))
    assert abs(rep.final.val) <= 1e-2
    assert rep.final.infeas <= 1e-2


def test_case1_instance_reaches_small_infeasibility():
    # typical draws of this family land around 1.5e-2 at this budget
    inst = gen_random(1, 10, 1)
    rep = dsg.solve(inst.problem,
                    SolverConfig(solver="mdsg", eps=1e-3, iterations=10_000,
                                 trace_every=500), mode="multi")
    assert rep.final.infeas <= 2e-2


def test_single_mode_equals_multi_on_single_constraint_problem():
    c = np.random.default_rng(4).uniform(-1, 1, 10)
    p = ConstrainedProblem(AffineOracle(c), [Norm1Oracle(10, offset=-1.0)])
    cfg = SolverConfig(solver="mdsg", eps=1e-3, iterations=400, trace_every=1)
    multi = dsg.solve(p, cfg, mode="multi")
    single = dsg.solve(p, cfg, mode="single")
    assert len(multi.trace) == len(single.trace)
    for a, b in zip(multi.trace, single.trace):
        assert abs(a.val - b.val) <= 1e-12
        assert abs(a.infeas - b.infeas) <= 1e-12
    np.testing.assert_allclose(multi.x_out, single.x_out, atol=1e-12)


def test_single_mode_needs_constraints():
    p = ConstrainedProblem(AffineOracle([1.0]))
    with pytest.raises(ValueError):
        dsg.solve(p, SolverConfig(solver="sdsg", iterations=10), mode="single")


def test_single_mode_infeasibility_convention():
    # with equalities the reported infeasibility is max{fbar(x_bar), 0}
    p = ConstrainedProblem(AffineOracle([1.0, 0.0]),
                           [AffineOracle([1.0, 0.0], -2.0)],
                           A=[[0.0, 1.0]], b=[1.0])
    rep = dsg.solve(p, SolverConfig(solver="sdsg", eps=1e-3, iterations=50,
                                    trace_every=1), mode="single")
    from subgrad.problem import max_constraint_oracle
    fbar = max_constraint_oracle(p)
    last = rep.trace[-1]
    assert last.infeas == pytest.approx(max(fbar.value(rep.x_out), 0.0), abs=1e-12)


def test_zero_iterations_has_no_average():
    p = min_x_st_neg_x_nonpos()
    rep = dsg.solve(p, SolverConfig(solver="mdsg", iterations=0))
    assert rep.trace == []
    assert rep.status == NO_EPS_FEASIBLE
    np.testing.assert_array_equal(rep.x_out, [0.0])


def test_immediate_saddle_termination():
    # constant objective, no constraints: G = 0 at the start
    p = ConstrainedProblem(AffineOracle([0.0, 0.0], 3.0))
    rep = dsg.solve(p, SolverConfig(solver="mdsg", iterations=100))
    assert rep.status == SADDLE_TERMINATED
    assert rep.trace == []


def test_solve_equality_problem_converges():
    # min (x - 2)^2 s.t. x = 1; averaged iterate approaches 1
    p = ConstrainedProblem(
        SqNormOracle(1, scale=1.0), [], A=[[1.0]], b=[1.0])
    # shift the objective minimum away from the constraint via sum with affine
    from subgrad.oracles import SumOracle
    p = ConstrainedProblem(SumOracle([SqNormOracle(1, scale=1.0),
                                      AffineOracle([-4.0], 4.0)]),
                           [], A=[[1.0]], b=[1.0])
    rep = dsg.solve(p, SolverConfig(solver="mdsg", eps=1e-2, iterations=20_000))
    assert rep.x_out[0] == pytest.approx(1.0, abs=5e-2)
