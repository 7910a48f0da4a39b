import numpy as np
import pytest

from subgrad import dsg
from subgrad.oracles import AffineOracle, Norm1Oracle, SqNormOracle
from subgrad.problem import ConstrainedProblem, saddle_direction, single_constraint_form
from subgrad.reports import NO_EPS_FEASIBLE, SADDLE_TERMINATED, SolverConfig
from subgrad.testbeds import build_lad, build_svm, gen_random
import transcription
from test_replay import assert_matches_transcription


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
    # the transcription's DSG direction (g0 + sum_{f_i > 0} lam_i g_i + A^T nu,
    # -F, b - Ax), with one oracle call per row, must equal T at rho = 0
    p = make()
    n, m, l = p.n, p.m, p.l
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = np.concatenate([rng.normal(size=n), rng.uniform(0, 2, size=m),
                            rng.normal(size=l)])
        assert saddle_direction(p, z)[0].tobytes() == transcription.direction(p, z)[0].tobytes()


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
    # the transcription averages the x_j with weights 1 / ||G_j|| directly
    p = gen_random(1, 5, 9).problem
    st = dsg.init_state(p)
    points = transcription.dual_averaging(p, SolverConfig(solver="mdsg"))
    for _ in range(300):
        assert dsg.step(p, st)
        assert st.x_bar.tobytes() == next(points)[0].tobytes()


@pytest.mark.parametrize("build", [lambda: gen_random(1, 10, 1), lambda: gen_random(2, 4, 2),
                                   lambda: build_lad(3, 1), lambda: build_svm(1, 1)],
                         ids=["case1-n10", "case2-n4", "lad-nbar3", "svm-nbar1"])
def test_equality_residual_of_x_bar_is_the_scaled_dual_sum(build):
    # s_acc sums the blocks b - A x_j / ||G_j||, so A x_bar - b = -s_acc[n+m:] / delta
    p = build().problem
    st = dsg.init_state(p)
    for _ in range(300):
        assert dsg.step(p, st)
        residual = p.A @ st.x_bar - p.b
        from_sum = st.s_acc[p.n + p.m:] / st.delta
        assert np.linalg.norm(residual + from_sum) <= 1e-12 * np.linalg.norm(residual)


@pytest.mark.parametrize("build", [lambda: gen_random(2, 4, 2), lambda: build_lad(3, 1),
                                   lambda: build_svm(1, 1)],
                         ids=["case2-n4", "lad-nbar3", "svm-nbar1"])
def test_block_rows_of_x_bar_are_the_scaled_row_sums(build):
    # R sums the rows r_j / ||G_j|| of a row block of fbar, so C x_bar + d = R / delta
    run = single_constraint_form(build().problem)
    fbar = run.ineq[0]
    st = dsg.init_state(run)
    at_x_bar = dsg._fbar_at_x_bar(fbar, st)
    assert st.row_sums
    for _ in range(300):
        assert dsg.step(run, st)
        for j, acc in st.row_sums:
            rows = fbar.parts[j].rows(st.x_bar)
            assert np.linalg.norm(rows - acc / st.delta) <= 1e-12 * np.linalg.norm(rows)
        direct = fbar.value(st.x_bar)
        assert abs(at_x_bar.value(st.x_bar) - direct) <= 1e-12 * (1.0 + abs(direct))


@pytest.mark.parametrize("problem", [min_x_st_neg_x_nonpos(), gen_random(1, 10, 1).problem],
                         ids=["one-d", "case1-n10"])
def test_max_form_without_a_row_block_is_read_directly(problem):
    # no row block, no row sum: fbar(x_bar) is evaluated as before
    fbar = single_constraint_form(problem).ineq[0]
    st = dsg.init_state(single_constraint_form(problem))
    assert dsg._fbar_at_x_bar(fbar, st) is fbar and st.row_sums == []


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


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="^unknown mode 'both'"):
        dsg.solve(min_x_st_neg_x_nonpos(), SolverConfig(solver="mdsg", iterations=10),
                  mode="both")


def test_single_mode_infeasibility_convention():
    # with equalities the reported infeasibility is max{fbar(x_bar), 0}, as
    # the transcription evaluates it at every x_bar
    p = ConstrainedProblem(AffineOracle([1.0, 0.0]),
                           [AffineOracle([1.0, 0.0], -2.0)],
                           A=[[0.0, 1.0]], b=[1.0])
    cfg = SolverConfig(solver="sdsg", eps=1e-3, iterations=50)
    assert_matches_transcription(p, cfg, dsg.solve(p, cfg, mode="single"))


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
