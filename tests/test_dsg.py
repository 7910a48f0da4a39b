import numpy as np
import pytest

from subgrad import dsg
from subgrad.oracles import AffineOracle, SqNormOracle
from subgrad.problem import ConstrainedProblem, saddle_direction, single_constraint_form
from subgrad.reports import NO_EPS_FEASIBLE, SADDLE_TERMINATED, SolverConfig
from subgrad.testbeds import gen_random
import transcription
from test_replay import FAMILIES, INSTANCES, assert_matches_transcription, family_id


def equality_only_problem():
    # min 0 s.t. x = 1 in one dimension
    return ConstrainedProblem(AffineOracle([0.0]), [], A=[[1.0]], b=[1.0])


def test_saddle_subgradient_hand_example():
    p = equality_only_problem()
    g = saddle_direction(p, np.array([0.0, 0.0]))[0]
    np.testing.assert_array_equal(g, [0.0, 1.0])  # (Gx, -Gnu) = (0, -(0-1))


def test_saddle_subgradient_stationary_point():
    # g0 + A^T nu = 0 and feasible x make the whole direction vanish
    p = ConstrainedProblem(AffineOracle([1.0]), [], A=[[1.0]], b=[0.5])
    g = saddle_direction(p, np.array([0.5, -1.0]))[0]
    np.testing.assert_array_equal(g, [0.0, 0.0])


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


def test_boundedness_invariant_on_known_saddle():
    # ||z_k - z*|| <= ||z0 - z*|| + 1 with z* = (0, 1)
    p = INSTANCES["one_d"]()
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


@pytest.mark.parametrize("label", FAMILIES, ids=family_id)
def test_equality_residual_of_x_bar_is_the_scaled_dual_sum(label):
    # s_acc sums the blocks b - A x_j / ||G_j||, so A x_bar - b = -s_acc[n+m:] / delta
    p = INSTANCES[label]()
    st = dsg.init_state(p)
    for _ in range(300):
        assert dsg.step(p, st)
        residual = p.A @ st.x_bar - p.b
        from_sum = st.s_acc[p.n + p.m:] / st.delta
        assert np.linalg.norm(residual + from_sum) <= 1e-12 * np.linalg.norm(residual)


@pytest.mark.parametrize("label", FAMILIES[1:], ids=family_id)
def test_block_rows_of_x_bar_are_the_scaled_row_sums(label):
    # R sums the rows r_j / ||G_j|| of a row block of fbar, so C x_bar + d = R / delta
    run = single_constraint_form(INSTANCES[label]())
    fbar = run.ineq[0]
    st = dsg.init_state(run)
    walk = dsg._fbar_at_x_bar(fbar, st)
    assert st.row_sums
    for _ in range(300):
        assert dsg.step(run, st)
        for j, acc in st.row_sums:
            rows = fbar.parts[j].rows(st.x_bar)
            assert np.linalg.norm(rows - acc / st.delta) <= 1e-12 * np.linalg.norm(rows)
        direct = fbar.value(st.x_bar)
        assert abs(walk()[1] - direct) <= 1e-12 * (1.0 + abs(direct))


def test_solve_one_dimensional_inequality():
    p = INSTANCES["one_d"]()
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


def test_single_mode_needs_constraints():
    p = ConstrainedProblem(AffineOracle([1.0]))
    with pytest.raises(ValueError):
        dsg.solve(p, SolverConfig(solver="sdsg", iterations=10), mode="single")


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="^unknown mode 'both'"):
        dsg.solve(INSTANCES["one_d"](), SolverConfig(solver="mdsg", iterations=10),
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
    p = INSTANCES["one_d"]()
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
