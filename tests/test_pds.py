import dataclasses

import numpy as np
import pytest

from subgrad import pds
from subgrad.oracles import AffineOracle, SqNormOracle
from subgrad.problem import ConstrainedProblem, saddle_direction
from subgrad.reports import SADDLE_TERMINATED, SolverConfig
from subgrad.testbeds import gen_random
from test_replay import FAMILIES, INSTANCES, family_id


def quadratic_equality_problem():
    # min x^2 s.t. x = 1; saddle point (x, nu) = (1, -2)
    return ConstrainedProblem(SqNormOracle(1, scale=1.0), [], A=[[1.0]], b=[1.0])


def test_step_length_values():
    assert pds.step_length(0, 0.5) == 1.0
    assert pds.step_length(0, 0.99) == 1.0
    assert pds.step_length(3, 0.5) == pytest.approx(0.3535533905932738, rel=1e-14)
    assert pds.step_length(99, 0.99) == pytest.approx(0.0977237220955811, rel=1e-12)
    ks = np.arange(200)
    gammas = [pds.step_length(k, 0.7) for k in ks]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    with pytest.raises(ValueError):
        pds.step_length(1, 1.0)


def test_direction_hand_example():
    p = quadratic_equality_problem()
    z = np.array([0.0, 0.0])
    t = saddle_direction(p, z, rho=1.0, s_exp=2.0)[0]
    np.testing.assert_allclose(t, [-2.0, 1.0])


def test_direction_vanishes_when_feasible_blocks():
    # feasible point: penalty pieces and the multiplier blocks are all zero
    p = ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])],
                           A=[[1.0]], b=[0.5])
    z = np.array([0.5, 0.0, 0.0])
    t = saddle_direction(p, z, rho=0.5, s_exp=1.5)[0]
    np.testing.assert_array_equal(t[1:], [0.0, 0.0])
    np.testing.assert_array_equal(t[:1], [1.0])  # just g0


def test_step_hand_example():
    p = quadratic_equality_problem()
    st = pds.init_state(p, SolverConfig(rho=1.0, s_exp=2.0, delta_exp=0.5))
    assert pds.step(p, st)
    assert st.z_arr[0] == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-14)
    assert st.z_arr[1] == pytest.approx(-1.0 / np.sqrt(5.0), rel=1e-14)


def test_step_terminates_at_saddle():
    p = quadratic_equality_problem()
    st = pds.init_state(p, SolverConfig(rho=1.0, s_exp=2.0, delta_exp=0.5,
                                        x0=np.array([1.0]), nu0=np.array([-2.0])))
    assert not pds.step(p, st)  # T = 0 exactly at the saddle
    rep = pds.solve(p, SolverConfig(solver="pds", iterations=50,
                                    x0=np.array([1.0]), nu0=np.array([-2.0])))
    assert rep.status == SADDLE_TERMINATED
    assert rep.trace == []


def test_s2_matches_plain_primal_dual_method():
    # an independent transcription of the standard quadratic-penalty
    # primal-dual update must generate the same iterates as s_exp = 2
    p = gen_random(1, 5, 8).problem
    rho, delta = 0.5, 0.5
    st = pds.init_state(p, SolverConfig(rho=rho, s_exp=2.0, delta_exp=delta))

    n, m, l = p.n, p.m, p.l
    z = st.z_arr.copy()
    for k in range(200):
        x, lam, nu = z[:n], z[n:n + m], z[n + m:]
        _, g0 = p.f0(x)
        rows = [o(x) for o in p.ineq]  # (f_i(x), a subgradient of f_i at x)
        F = np.maximum([f for f, _ in rows], 0.0)
        tx = np.array(g0)
        for i, (f, g) in enumerate(rows):
            if f > 0.0:
                tx += (lam[i] + rho * 2.0 * F[i]) * g
        r = p.A @ x - p.b
        tx += p.A.T @ (nu + rho * 2.0 * r)
        t = np.concatenate([tx, -F, -r])
        alpha = (k + 1.0) ** (-0.75) / np.linalg.norm(t)
        z = z - alpha * t

        pds.step(p, st)
        np.testing.assert_allclose(st.z_arr, z, rtol=1e-12, atol=1e-14)


def test_direction_gap_nonnegative_at_known_saddle():
    # T(z).(z - z*) >= 0 along the run for min x s.t. -x <= 0, z* = (0, 1)
    p = INSTANCES["one_d"]()
    z_star = np.array([0.0, 1.0])
    st = pds.init_state(p, SolverConfig(rho=0.5, s_exp=2.0, delta_exp=0.5))
    for _ in range(5000):
        t = saddle_direction(p, st.z_arr, 0.5, 2.0)[0]
        assert t @ (st.z_arr - z_star) >= -1e-9
        if not pds.step(p, st):
            break


def test_solve_equality_problem():
    p = quadratic_equality_problem()
    rep = pds.solve(p, SolverConfig(solver="pds", eps=1e-3, iterations=10_000,
                                    rho=0.5, s_exp=2.0, delta_exp=0.5))
    assert rep.x_out[0] == pytest.approx(1.0, abs=1e-2)
    assert rep.final.val == pytest.approx(1.0, abs=2e-2)


def test_case1_instance_reaches_small_infeasibility():
    # typical draws of this family land at a few e-3 at this budget,
    # easy ones at a few e-4
    inst = gen_random(1, 10, 1)
    rep = pds.solve(inst.problem,
                    SolverConfig(solver="pds", eps=1e-3, iterations=10_000,
                                 rho=0.5, s_exp=2.0, delta_exp=0.5,
                                 trace_every=500))
    assert rep.final.infeas <= 5e-3


def test_solve_matches_step_loop():
    p = gen_random(2, 4, 2).problem
    cfg = SolverConfig(solver="pds", eps=1e-3, iterations=150, rho=0.5,
                       s_exp=1.5, delta_exp=0.5)
    rep = pds.solve(p, cfg)
    st = pds.init_state(p, SolverConfig(rho=0.5, s_exp=1.5, delta_exp=0.5))
    for _ in range(150):
        pds.step(p, st)
    np.testing.assert_array_equal(rep.x_out, st.z_arr[:p.n])


@pytest.mark.parametrize("s_exp", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("label", FAMILIES, ids=family_id)
def test_trace_infeasibility_is_read_off_direction(label, s_exp):
    # solve reads ||F(x_k)|| + ||A x_k - b|| off the blocks of T; it must
    # equal the problem's own measure at the step loop's iterates, bit for bit
    p = INSTANCES[label]()
    cfg = SolverConfig(solver="pds", iterations=300, s_exp=s_exp)
    rep = pds.solve(p, cfg)
    st = pds.init_state(p, dataclasses.replace(cfg, rho=1.0 / s_exp))
    expected = []
    for _ in range(300):
        assert pds.step(p, st)
        expected.append(p.infeasibility(st.z_arr[:p.n]))
    assert [r.infeas for r in rep.trace] == expected


def test_init_state_runs_rho_none_at_one_over_s():
    p = quadratic_equality_problem()
    cfg = SolverConfig(s_exp=1.5)
    assert pds.init_state(p, cfg).rho == 1.0 / 1.5
    # rho is resolved by init_state, so a replaced s_exp carries no stale rho
    assert pds.init_state(p, dataclasses.replace(cfg, s_exp=1.0)).rho == 1.0
