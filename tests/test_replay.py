"""Replay guard: every solver reproduces its pinned trace bit for bit.

Each digest is sha256 over the exact bits of (k, val, infeas) of every
trace row, packed as little-endian (int64, float64, float64). The pinned
values were recorded before the solve loops were merged into one driver;
a refactor of the iteration path must leave all of them unchanged.

The dense-rows instance has eight affine rows that share every coordinate,
one run of them read as a row block; its digests were recorded while the
solvers still read one oracle per row, so any change in the order in which
the rows are summed into a direction shows here. The box rows of case2 have
disjoint supports and cannot show it.

mdsg reads A x_bar - b off its dual-averaging sum, so on the four instances
with equality rows its infeas column differs from a product with A in the
last bits, and those 8 digests were re-pinned. DIRECT_PINNED keeps the
digests from before, which a replay that evaluates x_bar directly still
reproduces, and the library is checked row by row against that replay.

sdsg reads the rows of each AffineBlockOracle part of fbar at x_bar off a
weighted sum of the rows its direction read, so on the four instances whose
max form has a row block (case2, lad, svm and dense-rows) its infeas column
differs from evaluating fbar(x_bar) in the last bits, and those 8 digests
were re-pinned the same way, against SDSG_DIRECT_PINNED. one_d and case1
n=10 have no row block, and their sdsg digests are unchanged.

The digests hold for one BLAS kernel and one numpy version: the products
with A and the row reductions take their bits from both (ROADMAP item 11).
"""

import hashlib
import struct

import numpy as np
import pytest

from subgrad import SolverConfig, dsg, reports, solve
from subgrad.oracles import AffineBlockOracle, AffineOracle, euclidean_norm
from subgrad.problem import ConstrainedProblem, max_constraint_oracle, single_constraint_form
from subgrad.testbeds import build_lad, build_svm, gen_random

def dense_rows():
    rng = np.random.Generator(np.random.PCG64(8))
    C = rng.standard_normal((8, 6))
    d = -rng.uniform(0.5, 1.5, 8)
    return ConstrainedProblem(AffineOracle(rng.standard_normal(6)),
                              [AffineOracle(c, dj) for c, dj in zip(C, d)])


INSTANCES = {
    "one_d": lambda: ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])]),
    "case1-n10-s1": lambda: gen_random(1, 10, 1).problem,
    "case2-n4-s2": lambda: gen_random(2, 4, 2).problem,
    "lad-nbar3-s1": lambda: build_lad(3, 1).problem,
    "svm-nbar1-s1": lambda: build_svm(1, 1).problem,
    "dense-rows-s8": dense_rows,
}

# (instance, solver) -> (status, trace digest) at K = 200, trace_every = 1
PINNED = {
    ("one_d", "sg"): ("COMPLETED", "20f06588e86c306681a5afe251fe73b4dace2830bcfe7c9f993f381a99999926"),
    ("one_d", "sdsg"): ("COMPLETED", "38d849c2d855eda4855bf5bfb1b9d53e5535d22c242acd7ae6765b3b1932c76d"),
    ("one_d", "mdsg"): ("COMPLETED", "38d849c2d855eda4855bf5bfb1b9d53e5535d22c242acd7ae6765b3b1932c76d"),
    ("one_d", "pds"): ("COMPLETED", "4cd468a6c3fef0d5467bd5ad7c8ae164c80805f904aa29e8bd15ad43f16c9c40"),
    ("case1-n10-s1", "sg"): ("COMPLETED", "9bc141bbd30561a45e74cae3c860c8542edd2465f4b3aafb80d304720d443cb4"),
    ("case1-n10-s1", "sdsg"): ("NO_EPS_FEASIBLE", "b793b9f3ef577dd1362d8588391f4826556d6d68da37e76398470e68f52650b8"),
    ("case1-n10-s1", "mdsg"): ("NO_EPS_FEASIBLE", "759b06711673c26fb689cdb84bf6ac59ea7cb2e90c8aa943caca5bdd299dfe27"),
    ("case1-n10-s1", "pds"): ("NO_EPS_FEASIBLE", "b61c84ce379489846d11445897b88ac4fbe76b79e06dc2ae7f10c3e6a2c2faab"),
    ("case2-n4-s2", "sg"): ("COMPLETED", "2797199cb5b0600acc82e798545dfd34fc96a7e42766d0dffa4d10a0a2bc5e20"),
    ("case2-n4-s2", "sdsg"): ("NO_EPS_FEASIBLE", "39b2436995403466e1b4cabe2732c4298a45a6b7bbb5e413ae663d2ad36029f9"),
    ("case2-n4-s2", "mdsg"): ("NO_EPS_FEASIBLE", "a795ab03e7fba62885c84af283bbc221d6a08fbd445b0c9a17776dbca4f8df4b"),
    ("case2-n4-s2", "pds"): ("NO_EPS_FEASIBLE", "3e920d9d36cf0c9e397413168e506f7790120ed9d2eec0025959b5e438ed981e"),
    ("lad-nbar3-s1", "sg"): ("COMPLETED", "b24089e3212732a9969ed00e03cce9e9694fdc58e6a9f7146d17c97d36e2121a"),
    ("lad-nbar3-s1", "sdsg"): ("NO_EPS_FEASIBLE", "d272fce37da4d39b75a64a754938e4193d5a245d9f50a34ed8599dc231d634ba"),
    ("lad-nbar3-s1", "mdsg"): ("NO_EPS_FEASIBLE", "d37a626d8c0a3ff0d81cd07bead5cb8f1eff38c0176f506dc3cfaacebe0be829"),
    ("lad-nbar3-s1", "pds"): ("NO_EPS_FEASIBLE", "c761841b375bbdd0a035f9475ee35dcfeb9973a938dbc50f088049a070ed33d3"),
    ("svm-nbar1-s1", "sg"): ("COMPLETED", "e5a2485a4bf18948efb99fd1e9f43789af1fe68eab210330c407721cb96b48a2"),
    ("svm-nbar1-s1", "sdsg"): ("COMPLETED", "fb9b549130f874ab60d706f3f3444719738c56a4e755b3fe536489c91cfc1251"),
    ("svm-nbar1-s1", "mdsg"): ("COMPLETED", "8fb7c9bdcd876a173237a42dce20864c558e1a9fcdd6eb61164b2d0b2b77ebf3"),
    ("svm-nbar1-s1", "pds"): ("NO_EPS_FEASIBLE", "6b34b16218959ebe71e64630ea2e61409d56d328fbed9334aeefcda3950e14a4"),
    ("dense-rows-s8", "sg"): ("COMPLETED", "7874fbf7317154d6c444e198734ebbd0ee3b990d93ed655ca51ff2a5aa497ba5"),
    ("dense-rows-s8", "sdsg"): ("COMPLETED", "33796015e69482303a7bbda72b1f87a422ebab78b641e416e007bde080fcf26a"),
    ("dense-rows-s8", "mdsg"): ("COMPLETED", "2903bade91c1d5cf31bffe1872df209852280f021cd8140d6ebfb34a53faed0a"),
    ("dense-rows-s8", "pds"): ("COMPLETED", "907b96fb11a07735a242039943e046f8bf4b4441193f5535c0ec3d036d9462b2"),
}

# the same runs with trace_every = 7: rows k = 7, 14, .., 196 and the last, k = 200
PINNED_THINNED = {
    ("one_d", "sg"): ("COMPLETED", "613205e8823e1fd81124c2c313512e7937b90bc3327a3a6aeb8b903e5d56adc0"),
    ("one_d", "sdsg"): ("COMPLETED", "1d0086fbb6b588ad9ea83c1aaaa7cc284831e5bc33411cb0875abae7febdaa37"),
    ("one_d", "mdsg"): ("COMPLETED", "1d0086fbb6b588ad9ea83c1aaaa7cc284831e5bc33411cb0875abae7febdaa37"),
    ("one_d", "pds"): ("COMPLETED", "17723072993fbf7be0ae3d428eb7eee8f2cddc344668b4545c774844fe7f252f"),
    ("case1-n10-s1", "sg"): ("COMPLETED", "8b5e8b4906f71ec2be7e081fc2de8a62acdc7d16bf64800c50e3370e1ddc156f"),
    ("case1-n10-s1", "sdsg"): ("NO_EPS_FEASIBLE", "6331a775bea4115fa6e96f9925bd50e0dcf7140a1c208f00b658a3d02cd6e9eb"),
    ("case1-n10-s1", "mdsg"): ("NO_EPS_FEASIBLE", "a60d8d2c42281ec0f5c7091f2cdd78afaf3ef76979ae3adf2f4edbfca9a88e2c"),
    ("case1-n10-s1", "pds"): ("NO_EPS_FEASIBLE", "5e838f349b1e156d094a3feec3323f099dd7a1b1cb7e651f1d74a4594578d1d6"),
    ("case2-n4-s2", "sg"): ("COMPLETED", "3b640c470bf14ba2ff960c16b30b98c4d39c7a722f019bea8f531307c1922876"),
    ("case2-n4-s2", "sdsg"): ("NO_EPS_FEASIBLE", "0b498b189cf0f63dc8c7b6ef433d2d2e971381df598f5804864ec29ae6d79d57"),
    ("case2-n4-s2", "mdsg"): ("NO_EPS_FEASIBLE", "5380f00dfaae4abbace061324bffee1c8cdecec5873ffa4f67ab99c1259987a0"),
    ("case2-n4-s2", "pds"): ("NO_EPS_FEASIBLE", "febf4c6f3cda242d23a6841d77f5123cc06d4aaf0c9f97e7aaed14371d5b1996"),
    ("lad-nbar3-s1", "sg"): ("COMPLETED", "e768dd6cb36cc4e33f463f73af31db675989b8e9d8f84d20f1369e36c0b023be"),
    ("lad-nbar3-s1", "sdsg"): ("NO_EPS_FEASIBLE", "c703fc16a2e2d8365e58cfa3ed7788fe4084b8160057273e618d26cdbce334a0"),
    ("lad-nbar3-s1", "mdsg"): ("NO_EPS_FEASIBLE", "5e6a2a5335337368c327239530e636faaa5a613b0dbe50e38cebfcfcb6ed072d"),
    ("lad-nbar3-s1", "pds"): ("NO_EPS_FEASIBLE", "f9acbfef0d4199f2aeb40ff4ebac2dbe87b5748f272a1a72396624fc256704f7"),
    ("svm-nbar1-s1", "sg"): ("COMPLETED", "53fd4474732345b2957d567ed3797a9e4495141205aeafa5399d741e73724a1f"),
    ("svm-nbar1-s1", "sdsg"): ("COMPLETED", "5556ea4cbb6701824749522dc878ced3b9e603a746118c57c22e23869d2ddbf4"),
    ("svm-nbar1-s1", "mdsg"): ("COMPLETED", "0f31931ad4ab639b1a0d3d5cd50bf4fcf26ff3e0446dcdb673f1fdd1d9e0280e"),
    ("svm-nbar1-s1", "pds"): ("NO_EPS_FEASIBLE", "a8cb0407e8ba0d5698cdd00206c8a86a1623c49b8db8b3948e8c9d91202f2e20"),
    ("dense-rows-s8", "sg"): ("COMPLETED", "46c5fb6fa97bf787a4a7f4bbb028af2bcf71ed72f29b1b491d9041145a4930ad"),
    ("dense-rows-s8", "sdsg"): ("COMPLETED", "9483dd37ec898788314b6d8f9744292ed8a46fdd84da21a768f69755d815adeb"),
    ("dense-rows-s8", "mdsg"): ("COMPLETED", "adf4ba08944a7d21921e52807f5f154db64fe16f76132bd8d4bab3c5e93f922a"),
    ("dense-rows-s8", "pds"): ("COMPLETED", "16f4cc799590b8e4aa3387b4379ad0d7ab9b70b250c04bce8ada1c5a7db8ee44"),
}


def trace_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(struct.pack("<qdd", r.k, r.val, r.infeas))
    return h.hexdigest()


# (instance, trace_every) -> (status, trace digest) of mdsg at K = 200 with
# A x_bar - b evaluated by the product, as pinned before it was read off the sum
DIRECT_PINNED = {
    ("case1-n10-s1", 1): ("NO_EPS_FEASIBLE", "bac021db8a08d285dc2371232da4be0101b6223fe1e52a2d0e0552540d2a4c83"),
    ("case2-n4-s2", 1): ("NO_EPS_FEASIBLE", "9a03450240416dceb252919be655be7321ac2dfad5cadf17c5ca8db10dedc7a5"),
    ("lad-nbar3-s1", 1): ("NO_EPS_FEASIBLE", "804f3e3db1ddec069c60bed9320348b6731116908ca840776699b048f4d3c2ab"),
    ("svm-nbar1-s1", 1): ("COMPLETED", "af54193ab48f8031a3568dac3f1138a11e4e09fd42ad67169b92d0633431a0e4"),
    ("case1-n10-s1", 7): ("NO_EPS_FEASIBLE", "c0b1e859e127a33be4403c4c70159419bb6e057368c46ee7b2296a134a5dc0a7"),
    ("case2-n4-s2", 7): ("NO_EPS_FEASIBLE", "268c42add8c45cc561482af9cf1a0758caec203dfc3e3ce69a999a6b114d9d6d"),
    ("lad-nbar3-s1", 7): ("NO_EPS_FEASIBLE", "2700addcfc6c61506973b7b7da0d36c7f3463315ae785d8476fa6f4062122ac3"),
    ("svm-nbar1-s1", 7): ("COMPLETED", "9ffc78ff04a6bab0bd1e657eac11e0eb8a4c835498d73d5ae5a361a3f48b3b58"),
}


def direct_mdsg(problem, cfg):
    """mdsg with x_bar evaluated directly: dsg.step, then f0.value(x_bar) and
    problem.infeasibility(x_bar). Returns the report and ||A x_bar_k - b||
    for k = 1, 2, .."""
    state = dsg.init_state(problem, cfg.x0, cfg.lam0, cfg.nu0)
    residuals = []

    def advance():
        if not dsg.step(problem, state):
            return None
        x_bar = state.x_bar
        residuals.append(euclidean_norm(problem.A @ x_bar - problem.b))
        return x_bar, problem.f0.value(x_bar), problem.infeasibility(x_bar)

    return reports.drive(cfg, advance, state.z0[:problem.n]), residuals


def bits(v):
    return np.float64(v).tobytes()


def assert_mdsg_matches_direct(problem, cfg):
    """solve's mdsg report against direct_mdsg: k, val and x_out bit-equal,
    infeas within 1e-12 ||A x_bar_k - b|| (bit-equal when l = 0), and the
    same status and p_eps. Returns the direct report."""
    rep = solve(problem, cfg)
    ref, residuals = direct_mdsg(problem, cfg)
    assert (rep.status, rep.p_eps) == (ref.status, ref.p_eps)
    assert rep.x_out.tobytes() == ref.x_out.tobytes()
    assert [(r.k, bits(r.val)) for r in rep.trace] == [(r.k, bits(r.val)) for r in ref.trace]
    for r, q in zip(rep.trace, ref.trace):
        if problem.l:
            assert abs(r.infeas - q.infeas) <= 1e-12 * residuals[r.k - 1]
        else:
            assert bits(r.infeas) == bits(q.infeas)
    return ref


@pytest.mark.parametrize("label,solver", sorted(PINNED))
def test_trace_matches_pinned_digest(label, solver):
    report = solve(INSTANCES[label](), SolverConfig(solver=solver, iterations=200, trace_every=1))
    assert len(report.trace) == 200
    assert (report.status, trace_digest(report.trace)) == PINNED[label, solver]


@pytest.mark.parametrize("label,solver", sorted(PINNED_THINNED))
def test_thinned_trace_matches_pinned_digest(label, solver):
    report = solve(INSTANCES[label](), SolverConfig(solver=solver, iterations=200, trace_every=7))
    assert [r.k for r in report.trace] == list(range(7, 200, 7)) + [200]
    assert (report.status, trace_digest(report.trace)) == PINNED_THINNED[label, solver]


@pytest.mark.parametrize("label,every", sorted(DIRECT_PINNED))
def test_mdsg_matches_direct_evaluation_of_x_bar(label, every):
    cfg = SolverConfig(solver="mdsg", iterations=200, trace_every=every)
    ref = assert_mdsg_matches_direct(INSTANCES[label](), cfg)
    assert (ref.status, trace_digest(ref.trace)) == DIRECT_PINNED[label, every]


# (instance, trace_every) -> (status, trace digest) of sdsg at K = 200 with
# fbar(x_bar) evaluated directly, as pinned before the rows of its blocks were
# read off their sums
SDSG_DIRECT_PINNED = {
    ("case2-n4-s2", 1): ("NO_EPS_FEASIBLE", "32beee5e42595bd0f8de38ec995867ac048f34e043f695e8a5243af2e4b23330"),
    ("lad-nbar3-s1", 1): ("NO_EPS_FEASIBLE", "a28000e9a7a868408230893d2d7b9697ba86cbb94cda6ad1afcf7e025f734a90"),
    ("svm-nbar1-s1", 1): ("COMPLETED", "20e210529c74a72a7ebba3d77e6296969ae7f44fc20efcada4afdc4205dcc823"),
    ("dense-rows-s8", 1): ("COMPLETED", "f34b4b274a0bc9414258b57ba497575dcd2d0ae329a456e9f42262eb8ade9f9e"),
    ("case2-n4-s2", 7): ("NO_EPS_FEASIBLE", "1fe2f9c653f9fbe91c30a424126badbe3535cc2de248c1fd9e46a0206b51923a"),
    ("lad-nbar3-s1", 7): ("NO_EPS_FEASIBLE", "c833e7b4a5d5236bdc3233f5f297565e7b9c0785de47b45ec99d6d7ab3b3d185"),
    ("svm-nbar1-s1", 7): ("COMPLETED", "32f225de7158cd982e6df44491d754358551d7e4760d42596773178dd22d7470"),
    ("dense-rows-s8", 7): ("COMPLETED", "dcb400ce1613d4a47cf7eef3ae34218b272a786cfd479f718ce1f7570536b946"),
}


def direct_sdsg(problem, cfg):
    """sdsg with x_bar evaluated directly: dsg.step on the max form, then
    f0.value(x_bar) and fbar.value(x_bar)."""
    run = single_constraint_form(problem)
    fbar = run.ineq[0]
    state = dsg.init_state(run, cfg.x0, cfg.lam0, cfg.nu0)

    def advance():
        if not dsg.step(run, state):
            return None
        x_bar = state.x_bar
        fv = fbar.value(x_bar)
        return x_bar, run.f0.value(x_bar), (0.0 if fv <= 0.0 else fv)

    return reports.drive(cfg, advance, state.z0[:run.n])


def assert_sdsg_matches_direct(problem, cfg):
    """solve's sdsg report against direct_sdsg: k, val and x_out bit-equal,
    |infeas - direct infeas| <= 1e-12 (1 + |direct infeas|) (bit-equal when
    fbar has no row block), and the same status and p_eps. Returns the
    direct report."""
    rep = solve(problem, cfg)
    ref = direct_sdsg(problem, cfg)
    assert (rep.status, rep.p_eps) == (ref.status, ref.p_eps)
    assert rep.x_out.tobytes() == ref.x_out.tobytes()
    assert [(r.k, bits(r.val)) for r in rep.trace] == [(r.k, bits(r.val)) for r in ref.trace]
    if has_row_block(problem):
        for r, q in zip(rep.trace, ref.trace):
            assert abs(r.infeas - q.infeas) <= 1e-12 * (1.0 + abs(q.infeas))
    else:
        assert [bits(r.infeas) for r in rep.trace] == [bits(q.infeas) for q in ref.trace]
    return ref


def has_row_block(problem):
    """Whether the max form of problem has an AffineBlockOracle part."""
    return any(type(q) is AffineBlockOracle for q in max_constraint_oracle(problem).parts)


@pytest.mark.parametrize("label,every", sorted(SDSG_DIRECT_PINNED))
def test_sdsg_matches_direct_evaluation_of_x_bar(label, every):
    cfg = SolverConfig(solver="sdsg", iterations=200, trace_every=every)
    ref = assert_sdsg_matches_direct(INSTANCES[label](), cfg)
    assert (ref.status, trace_digest(ref.trace)) == SDSG_DIRECT_PINNED[label, every]


def test_sdsg_digests_change_only_where_fbar_has_a_row_block():
    assert {label for label, _ in SDSG_DIRECT_PINNED} == {
        label for label, build in INSTANCES.items() if has_row_block(build())}
