"""Replay guard: every solver reproduces its pinned trace bit for bit.

Pinned: PINNED holds 24 digests, one per (instance, solver) pair, each
sha256 over the bits of (k, val, infeas) of every trace row, packed as
little-endian (int64, float64, float64), of solve's run at K = 200 with
trace_every = 1. They hold for one BLAS kernel and one numpy version, whose
products and row reductions give the bits (ROADMAP item 11); a re-pin is
anchored by the live checks, run before the new digests are recorded.

Live, on any kernel:
- thinned rows: a run with trace_every = 7 reports the rows 7, 14, .., 196
  and 200 of the run at trace_every = 1, with the same status, p_eps, x_out;
- library = transcription: each run agrees with the plain transcription of
  its solver (``transcription``). k, val, x_out, status and p_eps are
  bit-equal, and so is infeas, except on the 8 DSG runs that read affine
  values at x_bar off a weighted sum (Nesterov 2009): mdsg with equality
  rows, off its dual sum, and sdsg whose max form has an AffineBlockOracle
  part, off the part's row sum. There infeas is within rounding;
- split = dense: a run that reads a slack-form A = [B | I] as B agrees
  with the same run on ``DenseProducts``, which multiplies by the dense A:
  k bit-equal, val, infeas and x_out within rounding, the same status and
  p_eps.
``test_digest_free_checks_pass_under_the_haswell_kernel`` reruns these in a
subprocess on another OpenBLAS kernel, with ``test_oracles``'s check that
the sparse-row kernel, which calls no BLAS, gives a block the bits of one
oracle call per row, and a row of one nonzero the bits of the dense kernels.

The dense-rows instance has eight affine rows that share every coordinate,
one run of them read as a row block; its digests were recorded while the
solvers still read one oracle per row, so any change in the order in which
the rows are summed into a direction shows here. The box rows of case2 have
disjoint supports and cannot show it.
"""

import functools
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subgrad import SolverConfig, solve
from subgrad.oracles import AffineBlockOracle, AffineOracle
from subgrad.problem import ConstrainedProblem, max_constraint_oracle
from subgrad.testbeds import build_lad, build_svm, gen_random
import test_oracles
import transcription


def dense_rows():
    rng = np.random.Generator(np.random.PCG64(8))
    C = rng.standard_normal((8, 6))
    d = -rng.uniform(0.5, 1.5, 8)
    return ConstrainedProblem(AffineOracle(rng.standard_normal(6)),
                              [AffineOracle(c, dj) for c, dj in zip(C, d)])


INSTANCES = {
    # min x s.t. -x <= 0: optimum x* = 0 with multiplier 1
    "one_d": lambda: ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])]),
    "case1-n10-s1": lambda: gen_random(1, 10, 1).problem,
    "case2-n4-s2": lambda: gen_random(2, 4, 2).problem,
    "lad-nbar3-s1": lambda: build_lad(3, 1).problem,
    "svm-nbar1-s1": lambda: build_svm(1, 1).problem,
    "dense-rows-s8": dense_rows,
}

# one instance of each testbed family; tests that run each of them take its
# label, under the id without the seed ("case1-n10")
FAMILIES = ["case1-n10-s1", "case2-n4-s2", "lad-nbar3-s1", "svm-nbar1-s1"]


def family_id(label):
    return label.rsplit("-", 1)[0]


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
    ("lad-nbar3-s1", "mdsg"): ("NO_EPS_FEASIBLE", "846af89bbe4b5c61889e73869d823b957ac1a36bc647d679f2220913d73f4302"),
    ("lad-nbar3-s1", "pds"): ("NO_EPS_FEASIBLE", "088dcd299c517a32100c9e9f1c8d79ebeb21d046949f004e67f5515f8878e09d"),
    ("svm-nbar1-s1", "sg"): ("COMPLETED", "2f6b58e0c5d299ff238ab57f1e4ffcd2276e27f8950835d999b2215dc0705623"),
    ("svm-nbar1-s1", "sdsg"): ("COMPLETED", "2d47769e880d40f9914d602a22b596e6c882bc9cab3601411b396dfc193c3b98"),
    ("svm-nbar1-s1", "mdsg"): ("COMPLETED", "4b3e4ad4dcb3115cf25736134f52c9c2dba2a01478aaf90a797a65653636097f"),
    ("svm-nbar1-s1", "pds"): ("NO_EPS_FEASIBLE", "6523264a65201218bf4d3b0b41fd9e065b27fb68e2329bb4c2c12d4710b48c50"),
    ("dense-rows-s8", "sg"): ("COMPLETED", "7874fbf7317154d6c444e198734ebbd0ee3b990d93ed655ca51ff2a5aa497ba5"),
    ("dense-rows-s8", "sdsg"): ("COMPLETED", "33796015e69482303a7bbda72b1f87a422ebab78b641e416e007bde080fcf26a"),
    ("dense-rows-s8", "mdsg"): ("COMPLETED", "2903bade91c1d5cf31bffe1872df209852280f021cd8140d6ebfb34a53faed0a"),
    ("dense-rows-s8", "pds"): ("COMPLETED", "907b96fb11a07735a242039943e046f8bf4b4441193f5535c0ec3d036d9462b2"),
}

# the runs that read the slack-form A = [B | I] of an instance as B: solve's
# mdsg and pds, and the transcription's mdsg, which evaluates x_bar directly
SPLIT_RUNS = [(label, run) for label in ("lad-nbar3-s1", "svm-nbar1-s1")
              for run in ("mdsg", "pds", "direct mdsg")]


class DenseProducts(ConstrainedProblem):
    """The problem with A x - b and A^T nu read off the dense A, as the
    solvers read them before an identity tail of A was read as B."""

    def residual(self, x):
        return self.A @ x - self.b

    def adjoint(self, nu):
        return self.A.T @ nu


def row_bits(r):
    return struct.pack("<qdd", r.k, r.val, r.infeas)


def trace_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(row_bits(r))
    return h.hexdigest()


def bits(v):
    return np.float64(v).tobytes()


@functools.cache
def pinned_run(label, solver):
    """solve's report of a pinned pair at K = 200, trace_every = 1, made once
    per session for the tests that read it; they do not change it."""
    return solve(INSTANCES[label](), SolverConfig(solver=solver, iterations=200))


def reads_a_sum(problem, solver):
    """Whether solve's run reads affine values at x_bar off a weighted sum:
    mdsg with equality rows, or sdsg whose max form has an AffineBlockOracle
    part."""
    if solver == "mdsg":
        return problem.l > 0
    return solver == "sdsg" and any(
        type(q) is AffineBlockOracle for q in max_constraint_oracle(problem).parts)


def assert_matches_transcription(problem, cfg, rep):
    """solve's report rep (trace_every = 1) against the transcription's run;
    where rep reads a sum, infeas within 1e-12 ||A x_bar_k - b|| (mdsg) or
    1e-12 (1 + |infeas|) (sdsg). Returns whether every infeas was bit-equal."""
    ref = transcription.run(problem, cfg)
    assert (rep.status, rep.p_eps) == (ref.status, ref.p_eps)
    assert rep.x_out.tobytes() == ref.x_out.tobytes()
    assert [(r.k, bits(r.val)) for r in rep.trace] == [(q.k, bits(q.val)) for q in ref.trace]
    if [bits(r.infeas) for r in rep.trace] == [bits(q.infeas) for q in ref.trace]:
        return True
    assert reads_a_sum(problem, cfg.solver)
    for r, q in zip(rep.trace, ref.trace):
        scale = q.residual if cfg.solver == "mdsg" else 1.0 + abs(q.infeas)
        assert abs(r.infeas - q.infeas) <= 1e-12 * scale
    return False


@pytest.mark.parametrize("label,solver", sorted(PINNED))
def test_trace_matches_pinned_digest(label, solver):
    report = pinned_run(label, solver)
    assert len(report.trace) == 200
    assert (report.status, trace_digest(report.trace)) == PINNED[label, solver]


@pytest.mark.parametrize("label,solver", sorted(PINNED))
def test_thinned_trace_keeps_the_full_trace_rows(label, solver):
    full = pinned_run(label, solver)
    rep = solve(INSTANCES[label](), SolverConfig(solver=solver, iterations=200, trace_every=7))
    kept = list(range(7, 200, 7)) + [200]
    assert [row_bits(r) for r in rep.trace] == [row_bits(full.trace[k - 1]) for k in kept]
    assert (rep.status, rep.p_eps) == (full.status, full.p_eps)
    assert rep.x_out.tobytes() == full.x_out.tobytes()


@pytest.mark.parametrize("label,solver", sorted(PINNED))
def test_library_matches_transcription(label, solver):
    # infeas is bit-equal exactly where no sum is read: a sum read that falls
    # back to evaluating x_bar fails here, as does a new sum read
    problem = INSTANCES[label]()
    same = assert_matches_transcription(problem, SolverConfig(solver=solver, iterations=200),
                                        pinned_run(label, solver))
    assert same != reads_a_sum(problem, solver)


def test_sg_descends_fbar_just_above_eps():
    # fbar(x0) = 1e-3 + 5e-13 lies just above eps = 1e-3, so the first step
    # descends fbar, not f0
    problem = INSTANCES["one_d"]()
    cfg = SolverConfig(solver="sg", iterations=200, x0=[-(1e-3 + 5e-13)])
    assert cfg.eps < -cfg.x0[0] <= cfg.eps + 1e-12
    assert_matches_transcription(problem, cfg, solve(problem, cfg))


def split_run(problem, run):
    cfg = SolverConfig(solver=run.split()[-1], iterations=200)
    return transcription.run(problem, cfg) if run == "direct mdsg" else solve(problem, cfg)


@pytest.mark.parametrize("label,run", SPLIT_RUNS)
def test_split_products_match_dense_products(label, run):
    problem = INSTANCES[label]()
    assert problem._B is not None
    rep = split_run(problem, run)
    ref = split_run(DenseProducts(problem.f0, problem.ineq, problem.A, problem.b), run)
    assert (rep.status, rep.p_eps) == (ref.status, ref.p_eps)
    assert [r.k for r in rep.trace] == [q.k for q in ref.trace]
    for r, q in zip(rep.trace, ref.trace):
        assert abs(r.val - q.val) <= 1e-12 * (1.0 + abs(q.val))
        assert abs(r.infeas - q.infeas) <= 1e-12 * (1.0 + abs(q.infeas))
    assert np.all(np.abs(rep.x_out - ref.x_out) <= 1e-12 * (1.0 + np.abs(ref.x_out)))


def test_split_runs_cover_exactly_the_slack_form_instances():
    split = {label for label, build in INSTANCES.items() if build()._B is not None}
    assert {label for label, _ in SPLIT_RUNS} == split


def test_digest_free_checks_pass_under_the_haswell_kernel():
    """The live checks, and the sparse-row kernels' check in test_oracles,
    rerun in one subprocess on OpenBLAS's Haswell kernel with one BLAS
    thread. OPENBLAS_CORETYPE selects the kernel for that process only;
    where numpy's BLAS ignores it, the checks run on the default kernel and
    pass all the same."""
    checks = (test_thinned_trace_keeps_the_full_trace_rows,
              test_library_matches_transcription,
              test_split_products_match_dense_products,
              test_oracles.test_sparse_row_kernels_match_the_per_row_kernels)
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         *(f"{t.__code__.co_filename}::{t.__name__}" for t in checks)],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
