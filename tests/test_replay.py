"""Replay guard: every solver reproduces its pinned trace bit for bit.

Each digest is sha256 over the exact bits of (k, val, infeas) of every
trace row, packed as little-endian (int64, float64, float64). The pinned
values were recorded before the solve loops were merged into one driver;
a refactor of the iteration path must leave all of them unchanged.
"""

import hashlib
import struct

import pytest

from subgrad import SolverConfig, solve
from subgrad.oracles import AffineOracle
from subgrad.problem import ConstrainedProblem
from subgrad.testbeds import build_lad, build_svm, gen_random

INSTANCES = {
    "one_d": lambda: ConstrainedProblem(AffineOracle([1.0]), [AffineOracle([-1.0])]),
    "case1-n10-s1": lambda: gen_random(1, 10, 1).problem,
    "case2-n4-s2": lambda: gen_random(2, 4, 2).problem,
    "lad-nbar3-s1": lambda: build_lad(3, 1).problem,
    "svm-nbar1-s1": lambda: build_svm(1, 1).problem,
}

# (instance, solver) -> (status, trace digest) at K = 200, trace_every = 1
PINNED = {
    ("one_d", "sg"): ("COMPLETED", "20f06588e86c306681a5afe251fe73b4dace2830bcfe7c9f993f381a99999926"),
    ("one_d", "sdsg"): ("COMPLETED", "38d849c2d855eda4855bf5bfb1b9d53e5535d22c242acd7ae6765b3b1932c76d"),
    ("one_d", "mdsg"): ("COMPLETED", "38d849c2d855eda4855bf5bfb1b9d53e5535d22c242acd7ae6765b3b1932c76d"),
    ("one_d", "pds"): ("COMPLETED", "4cd468a6c3fef0d5467bd5ad7c8ae164c80805f904aa29e8bd15ad43f16c9c40"),
    ("case1-n10-s1", "sg"): ("COMPLETED", "9bc141bbd30561a45e74cae3c860c8542edd2465f4b3aafb80d304720d443cb4"),
    ("case1-n10-s1", "sdsg"): ("NO_EPS_FEASIBLE", "b793b9f3ef577dd1362d8588391f4826556d6d68da37e76398470e68f52650b8"),
    ("case1-n10-s1", "mdsg"): ("NO_EPS_FEASIBLE", "bac021db8a08d285dc2371232da4be0101b6223fe1e52a2d0e0552540d2a4c83"),
    ("case1-n10-s1", "pds"): ("NO_EPS_FEASIBLE", "b61c84ce379489846d11445897b88ac4fbe76b79e06dc2ae7f10c3e6a2c2faab"),
    ("case2-n4-s2", "sg"): ("COMPLETED", "2797199cb5b0600acc82e798545dfd34fc96a7e42766d0dffa4d10a0a2bc5e20"),
    ("case2-n4-s2", "sdsg"): ("NO_EPS_FEASIBLE", "32beee5e42595bd0f8de38ec995867ac048f34e043f695e8a5243af2e4b23330"),
    ("case2-n4-s2", "mdsg"): ("NO_EPS_FEASIBLE", "9a03450240416dceb252919be655be7321ac2dfad5cadf17c5ca8db10dedc7a5"),
    ("case2-n4-s2", "pds"): ("NO_EPS_FEASIBLE", "3e920d9d36cf0c9e397413168e506f7790120ed9d2eec0025959b5e438ed981e"),
    ("lad-nbar3-s1", "sg"): ("COMPLETED", "b24089e3212732a9969ed00e03cce9e9694fdc58e6a9f7146d17c97d36e2121a"),
    ("lad-nbar3-s1", "sdsg"): ("NO_EPS_FEASIBLE", "a28000e9a7a868408230893d2d7b9697ba86cbb94cda6ad1afcf7e025f734a90"),
    ("lad-nbar3-s1", "mdsg"): ("NO_EPS_FEASIBLE", "804f3e3db1ddec069c60bed9320348b6731116908ca840776699b048f4d3c2ab"),
    ("lad-nbar3-s1", "pds"): ("NO_EPS_FEASIBLE", "c761841b375bbdd0a035f9475ee35dcfeb9973a938dbc50f088049a070ed33d3"),
    ("svm-nbar1-s1", "sg"): ("COMPLETED", "e5a2485a4bf18948efb99fd1e9f43789af1fe68eab210330c407721cb96b48a2"),
    ("svm-nbar1-s1", "sdsg"): ("COMPLETED", "20e210529c74a72a7ebba3d77e6296969ae7f44fc20efcada4afdc4205dcc823"),
    ("svm-nbar1-s1", "mdsg"): ("COMPLETED", "af54193ab48f8031a3568dac3f1138a11e4e09fd42ad67169b92d0633431a0e4"),
    ("svm-nbar1-s1", "pds"): ("NO_EPS_FEASIBLE", "6b34b16218959ebe71e64630ea2e61409d56d328fbed9334aeefcda3950e14a4"),
}


def trace_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(struct.pack("<qdd", r.k, r.val, r.infeas))
    return h.hexdigest()


@pytest.mark.parametrize("label,solver", sorted(PINNED))
def test_trace_matches_pinned_digest(label, solver):
    report = solve(INSTANCES[label](), SolverConfig(solver=solver, iterations=200, trace_every=1))
    assert len(report.trace) == 200
    assert (report.status, trace_digest(report.trace)) == PINNED[label, solver]
