import math

import numpy as np
import pytest

from subgrad import oracles
from subgrad.oracles import (LOG_SAFEGUARD, AbsAffineOracle, AffineBlockOracle, AffineOracle,
                             HingeSumOracle, LogBarrierOracle, MaxOracle,
                             Norm1Oracle, PositivePart, SqNormOracle, SumOracle,
                             euclidean_norm, norm_power_subgrad)
from subgrad.validate import subgradient_validate


def test_affine_values():
    o = AffineOracle([1.0, 0.0], 0.0)
    v, g = o(np.array([3.0, 5.0]))
    assert v == 3.0
    np.testing.assert_array_equal(g, [1.0, 0.0])

    const = AffineOracle([0.0, 0.0], 7.0)
    assert const(np.array([2.0, -9.0]))[0] == 7.0
    np.testing.assert_array_equal(const(np.zeros(2))[1], [0.0, 0.0])

    o = AffineOracle([2.0, -1.0], 1.0)
    v, g = o(np.array([1.0, 1.0]))
    assert v == 2.0
    np.testing.assert_array_equal(g, [2.0, -1.0])


def test_abs_affine_values_and_tie():
    o = AbsAffineOracle([1.0], 1.0)
    assert o(np.array([3.0])) == (2.0, pytest.approx([1.0]))
    # tie at the kink picks sign(0) = +1
    v, g = o(np.array([1.0]))
    assert v == 0.0
    np.testing.assert_array_equal(g, [1.0])
    v, g = o(np.array([0.0]))
    assert v == 1.0
    np.testing.assert_array_equal(g, [-1.0])


def test_max_oracle_abs_composition():
    # max{x, -x} = |x| in 1-D
    o = MaxOracle([AffineOracle([1.0]), AffineOracle([-1.0])])
    v, g = o(np.array([2.0]))
    assert v == 2.0 and g[0] == 1.0
    # tie at zero resolved toward the lowest-index part
    v, g = o(np.array([0.0]))
    assert v == 0.0 and g[0] == 1.0
    # singleton behaves like the wrapped part
    single = MaxOracle([AffineOracle([3.0], -1.0)])
    x = np.array([0.7])
    assert single(x) == AffineOracle([3.0], -1.0)(x)


def test_max_oracle_matches_brute_force():
    rng = np.random.default_rng(3)
    parts = [AffineOracle(rng.normal(size=4), rng.normal()) for _ in range(5)]
    o = MaxOracle(parts)
    for _ in range(100):
        x = rng.normal(size=4)
        assert o(x)[0] == max(p(x)[0] for p in parts)


def test_max_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        MaxOracle([])
    with pytest.raises(ValueError):
        MaxOracle([AffineOracle([1.0]), AffineOracle([1.0, 2.0])])


def test_positive_part_selection():
    o = PositivePart(AffineOracle([1.0]))
    assert o(np.array([-1.0])) == (0.0, pytest.approx([0.0]))
    assert o(np.array([2.0])) == (2.0, pytest.approx([1.0]))
    # boundary: zero selection, not the inner subgradient
    v, g = o(np.array([0.0]))
    assert v == 0.0 and g[0] == 0.0


def test_positive_part_dominates_inner():
    rng = np.random.default_rng(5)
    inner = AffineOracle(rng.normal(size=3), -0.2)
    o = PositivePart(inner)
    for _ in range(200):
        x = rng.normal(size=3)
        v = o(x)[0]
        vi = inner(x)[0]
        assert v >= 0.0
        if vi > 0:
            assert v == vi


def test_norm_power_subgrad():
    np.testing.assert_array_equal(norm_power_subgrad([3.0, 4.0], 2.0), [6.0, 8.0])
    np.testing.assert_allclose(norm_power_subgrad([3.0, 4.0], 1.0), [0.6, 0.8])
    np.testing.assert_array_equal(norm_power_subgrad([0.0, 0.0], 1.5), [0.0, 0.0])
    with pytest.raises(ValueError):
        norm_power_subgrad([1.0], 2.5)


@pytest.mark.parametrize("s", [1.0, 1.3, 1.7, 2.0])
def test_norm_power_magnitude(s):
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.normal(size=6)
        g = norm_power_subgrad(z, s)
        nz = np.linalg.norm(z)
        np.testing.assert_allclose(np.linalg.norm(g), s * nz ** (s - 1.0), rtol=1e-12)


def test_log_barrier_values():
    o = LogBarrierOracle(2, index=0, shift=1.0)
    v, g = o(np.array([0.0, 5.0]))
    assert v == 0.0
    np.testing.assert_array_equal(g, [-1.0, 0.0])

    v, g = o(np.array([math.e - 1.0, 0.0]))
    assert v == pytest.approx(-1.0)
    assert g[0] == pytest.approx(-math.exp(-1.0))

    # safeguard branch
    v, g = o(np.array([-1.0, 0.0]))
    assert v == pytest.approx(-math.log(LOG_SAFEGUARD))
    assert g[0] == pytest.approx(-1e12)


def test_log_barrier_offset_shifts_value_only():
    plain = LogBarrierOracle(2, index=0, shift=1.0)
    off = LogBarrierOracle(2, index=0, shift=1.0, offset=-1.0)
    x = np.array([0.4, 0.0])
    assert off(x)[0] == pytest.approx(plain(x)[0] - 1.0)
    np.testing.assert_array_equal(off(x)[1], plain(x)[1])


def test_sum_oracle():
    o = SumOracle([AffineOracle([1.0, 0.0], 1.0), SqNormOracle(2, scale=0.5)])
    v, g = o(np.array([2.0, 3.0]))
    assert v == pytest.approx(2.0 + 1.0 + 0.5 * 13.0)
    np.testing.assert_allclose(g, [1.0 + 2.0, 3.0])


def test_norm1_oracle():
    o = Norm1Oracle(4, coords=[1, 3], offset=-1.0)
    v, g = o(np.array([9.0, -2.0, 9.0, 0.0]))
    assert v == pytest.approx(2.0 + 0.0 - 1.0)
    np.testing.assert_array_equal(g, [0.0, -1.0, 0.0, 1.0])  # sign(0) = +1


def test_euclidean_norm_matches_numpy_bits():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 7, 400):
        for _ in range(50):
            v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
            assert euclidean_norm(v) == float(np.linalg.norm(v))


@pytest.mark.parametrize("make", [
    lambda coords: Norm1Oracle(2, coords),
    lambda coords: SqNormOracle(2, coords),
    lambda coords: HingeSumOracle(2, coords, [1.0] * len(coords)),
], ids=["norm1", "sq_norm", "hinge_sum"])
def test_coords_outside_dim_rejected(make):
    make([0, 1])
    for coords in ([2], [-1], [[0, 1]]):
        with pytest.raises(ValueError, match="coords"):
            make(coords)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make,field", [
    (lambda: AffineOracle([1.0], NAN), "d"),
    (lambda: AbsAffineOracle([1.0], INF), "b"),
    (lambda: Norm1Oracle(2, offset=-INF), "offset"),
    (lambda: SqNormOracle(2, scale=NAN), "scale"),
    (lambda: HingeSumOracle(2, [0, 1], [1.0, 1.0], scale=INF), "scale"),
    (lambda: HingeSumOracle(2, [0, 1], [NAN, 1.0]), "labels"),
    (lambda: LogBarrierOracle(2, 0, shift=NAN), "shift"),
    (lambda: LogBarrierOracle(2, 0, offset=INF), "offset"),
    (lambda: Norm1Oracle(2.7), "dim"),
    (lambda: LogBarrierOracle(2, 0.5), "index"),
    (lambda: SqNormOracle(2, coords=[0.5, 1.7]), "coords"),
    (lambda: HingeSumOracle(2, [NAN], [1.0]), "coords"),
    # strings and booleans are not numbers, not even in a numpy array
    (lambda: AffineOracle(["1", "0"]), "c"),
    (lambda: AffineOracle([1.0, True]), "c"),
    (lambda: AffineOracle(np.array([True, False])), "c"),
    (lambda: AffineOracle([1.0], True), "d"),
    (lambda: AbsAffineOracle([1.0], "0.5"), "b"),
    (lambda: Norm1Oracle(True), "dim"),
    (lambda: LogBarrierOracle(2, "1"), "index"),
    (lambda: Norm1Oracle(2, coords=np.array([False, True])), "coords"),
    (lambda: HingeSumOracle(2, [0, 1], ["1", "-1"]), "labels"),
    (lambda: AffineBlockOracle([[1.0, 0.0]], [0.0, 1.0]), "C"),
    (lambda: AffineBlockOracle([[NAN, 0.0]], [0.0]), "C"),
], ids=["affine-d", "abs-b", "norm1-offset", "sq-scale", "hinge-scale", "hinge-labels",
        "log-shift", "log-offset", "dim", "index", "coords", "coords-nan",
        "c-str", "c-bool", "c-numpy-bool", "d-bool", "b-str", "dim-bool", "index-str",
        "coords-numpy-bool", "labels-str", "block-shape", "block-nan"])
def test_constructor_rejects_bad_field(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_constructor_accepts_numpy_numbers():
    assert AffineOracle(np.array([1, 2]), np.float32(0.5))(np.ones(2))[0] == 3.5
    assert Norm1Oracle(np.int64(2), coords=[np.int32(1)], offset=np.int8(1))(np.ones(2))[0] == 2.0
    assert LogBarrierOracle(2.0, np.int64(1), shift=np.float64(1.0)).index == 1


def test_hinge_sum_oracle():
    # two samples on coordinate 0 and 1 with labels +1 / -1
    o = HingeSumOracle(2, coords=[0, 1], labels=[1.0, -1.0], scale=0.5)
    v, g = o(np.array([0.0, 0.0]))
    assert v == pytest.approx(1.0)  # both margins are 1
    np.testing.assert_allclose(g, [-0.5, 0.5])
    # satisfied margins contribute nothing, kink uses the zero selection
    v, g = o(np.array([1.0, -2.0]))
    assert v == 0.0
    np.testing.assert_array_equal(g, [0.0, 0.0])


ORACLES = [
    AffineOracle([0.3, -1.2, 0.0], 0.7),
    AbsAffineOracle([1.0, 2.0, -0.5], 0.3),
    MaxOracle([AffineOracle([1.0, 0.0, 0.0]), AffineOracle([-1.0, 0.5, 0.0], 0.1),
               AbsAffineOracle([0.0, 0.0, 2.0], -0.4)]),
    PositivePart(AffineOracle([1.0, -1.0, 0.5], -0.1)),
    SumOracle([Norm1Oracle(3), SqNormOracle(3, scale=0.25)]),
    Norm1Oracle(3, offset=-1.0),
    SqNormOracle(3, coords=[0, 2], scale=2.0),
    HingeSumOracle(3, coords=[0, 1, 2], labels=[1.0, -1.0, 1.0], scale=1.0 / 3.0),
    AffineBlockOracle([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0], [-1.0, 0.0, 0.3]], [0.1, -0.2, 0.0]),
    AffineBlockOracle([[1.0, 2.0, -0.5], [0.0, -1.0, 1.0]], [-0.3, 0.2], absolute=True),
]


def test_repr_is_class_name_and_dim():
    sample = ORACLES + [LogBarrierOracle(3, index=0)]
    exported = {getattr(oracles, name) for name in oracles.__all__}
    classes = {c for c in exported if isinstance(c, type) and c is not oracles.ConvexOracle}
    assert {type(o) for o in sample} == classes
    for o in sample:
        assert repr(o) == f"{type(o).__name__}(dim=3)"


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: type(o).__name__)
def test_subgradient_inequality_sweep(oracle):
    report = subgradient_validate(oracle, n_pairs=1000, radius=2.0, seed=42)
    assert report.n_violations == 0, report


def test_subgradient_inequality_log_barrier_in_domain():
    # sampled well inside the domain x0 > -1, where the safeguard never fires
    oracle = LogBarrierOracle(3, index=0, shift=1.0)
    report = subgradient_validate(oracle, n_pairs=1000, radius=0.9, seed=7)
    assert report.n_violations == 0, report


def test_subgradient_inequality_log_barrier_wide_sweep():
    # wide sampling that can leave the domain; pairs where either point
    # lands on the safeguarded extension are exempt, everything else must
    # satisfy the inequality
    oracle = LogBarrierOracle(3, index=0, shift=1.0)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, size=3)
        y = rng.uniform(-2.0, 2.0, size=3)
        if x[0] + 1.0 < LOG_SAFEGUARD or y[0] + 1.0 < LOG_SAFEGUARD:
            continue
        vx, gx = oracle(x)
        vy = oracle(y)[0]
        assert vy >= vx + gx @ (y - x) - 1e-9 * (1.0 + abs(vy))
        checked += 1
    assert checked > 100
