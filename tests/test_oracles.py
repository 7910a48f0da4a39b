import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import subgrad
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


def test_positive_part_keeps_nan():
    # max{NaN, 0} is NaN, as in MaxOracle: a zero here would read as a satisfied constraint
    o = PositivePart(AffineOracle([1.0]))
    v, g = o(np.array([np.nan]))
    assert math.isnan(v) and g.tolist() == [1.0]
    assert math.isnan(o.value(np.array([np.nan])))


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


def test_log_barrier_keeps_nan():
    # NaN < LOG_SAFEGUARD is False: the frozen branch would give a finite value at NaN
    o = LogBarrierOracle(2, index=0, shift=1.0)
    v, g = o(np.array([np.nan, 0.0]))
    assert math.isnan(v) and math.isnan(g[0]) and g[1] == 0.0
    assert math.isnan(o.value(np.array([np.nan, 0.0])))


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
    # absolute is a boolean: 1 or "true" would pass a truth test
    (lambda: AffineBlockOracle([[1.0]], [0.0], 1), "absolute"),
    (lambda: AffineBlockOracle([[1.0]], [0.0], "true"), "absolute"),
    (lambda: AffineBlockOracle([[1.0]], [0.0], None), "absolute"),
    # a repeated index would count twice in the value but once in the subgradient
    (lambda: Norm1Oracle(2, coords=[0, 0]), "coords"),
    (lambda: SqNormOracle(3, coords=np.array([2, 0, 2])), "coords"),
    (lambda: HingeSumOracle(2, [1, 1], [1.0, -1.0]), "coords"),
    # a negative scale makes the function concave
    (lambda: SqNormOracle(2, scale=-1.0), "scale"),
    (lambda: HingeSumOracle(2, [0, 1], [1.0, -1.0], scale=-1e-300), "scale"),
    # an infinite or NaN size is no integer; a negative one is no size
    (lambda: Norm1Oracle(INF), "dim"),
    (lambda: SqNormOracle(NAN), "dim"),
    (lambda: Norm1Oracle(-1), "dim"),
    (lambda: SqNormOracle(-2), "dim"),
    (lambda: HingeSumOracle(-1, [], []), "dim"),
    # a vector field given as a mapping or a string
    (lambda: AffineOracle({"a": 1}), "c"),
    (lambda: AffineOracle("ab"), "c"),
    (lambda: HingeSumOracle(2, [0, 1], [1.0]), "coords"),
    (lambda: LogBarrierOracle(2, 2), "index"),
    # an integer too large for a float is refused by name, not by float()
    (lambda: AffineOracle([10**400]), "c"),
    (lambda: AffineOracle([1.0], 10**400), "d"),
], ids=["affine-d", "abs-b", "norm1-offset", "sq-scale", "hinge-scale", "hinge-labels",
        "log-shift", "log-offset", "dim", "index", "coords", "coords-nan",
        "c-str", "c-bool", "c-numpy-bool", "d-bool", "b-str", "dim-bool", "index-str",
        "coords-numpy-bool", "labels-str", "block-shape", "block-nan",
        "block-absolute-int", "block-absolute-str", "block-absolute-none",
        "norm1-coords-repeated", "sq-coords-repeated", "hinge-coords-repeated",
        "sq-scale-negative", "hinge-scale-negative",
        "dim-inf", "dim-nan", "norm1-dim-negative", "sq-dim-negative", "hinge-dim-negative",
        "c-dict", "c-text", "hinge-lengths", "log-index-range",
        "c-int-overflow", "d-int-overflow"])
def test_constructor_rejects_bad_field(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_constructor_accepts_numpy_numbers():
    assert AffineOracle(np.array([1, 2]), np.float32(0.5))(np.ones(2))[0] == 3.5
    assert Norm1Oracle(np.int64(2), coords=[np.int32(1)], offset=np.int8(1))(np.ones(2))[0] == 2.0
    assert LogBarrierOracle(2.0, np.int64(1), shift=np.float64(1.0)).index == 1
    # a zero scale is the zero function, which is convex
    assert SqNormOracle(2, scale=0.0)(np.ones(2))[0] == 0.0
    assert HingeSumOracle(2, [0, 1], [1.0, -1.0], scale=-0.0).scale == 0.0


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


def test_every_exported_name_resolves():
    # the package's __all__ and each module's, so a deleted name leaves no stale export
    modules = [subgrad] + [importlib.import_module(f"subgrad.{info.name}")
                           for info in pkgutil.iter_modules(subgrad.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


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


def _bits(v):
    return np.float64(v).tobytes()


# Transcriptions of the index-array formulas that the coordinate oracles
# computed before they read one ascending run of coords through a slice.
def _norm1_by_index(o, x):
    xc = x[o.coords]
    g = np.zeros(o.dim)
    g[o.coords] = np.where(xc >= 0.0, 1.0, -1.0)
    return float(np.sum(np.abs(xc))) + o.offset, g


def _sq_norm_by_index(o, x):
    xc = x[o.coords]
    g = np.zeros(o.dim)
    g[o.coords] = (2.0 * o.scale) * xc
    return o.scale * float(xc.dot(xc)), g


def _hinge_sum_by_index(o, x):
    margins = 1.0 - o.labels * x[o.coords]
    active = margins > 0.0
    g = np.zeros(o.dim)
    g[o.coords[active]] = -o.scale * o.labels[active]
    return o.scale * float(np.sum(margins[active])), g


COORDS = {
    "all": None,
    "all-listed": list(range(16)),
    "run-3-12": list(range(3, 13)),
    "descending": list(range(12, 2, -1)),
    "scattered": [9, 1, 15, 4, 5],
    "single": [7],
    "empty": [],
}


@pytest.mark.parametrize("coords", COORDS.values(), ids=COORDS.keys())
@pytest.mark.parametrize("make,by_index", [
    (lambda dim, c: Norm1Oracle(dim, c, offset=-0.75), _norm1_by_index),
    (lambda dim, c: SqNormOracle(dim, c, scale=0.3), _sq_norm_by_index),
    (lambda dim, c: HingeSumOracle(dim, np.arange(dim) if c is None else c,
                                   np.resize([1.0, -1.0, 0.5], dim if c is None else len(c)),
                                   scale=0.2), _hinge_sum_by_index),
], ids=["norm1", "sq_norm", "hinge_sum"])
def test_coordinate_selection_matches_index_formula(make, by_index, coords):
    dim = 16
    oracle = make(dim, coords)
    assert isinstance(oracle.coords, np.ndarray) and oracle.coords.dtype.kind == "i"
    np.testing.assert_array_equal(oracle.coords, np.arange(dim) if coords is None else coords)
    rng = np.random.default_rng(8)
    points = [rng.normal(size=dim) for _ in range(20)]
    points += [np.where(rng.uniform(size=dim) < 0.5, 0.0, -0.0),
               np.array([0.0, -0.0, 1.0, -1.0] * 4),
               np.array([1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.0, -0.0] * 2)]
    for x in points:
        v, g = oracle(x)
        v_ref, g_ref = by_index(oracle, x)
        assert _bits(v) == _bits(v_ref) == _bits(oracle.value(x))
        assert g.dtype == g_ref.dtype and g.tobytes() == g_ref.tobytes()


VALUE_DIM = 4

# Entries of x: numbers, both zeros, NaN and both infinities.
_entries = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]),
                     st.floats(-4.0, 4.0))
_rows = st.lists(st.floats(-2.0, 2.0), min_size=VALUE_DIM, max_size=VALUE_DIM)
_coords = st.lists(st.integers(0, VALUE_DIM - 1), max_size=VALUE_DIM, unique=True)
_leaves = st.one_of(
    st.builds(AffineOracle, _rows, st.floats(-2.0, 2.0)),
    st.builds(AbsAffineOracle, _rows, st.floats(-2.0, 2.0)),
    st.builds(AffineBlockOracle, st.lists(_rows, min_size=3, max_size=3),
              st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), st.booleans()),
    st.builds(Norm1Oracle, st.just(VALUE_DIM), st.none() | _coords, st.floats(-2.0, 2.0)),
    st.builds(SqNormOracle, st.just(VALUE_DIM), st.none() | _coords, st.floats(0.0, 2.0)),
    _coords.flatmap(lambda c: st.builds(
        HingeSumOracle, st.just(VALUE_DIM), st.just(c),
        st.lists(st.sampled_from([1.0, -1.0]), min_size=len(c), max_size=len(c)),
        st.floats(0.0, 2.0))),
    st.builds(LogBarrierOracle, st.just(VALUE_DIM), st.integers(0, VALUE_DIM - 1)),
)
_nested = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(MaxOracle, st.lists(inner, min_size=1, max_size=4)),
    st.builds(SumOracle, st.lists(inner, min_size=1, max_size=3)),
    st.builds(PositivePart, inner),
), max_leaves=8)


def _classes_in(oracle):
    inner = getattr(oracle, "parts", []) + ([oracle.arg] if isinstance(oracle, PositivePart) else [])
    return {type(oracle)}.union(*map(_classes_in, inner))


def test_value_strategy_covers_every_select_writer():
    writers = {cls for cls in vars(oracles).values()
               if isinstance(cls, type) and issubclass(cls, oracles.ConvexOracle)
               and "select" in vars(cls) and cls is not oracles.ConvexOracle}
    assert writers == {MaxOracle, SumOracle, PositivePart, AbsAffineOracle,
                       AffineBlockOracle, Norm1Oracle, SqNormOracle, HingeSumOracle,
                       LogBarrierOracle}
    for cls in writers:  # raises NoSuchExample when the strategy never builds cls
        find(_leaves | _nested, lambda o: cls in _classes_in(o),
             settings=settings(derandomize=True, database=None, max_examples=2000,
                               phases=[Phase.generate]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_leaves | _nested, st.lists(_entries, min_size=VALUE_DIM, max_size=VALUE_DIM),
       st.integers(0, VALUE_DIM - 1))
def test_value_equals_call_by_bits(oracle, x, i):
    # x as drawn, and with its entry i set to each special value in turn
    points = [np.array(x)]
    for special in (math.nan, math.inf, -math.inf, -0.0):
        points.append(points[0].copy())
        points[-1][i] = special
    with np.errstate(all="ignore"):
        for y in points:
            assert _bits(oracle.value(y)) == _bits(oracle(y)[0])


class _Counted(oracles.ConvexOracle):
    """c.x + d through select and subgrad, counting the subgradients it builds."""

    def __init__(self, c, d):
        self.c, self.d, self.dim = np.array(c, dtype=float), d, len(c)
        self.built = 0

    def select(self, x):
        return float(self.c.dot(x)) + self.d, "key"

    def subgrad(self, key):
        assert key == "key"
        self.built += 1
        return self.c


class _CallOnly(oracles.ConvexOracle):
    """|c.x| written as __call__ alone, as a user subclass may be."""

    def __init__(self, c):
        self.c, self.dim = np.array(c, dtype=float), len(c)

    def __call__(self, x):
        r = float(self.c.dot(x))
        return abs(r), np.sign(r) * self.c


def test_select_then_subgrad_protocol():
    x = np.array([1.0, -2.0])
    # a max builds its winner's subgradient alone, a value none, a sum one per part
    parts = [_Counted([1.0, 0.0], 0.0), _Counted([0.0, -1.0], 0.5), _Counted([1.0, 1.0], 0.0)]
    v, g = MaxOracle(parts)(x)
    assert (v, g.tolist(), [p.built for p in parts]) == (2.5, [0.0, -1.0], [0, 1, 0])
    assert MaxOracle(parts).value(x) == 2.5 and [p.built for p in parts] == [0, 1, 0]
    assert SumOracle(parts)(x)[0] == 1.0 + 2.5 - 1.0 and [p.built for p in parts] == [1, 2, 1]
    inactive = _Counted([1.0, 1.0], -3.0)
    assert PositivePart(inactive)(x)[1].tolist() == [0.0, 0.0] and inactive.built == 0

    # a part that writes only __call__ gives the bits of calling it directly
    user = _CallOnly([0.3, 0.7])
    for y in (x, -x, np.array([0.1, 0.2])):
        direct = user(y)
        for composite in (MaxOracle([user]), SumOracle([user]), PositivePart(user),
                          MaxOracle([AffineOracle([0.0, 0.0], -9.0), user])):
            v, g = composite(y)
            assert _bits(v) == _bits(direct[0]) == _bits(composite.value(y))
            assert g.tobytes() == direct[1].tobytes()

    class Neither(oracles.ConvexOracle):
        dim = 2

    for method in (Neither(), Neither().value):
        with pytest.raises(NotImplementedError, match="Neither"):
            method(x)


# Unit rows: one nonzero per row, its zeros of either sign. Entries reach the
# float range's ends, so products and sums overflow and underflow.
UNIT_VALUES = st.sampled_from([1.0, -1.0, 2.5, -0.5, 1e300, -1e308, 1e-300]) | \
    st.floats(-4.0, 4.0).filter(lambda v: v != 0.0)
FINITE_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, 1e308]) | \
    st.floats(-4.0, 4.0)


@st.composite
def unit_block_spec(draw):
    """(C, d, x, tx, w, r): 1-6 unit rows on 1-4 columns, each row's nonzero
    at a drawn column (so columns repeat) and each zero +0 or -0, as in e_i
    and -e_i; d, x, tx and w of FINITE_ENTRIES, w sometimes zero; row values
    r of which some are positive."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    C = np.empty((k, n))
    for row in C:
        row[:] = [-0.0 if neg else 0.0 for neg in draw(st.lists(st.booleans(), min_size=n,
                                                                 max_size=n))]
        row[draw(st.integers(0, n - 1))] = draw(UNIT_VALUES)

    def vector(size, entries=FINITE_ENTRIES):
        return np.array(draw(st.lists(entries, min_size=size, max_size=size)))

    r = vector(k, st.sampled_from([1.0, 0.5, 0.0, -0.0, -1.0, math.nan]))
    return C, vector(k), vector(n), vector(n), vector(k, FINITE_ENTRIES | st.just(0.0)), r


def fp_errors(f):
    """(f(), the kinds of floating-point error it raised); underflow is ignored,
    as numpy does by default."""
    kinds = set()
    with np.errstate(call=lambda kind, flag: kinds.add(kind), over="call", invalid="call",
                     divide="call", under="ignore"):
        return f(), kinds


def dense_add(tx, w, r, C):
    """tx + w_i c_i over the rows with r_i > 0 and w_i != 0, by the axis-0 reduce
    of the dense rows that the saddle direction has always run."""
    on = (r > 0.0) & (w != 0.0)
    return np.add.reduce(np.vstack([tx[None, :], w[on, None] * C[on]]), axis=0)


def test_unit_row_kernels_match_the_dense_kernels():
    seen = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(unit_block_spec(), st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(0, 5))
    # one example alone covers every case the asserts below require
    @example((np.array([[1.0, -0.0], [-1.0, 0.0], [-0.0, 1e300], [0.0, -0.5]]),
              np.array([-1.0, -0.0, 0.0, -1.0]), np.array([-0.0, 1e300]),
              np.array([-0.0, 1e308]), np.array([1.0, 1e300, 1e300, 2.0]),
              np.array([1.0, 2.0, 1.0, 0.5])), math.inf, 1)
    def check(spec, special, i):
        C, d, x, tx, w, r = spec
        block = AffineBlockOracle(C, d)
        assert block._unit is not None
        cols = block._unit[0]
        # x as drawn, and with its entry i set to a non-finite value, where the
        # dense product reads 0 * inf, a NaN, on rows that do not hold i
        bad_x = x.copy()
        bad_x[i % x.size] = special
        for y in (x, bad_x):
            got, got_errors = fp_errors(lambda: block.rows(y))
            ref, ref_errors = fp_errors(lambda: np.vecdot(C, y) + d)
            assert (got.tobytes(), got_errors) == (ref.tobytes(), ref_errors), y
        # w as drawn, and with one active entry non-finite
        ws = [w]
        on = np.flatnonzero((r > 0.0) & (w != 0.0))
        if on.size:
            ws.append(w.copy())
            ws[-1][on[i % on.size]] = special
        for v in ws:
            got, got_errors = fp_errors(lambda: block.add_rows(tx, v, r))
            ref, ref_errors = fp_errors(lambda: dense_add(tx, v, r, C))
            assert (got.tobytes(), got_errors) == (ref.tobytes(), ref_errors), v
        # a zero row, or a second nonzero in a row, makes the block dense
        for j in range(C.shape[0]):
            dense = C.copy()
            dense[j] = 0.0
            assert AffineBlockOracle(dense, d)._unit is None
            if C.shape[1] > 1:
                dense[j] = C[j]
                dense[j, (cols[j] + 1) % C.shape[1]] = 0.5
                assert AffineBlockOracle(dense, d)._unit is None
        zeros = C[C == 0.0]
        with np.errstate(over="ignore"):
            products = C[np.arange(C.shape[0]), cols] * x[cols]
        seen.update({
            ("zeros of both signs", np.signbit(zeros).any() and not np.signbit(zeros).all()),
            ("repeated column", np.unique(cols).size < cols.size),
            ("repeated active column", np.unique(cols[on]).size < on.size),
            ("-0 in d", bool(np.signbit(d[d == 0.0]).any())),
            ("-0 product", bool(np.signbit(products[products == 0.0]).any())),
            ("-0 in tx", bool(np.signbit(tx[tx == 0.0]).any())),
            ("overflow", "overflow" in fp_errors(lambda: block.rows(x))[1]),
        })

    check()
    assert {(case, True) for case, _ in seen} <= seen


def test_unit_row_detection():
    e = np.eye(3)
    # exactly one nonzero per row, of any value; a -0 is a zero
    unit = np.array([[2.0, -0.0, 0.0], [0.0, 0.0, -1e-300], [2.0, 0.0, 0.0], [0.0, -3.0, -0.0]])
    cols, vals = AffineBlockOracle(unit, np.zeros(4))._unit
    assert cols.tolist() == [0, 2, 0, 1]
    assert vals.tobytes() == np.array([2.0, -1e-300, 2.0, -3.0]).tobytes()
    assert AffineBlockOracle(np.vstack([e, -e]), np.zeros(6), absolute=True)._unit is not None
    # a zero row or a row of two nonzeros anywhere in the block refuses it
    for C in (np.vstack([e, np.zeros(3)]), np.vstack([e[[0]] + e[[1]], e]),
              np.vstack([e, e[[1]] - e[[2]]]), np.ones((4, 1)) * [[1.0, 1.0, 0.0]]):
        assert AffineBlockOracle(C, np.zeros(C.shape[0]))._unit is None
