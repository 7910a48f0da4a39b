"""Tests of the benchmark's own helpers: tail percentile, normalisation, correctness check."""

import math

import pytest

from benchlib import check, speed_factor, summarise, tail, trace_digest


def test_tail_leaves_at_least_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    p, value, n = tail(samples)
    assert (p, value, n) == (90, 90, 100)
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [11, 12, 37, 60, 99, 101, 250, 1000])
def test_tail_is_the_highest_whole_percentile_with_ten_beyond(n):
    samples = [float(i) for i in range(n)]
    p, value, count = tail(samples)
    assert count == n
    assert sum(s > value for s in samples) >= 10
    # one percentile higher would leave fewer than ten samples beyond
    higher_rank = math.ceil((p + 1) * n / 100)
    assert n - higher_rank < 10


def test_tail_ignores_input_order_and_needs_eleven_samples():
    assert tail([5.0, 1.0, 3.0] * 10) == tail(sorted([5.0, 1.0, 3.0] * 10))
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (9, 0, 11)


def test_speed_factor_is_weighted_geometric_mean_of_kernel_ratios():
    ref = (1e-3, 2e-3, 4e-3)
    assert speed_factor(ref, ref, (0.9, 0.1, 0.0)) == pytest.approx(1.0)
    assert speed_factor((2e-3, 2e-3, 4e-3), ref, (1.0, 0.0, 0.0)) == pytest.approx(2.0)
    assert speed_factor((2e-3, 2e-3, 4e-3), ref, (0.0, 0.5, 0.5)) == pytest.approx(1.0)
    assert speed_factor((2e-3, 4e-3, 4e-3), ref, (0.3, 0.7, 0.0)) == pytest.approx(2.0)
    assert speed_factor((4e-3, 2e-3, 16e-3), ref, (0.5, 0.0, 0.5)) == pytest.approx(4.0)


@pytest.mark.parametrize("cal, weights", [
    ((1e-3, 1e-3), (0.5, 0.5, 0.0)),          # a kernel timing missing
    ((1e-3, 1e-3, 1e-3), (0.5, 0.6, 0.0)),    # weights do not sum to 1
    ((1e-3, 1e-3, 1e-3), (1.5, -0.5, 0.0)),   # negative weight
    ((0.0, 1e-3, 1e-3), (0.5, 0.5, 0.0)),     # zero timing
])
def test_speed_factor_rejects_bad_input(cal, weights):
    with pytest.raises(ValueError):
        speed_factor(cal, (1e-3, 1e-3, 1e-3), weights)


ROWS = [(1, -0.5, 0.01), (2, -0.6, 0.0005), (3, -0.61, 0.0002)]


def reference():
    return summarise("COMPLETED", -0.61, ROWS)


def test_identical_solve_passes():
    assert check(summarise("COMPLETED", -0.61, ROWS), reference()) == []


def test_rounding_level_difference_passes_but_changes_digest():
    rows = [(k, v * (1 + 1e-14), f) for k, v, f in ROWS]
    got = summarise("COMPLETED", -0.61 * (1 + 1e-14), rows)
    assert check(got, reference()) == []
    assert got["digest"] != reference()["digest"]


@pytest.mark.parametrize("key, value", [
    ("val", -0.61 * (1 + 1e-5)),
    ("infeas", 0.0002 + 1e-5),
    ("p_eps", -0.6 - 1e-5),
    ("p_eps", None),
    ("status", "NO_EPS_FEASIBLE"),
    ("k", 2),
])
def test_perturbed_reference_value_is_a_failure(key, value):
    ref = reference()
    ref[key] = value
    assert check(summarise("COMPLETED", -0.61, ROWS), ref) != []


def test_non_finite_trace_value_is_a_failure():
    rows = ROWS[:1] + [(2, math.nan, 0.0)] + ROWS[2:]
    got = summarise("COMPLETED", -0.61, rows)
    assert not got["finite"]
    assert check(got, reference()) != []


def test_digest_covers_every_row_but_not_elapsed_time():
    assert trace_digest(ROWS) == trace_digest(list(ROWS))
    assert trace_digest(ROWS) != trace_digest(ROWS[:-1])
    assert summarise("COMPLETED", -0.61, ROWS)["k"] == 3


def test_layer_trace_counts_self_time_and_restores_the_package():
    subgrad = pytest.importorskip("subgrad")
    from layertrace import LayerTrace
    from subgrad import oracles, reports
    original_call = oracles.AffineOracle.__call__
    original_note = reports.TraceCollector.note
    p = subgrad.ConstrainedProblem(oracles.AffineOracle([1.0]), [oracles.AffineOracle([-1.0])])
    cfg = subgrad.SolverConfig(solver="mdsg", iterations=50)
    with LayerTrace() as tracer:
        report = tracer.span("solver", subgrad.solve, p, cfg)
    assert oracles.AffineOracle.__call__ is original_call
    assert reports.TraceCollector.note is original_note
    assert report.final.k == 50
    # per step: f0 and the one inequality in the direction; x_bar: f0.value
    # (value plus the call inside it), infeasibility's violation_vector
    assert tracer.calls["oracles"] == 50 * 5
    assert tracer.calls["problem"] == 50 * 2
    assert tracer.calls["reports"] == 50
    assert all(t >= 0.0 for t in tracer.self_s.values())
    assert 0.0 < tracer.xbar_s < sum(tracer.self_s.values())
