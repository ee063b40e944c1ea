import datetime as dt
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import histrisk.backtest as backtest
from histrisk import (
    DEFAULT_GRID,
    InputError,
    Level,
    QuantileConvention,
    ReturnSeries,
    RiskSpec,
    SkippedPair,
    rolling_var_forecasts,
    run_suite,
    tce,
    tce_backtest,
    var,
    var_backtest,
)

LARGEST = QuantileConvention.LARGEST
SMALLEST = QuantileConvention.SMALLEST

TEN = [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]


def make_series(values, asset="x"):
    start = dt.date(2015, 1, 1).toordinal()
    dates = tuple(dt.date.fromordinal(start + i) for i in range(len(values)))
    return ReturnSeries(asset, dates, np.asarray(values, dtype=float))


def block_nonexistence_theory(k_index0, n):
    # for iid continuous returns the per-day violation probability given the
    # window is Beta(k, n+1-k) distributed (k 1-based), so
    # P[block has zero violations] = B(k, n+1-k+n) / B(k, n+1-k)
    k = k_index0 + 1
    lb = lambda a, b: math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.exp(lb(k, n + 1 - k + n) - lb(k, n + 1 - k))


def test_rolling_forecasts_first_two_windows():
    series = make_series(TEN + [0.0, -0.05])
    forecasts = rolling_var_forecasts(series, RiskSpec(10, Level(0.9)))
    assert len(forecasts) == 2
    assert forecasts[0] == (series.dates[10], 0.02)
    # second window drops -0.03 and gains 0.0, moving the quantile to -0.01
    assert forecasts[1] == (series.dates[11], 0.01)


def test_rolling_forecasts_constant_series():
    series = make_series([0.007] * 15)
    forecasts = rolling_var_forecasts(series, RiskSpec(5, Level(0.95)))
    assert [v for _, v in forecasts] == [-0.007] * 10


def test_rolling_forecasts_minimum_length():
    series = make_series(TEN + [0.01])
    assert len(rolling_var_forecasts(series, RiskSpec(10, Level(0.9)))) == 1
    with pytest.raises(InputError, match="11"):
        rolling_var_forecasts(make_series(TEN), RiskSpec(10, Level(0.9)))


def test_rolling_forecasts_no_look_ahead():
    rng = np.random.default_rng(41)
    values = rng.normal(size=60)
    spec = RiskSpec(20, Level(0.9))
    base = [v for _, v in rolling_var_forecasts(make_series(values), spec)]
    bumped = values.copy()
    bumped[35] -= 10.0  # becomes the window minimum, dragging the quantile down
    changed = [v for _, v in rolling_var_forecasts(make_series(bumped), spec)]
    # forecast for day t uses only days before t: indices 20..35 are untouched
    for t in range(20, 36):
        assert changed[t - 20] == base[t - 20]
    assert changed[36 - 20] != base[36 - 20]


def test_var_backtest_counts_match_scan_oracle():
    def scan_quantile(window, alpha, conv):
        ordered = sorted(window)
        n = len(ordered)
        threshold = 1.0 - alpha
        for i, v in enumerate(ordered, start=1):
            cdf = i / n
            if (cdf > threshold) if conv is LARGEST else (cdf >= threshold):
                return v
        return ordered[-1]

    rng = np.random.default_rng(42)
    for conv in (LARGEST, SMALLEST):
        for strict in (True, False):
            values = np.round(rng.normal(size=400), 2)  # ties on purpose
            alpha = float(rng.uniform(0.85, 0.99))
            n = int(rng.choice([10, 50]))
            spec = RiskSpec(n, Level(alpha), conv, strict)
            row = var_backtest(make_series(values), spec)
            expected = 0
            for t in range(n, len(values)):
                q = scan_quantile(values[t - n:t], alpha, conv)
                hit = values[t] < q if strict else values[t] <= q
                expected += bool(hit)
            assert row.violations == expected
            assert row.evaluation_days == len(values) - n


def test_var_backtest_row_arithmetic():
    rng = np.random.default_rng(43)
    series = make_series(rng.normal(size=300))
    row = var_backtest(series, RiskSpec(50, Level(0.95)))
    assert row.observed_rate == row.violations / row.evaluation_days
    tail = 1.0 - 0.95
    assert row.relative_error == (row.observed_rate - tail) / tail
    assert row.relative_error >= -1.0


def test_var_backtest_single_violation_day():
    series = make_series([0.0] * 10 + [-0.04])
    row = var_backtest(series, RiskSpec(10, Level(0.9)))
    assert (row.evaluation_days, row.violations) == (1, 1)
    assert row.observed_rate == 1.0
    assert row.relative_error == pytest.approx(9.0)


def test_var_backtest_constant_series_never_violates():
    series = make_series([0.004] * 120)
    row = var_backtest(series, RiskSpec(20, Level(0.9)))
    assert row.violations == 0
    assert row.relative_error == -1.0
    # non-strict flips every day into a violation: return == -var always
    row = var_backtest(series, RiskSpec(20, Level(0.9), LARGEST, strict_violation=False))
    assert row.observed_rate == 1.0


def test_var_backtest_rate_matches_order_statistic_theory():
    # for iid continuous data the violation probability is k/(n+1) where k is
    # the 1-based order-statistic index: 11/101 (largest) or 10/101 (smallest)
    # at n=100, alpha=0.90
    rng = np.random.default_rng(99)
    series = make_series(rng.uniform(-1.0, 1.0, 40_000))
    largest = var_backtest(series, RiskSpec(100, Level(0.9), LARGEST))
    smallest = var_backtest(series, RiskSpec(100, Level(0.9), SMALLEST))
    assert largest.observed_rate == pytest.approx(11.0 / 101.0, abs=0.006)
    assert smallest.observed_rate == pytest.approx(10.0 / 101.0, abs=0.006)
    assert smallest.violations <= largest.violations


def test_tce_backtest_hand_example():
    series = make_series(TEN + [-0.04] + [0.0] * 9)
    spec = RiskSpec(10, Level(0.9), LARGEST, strict_violation=False)
    row = tce_backtest(series, spec)
    assert row.blocks_total == 1
    assert row.blocks_nonexistent == 0
    assert row.nonexistence_rate == 0.0
    # predicted tce 0.025 from the window, realized tail mean -0.04
    assert row.mean_error == pytest.approx(-0.015, abs=1e-15)


def test_tce_backtest_zero_violation_block():
    series = make_series(TEN + [0.5] * 10)
    row = tce_backtest(series, RiskSpec(10, Level(0.9), LARGEST, strict_violation=False))
    assert row.blocks_total == 1
    assert row.blocks_nonexistent == 1
    assert row.nonexistence_rate == 1.0
    assert row.mean_error is None


def test_tce_backtest_trailing_partial_block_discarded():
    rng = np.random.default_rng(44)
    body = rng.normal(size=23)  # n=10: one window + one block + 3 leftover days
    tail_a = np.concatenate([body[:20], [5.0, -5.0, 0.0]])
    tail_b = np.concatenate([body[:20], [-9.0, 9.0, 1.0]])
    spec = RiskSpec(10, Level(0.9))
    row_a = tce_backtest(make_series(tail_a), spec)
    row_b = tce_backtest(make_series(tail_b), spec)
    assert row_a.blocks_total == row_b.blocks_total == 1
    assert row_a.mean_error == row_b.mean_error
    assert row_a.nonexistence_rate == row_b.nonexistence_rate


def test_tce_backtest_blocks_total_geometry():
    rng = np.random.default_rng(45)
    for length in (20, 25, 47, 60, 101):
        series = make_series(rng.normal(size=length))
        row = tce_backtest(series, RiskSpec(10, Level(0.9)))
        assert row.blocks_total + row.blocks_undefined_prediction == (length - 10) // 10


def test_tce_backtest_minimum_length():
    rng = np.random.default_rng(46)
    with pytest.raises(InputError, match="20"):
        tce_backtest(make_series(rng.normal(size=19)), RiskSpec(10, Level(0.9)))


def test_tce_backtest_undefined_prediction_excluded():
    # window [1,1,3,5] at n=4, alpha=0.7 puts the quantile on the tied value 1,
    # so the strict tail {x < 1} is empty and the first block is excluded;
    # the second block's window [0,1,3,5] has tail {0}
    values = [1.0, 1.0, 3.0, 5.0, 0.0, 1.0, 3.0, 5.0, 0.0, 2.0, 3.0, 4.0]
    row = tce_backtest(make_series(values), RiskSpec(4, Level(0.7), LARGEST, strict_violation=True))
    assert row.blocks_undefined_prediction == 1
    assert row.blocks_total == 1
    assert row.blocks_nonexistent == 0
    # predicted tce = -mean({0}) = 0, realized tail mean({0}) = 0
    assert row.mean_error == pytest.approx(0.0, abs=1e-15)


def test_tce_backtest_every_block_undefined():
    # alpha high enough that the quantile is the window minimum: strict tail
    # is empty in every window
    rng = np.random.default_rng(47)
    series = make_series(rng.normal(size=40))
    with pytest.raises(InputError, match="undefined"):
        tce_backtest(series, RiskSpec(10, Level(0.95), LARGEST, strict_violation=True))


@pytest.mark.parametrize("strict", [False, True])
def test_tce_backtest_finite_in_finite_out(strict):
    # tail sums of +-1e308 overflow; the row must equal the one of the same
    # returns scaled down by an exact power of two, scaled back up.  The
    # all-zero block is a row whose rescaling would divide 0 by 0.
    pattern = [-1e308, -1e308, 1.0, 2.0, -1e308, -1.5e308, 3.0, 4.0, 1e308, -1e308, 0.5, 1e308, 0.0, 0.0, 0.0, 0.0]
    spec = RiskSpec(4, Level(0.5), LARGEST, strict_violation=strict)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = tce_backtest(make_series(pattern * 3), spec)
    small = tce_backtest(make_series([v * 2.0 ** -600 for v in pattern * 3]), spec)
    assert (row.blocks_total, row.blocks_nonexistent) == (small.blocks_total, small.blocks_nonexistent)
    assert math.isfinite(row.mean_error)
    assert row.mean_error == pytest.approx(small.mean_error * 2.0 ** 600, rel=1e-12)


def test_tce_nonexistence_matches_beta_mixture_theory():
    # (n=20, alpha=0.95): t=(1-alpha)n=1, largest convention k=2, smallest k=1
    rng = np.random.default_rng(48)
    n_blocks = 1500
    series = make_series(rng.standard_normal(20 + 20 * n_blocks))
    for conv, k0 in ((LARGEST, 1), (SMALLEST, 0)):
        expected = block_nonexistence_theory(k0, 20)
        # non-strict conditioning: at k0=0 the strict window tail is always
        # empty; violations on continuous data are unaffected by strictness
        row = tce_backtest(series, RiskSpec(20, Level(0.95), conv, strict_violation=False))
        se = math.sqrt(expected * (1.0 - expected) / n_blocks)
        assert row.blocks_total == n_blocks
        assert abs(row.nonexistence_rate - expected) <= 4.0 * se
    assert block_nonexistence_theory(1, 20) == pytest.approx(380.0 / 1560.0, rel=1e-12)


def test_tce_nonexistence_matches_beta_mixture_theory_long_window():
    # (n=100, alpha=0.99): largest convention k=2 -> 9900/39800, not 0.99^100
    rng = np.random.default_rng(49)
    n_blocks = 600
    series = make_series(rng.standard_normal(100 + 100 * n_blocks))
    row = tce_backtest(series, RiskSpec(100, Level(0.99), LARGEST))
    expected = block_nonexistence_theory(1, 100)
    assert expected == pytest.approx(9900.0 / 39800.0, rel=1e-12)
    se = math.sqrt(expected * (1.0 - expected) / n_blocks)
    assert abs(row.nonexistence_rate - expected) <= 4.0 * se


def test_tce_predicted_at_least_var_nonstrict():
    rng = np.random.default_rng(50)
    series = make_series(rng.normal(size=500))
    spec = RiskSpec(50, Level(0.9), LARGEST, strict_violation=False)
    row = tce_backtest(series, spec)
    assert row.blocks_total == 9
    assert row.mean_error is not None


def window_oracle(values, spec):
    """Forecasts, violations and TCE block counts from the library's per-window var/tce."""
    n, alpha, conv, strict = spec.duration_n, spec.level, spec.conv, spec.strict_violation
    forecasts = [var(values[t - n:t], alpha, conv) for t in range(n, len(values))]
    violations = sum(
        (r < -f) if strict else (r <= -f) for r, f in zip(values[n:], forecasts)
    )
    blocks = [(start, tce(values[start - n:start], alpha, conv, strict))
              for start in range(n, len(values) - n + 1, n)]
    defined = [start for start, predicted in blocks if predicted is not None]
    nonexistent = sum(
        not any((r < -forecasts[start - n]) if strict else (r <= -forecasts[start - n])
                for r in values[start:start + n])
        for start in defined
    )
    return forecasts, violations, len(defined), nonexistent, len(blocks) - len(defined)


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("length", ["n", "n+1", "2n-1", "2n", "3n-1", "3n"])
@pytest.mark.parametrize("strict", [True, False])
def test_kernels_at_edge_lengths(n, length, strict):
    # n: no evaluation day; n+1: a single one; 2n-1: no TCE block; 2n and
    # 3n-1: a single block, the partial one dropped; 3n: two blocks.
    # run_suite gives the public functions' rows and skips a pair exactly
    # where they raise, with the reason they raise.
    size = {"n": n, "n+1": n + 1, "2n-1": 2 * n - 1, "2n": 2 * n, "3n-1": 3 * n - 1, "3n": 3 * n}[length]
    values = np.round(np.random.default_rng(size * n).normal(size=size), 1)
    spec = RiskSpec(n, Level(0.75), SMALLEST, strict)
    series = make_series(values)
    forecasts, violations, evaluated, nonexistent, undefined = window_oracle(values, spec)
    report = run_suite([series], [spec])
    reasons = {skip.kind: skip.reason for skip in report.skips}
    assert len(reasons) == len(report.skips)

    if size > n:
        assert [v for _, v in rolling_var_forecasts(series, spec)] == forecasts
        row = var_backtest(series, spec)
        assert (row.evaluation_days, row.violations) == (size - n, violations)
        assert report.var_rows == (row,) and "var" not in reasons
    else:
        for public in (rolling_var_forecasts, var_backtest):
            with pytest.raises(InputError, match=re.escape(reasons["var"])):
                public(series, spec)
        assert report.var_rows == ()
    if size >= 2 * n:
        assert evaluated + undefined == size // n - 1
    if evaluated:
        row = tce_backtest(series, spec)
        assert (row.blocks_total, row.blocks_nonexistent, row.blocks_undefined_prediction) == (
            evaluated, nonexistent, undefined,
        )
        assert report.tce_rows == (row,) and "tce" not in reasons
    else:
        # no full block, or (n=2, strict) every block's tail below the minimum is empty
        with pytest.raises(InputError, match=re.escape(reasons["tce"])):
            tce_backtest(series, spec)
        assert report.tce_rows == ()
        assert ("undefined" in reasons["tce"]) == (size >= 2 * n)


@pytest.mark.parametrize("chunk_elems", [1, 9, 36])
def test_rank_pass_chunking_matches_single_chunk(monkeypatch, chunk_elems):
    # n=9 over 203 evaluation days: a chunk constant below n still takes one
    # window per chunk, 9 gives one window too, and 36 gives 50 chunks of 4
    # windows plus a remainder of 3
    rng = np.random.default_rng(55)
    series = make_series(np.round(rng.normal(size=212), 1))
    specs = [RiskSpec(9, Level(a), conv, strict)
             for a in (0.5, 0.9, 0.99) for conv in (LARGEST, SMALLEST) for strict in (True, False)]
    whole = [(var_backtest(series, spec), rolling_var_forecasts(series, spec)) for spec in specs]
    monkeypatch.setattr(backtest, "_CHUNK_ELEMS", chunk_elems)
    assert [(var_backtest(series, spec), rolling_var_forecasts(series, spec)) for spec in specs] == whole
    assert [v for _, v in whole[0][1]] == window_oracle(series.returns, specs[0])[0]


@pytest.mark.parametrize("strict", [True, False])
def test_rank_pass_counts_past_a_byte(strict):
    # rising returns: every window lies below its day's return, so each rank is
    # n; over 250 evaluation days a tile holds 255 lags, the most whose count
    # per day fits the uint8 the pass sums a tile into
    returns = np.arange(550.0)
    for n, counts in zip((300, 520), backtest._violation_counts(returns, [300, 520], strict)):
        assert counts.tolist() == [0] * n + [550 - n]


def test_rolling_forecasts_never_negative_zero():
    series = make_series([0.0, 0.01, -0.0, 0.0, 0.0, -0.0])
    values = [v for _, v in rolling_var_forecasts(series, RiskSpec(3, Level(0.5)))]
    assert values == [0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in values)


def test_run_suite_every_block_undefined_is_skipped():
    rng = np.random.default_rng(47)
    series = make_series(rng.normal(size=40), asset="edge")
    spec = RiskSpec(10, Level(0.95), LARGEST, strict_violation=True)
    report = run_suite([series], [spec])
    assert len(report.var_rows) == 1
    assert report.tce_rows == ()
    assert report.skips == (SkippedPair(
        "edge", spec, "tce",
        "edge: predicted tail expectation undefined for every block "
        "(duration 10, level 0.95, strict conditioning)",
    ),)


def test_run_suite_cardinality_and_order():
    rng = np.random.default_rng(51)
    series_b = make_series(rng.normal(size=120), asset="bbb")
    series_a = make_series(rng.normal(size=120), asset="aaa")
    specs = [
        RiskSpec(100, Level(0.9)),
        RiskSpec(10, Level(0.9)),
        RiskSpec(500, Level(0.9)),
        RiskSpec(50, Level(0.9)),
    ]
    report = run_suite([series_b, series_a], specs)
    assert report.asset_ids == ("aaa", "bbb")
    assert [s.duration_n for s in report.specs] == [10, 50, 100, 500]
    # length 120: var needs n+1, tce needs 2n
    assert [(r.asset_id, r.spec.duration_n) for r in report.var_rows] == [
        ("aaa", 10), ("aaa", 50), ("aaa", 100), ("bbb", 10), ("bbb", 50), ("bbb", 100),
    ]
    assert [(r.asset_id, r.spec.duration_n) for r in report.tce_rows] == [
        ("aaa", 10), ("aaa", 50), ("bbb", 10), ("bbb", 50),
    ]
    skip_kinds = {(s.asset_id, s.spec.duration_n, s.kind) for s in report.skips}
    assert ("aaa", 500, "var") in skip_kinds
    assert ("aaa", 100, "tce") in skip_kinds
    assert ("bbb", 500, "tce") in skip_kinds


def test_run_suite_input_order_invariance():
    rng = np.random.default_rng(52)
    one = make_series(rng.normal(size=80), asset="one")
    two = make_series(rng.normal(size=80), asset="two")
    specs = [RiskSpec(10, Level(0.9)), RiskSpec(20, Level(0.95))]
    fwd = run_suite([one, two], specs)
    rev = run_suite([two, one], list(reversed(specs)))
    assert fwd == rev


def test_run_suite_identical_series_identical_rows():
    rng = np.random.default_rng(53)
    values = rng.normal(size=90)
    report = run_suite(
        [make_series(values, asset="p"), make_series(values, asset="q")],
        [RiskSpec(10, Level(0.9))],
    )
    p_row, q_row = report.var_rows
    assert (p_row.violations, p_row.relative_error) == (q_row.violations, q_row.relative_error)


def test_run_suite_rejects_duplicates_and_empties():
    rng = np.random.default_rng(54)
    series = make_series(rng.normal(size=50), asset="dup")
    with pytest.raises(InputError, match="dup"):
        run_suite([series, make_series(rng.normal(size=50), asset="dup")], [RiskSpec(10, Level(0.9))])
    with pytest.raises(InputError):
        run_suite([], [RiskSpec(10, Level(0.9))])
    with pytest.raises(InputError):
        run_suite([series], [])


def test_default_grid():
    assert len(DEFAULT_GRID) == 13
    assert DEFAULT_GRID[0] == (10, 0.90)
    assert DEFAULT_GRID[-1] == (500, 0.99)
    durations = sorted({n for n, _ in DEFAULT_GRID})
    assert durations == [10, 20, 50, 100, 250, 500]


def test_risk_spec_labels():
    assert RiskSpec(10, Level(0.9)).label() == "10,90%"
    assert RiskSpec(250, Level(0.95)).label() == "250,95%"
    assert RiskSpec(100, Level(0.99)).label() == "100,99%"
    assert RiskSpec(20, Level(0.975)).label() == "20,97.5%"


def test_run_suite_rejects_labels_that_name_no_spec():
    series = make_series(np.random.default_rng(56).normal(size=30))
    # six significant digits: 10,99.9999% for both, and 10,100% reads back as 1.0
    for alpha in (0.9999991, 0.9999992, 0.9999999):
        with pytest.raises(InputError, match="report label"):
            run_suite([series], [RiskSpec(10, Level(alpha))])
    # 0.999 reads back as 0.9990000000000001, within the tolerance
    report = run_suite([series], [RiskSpec(10, Level(0.999))])
    assert [spec.label() for spec in report.specs] == ["10,99.9%"]
    with pytest.raises(InputError, match="share the report label '10,90%'"):
        run_suite([series], [RiskSpec(10, Level(0.9), LARGEST), RiskSpec(10, Level(0.9), SMALLEST)])


def test_risk_spec_validation():
    with pytest.raises(InputError):
        RiskSpec(1, Level(0.9))
    with pytest.raises(InputError):
        RiskSpec(10, Level(1.0))


@pytest.mark.parametrize("conv", ["largest", None])
def test_risk_spec_rejects_unknown_convention(conv):
    # run_suite sorts specs by conv.value, so a string here used to escape as an AttributeError
    with pytest.raises(InputError, match=f"^unknown quantile convention: {re.escape(repr(conv))}$"):
        RiskSpec(10, 0.9, conv)


@pytest.mark.parametrize("strict", ["no", 1, None])
def test_risk_spec_rejects_non_bool_strictness(strict):
    # the rank passes group specs by strictness and run_suite sorts by it, so a
    # truthy 'no' used to count as strict and a mix with True raised TypeError
    with pytest.raises(InputError, match=f"^strict_violation must be a bool, got {re.escape(repr(strict))}$"):
        RiskSpec(10, 0.9, strict_violation=strict)


def test_risk_spec_keeps_numpy_bool_as_bool():
    spec = RiskSpec(10, 0.9, strict_violation=np.False_)
    assert spec.strict_violation is False
    assert spec == RiskSpec(10, 0.9, strict_violation=False)


def test_run_suite_scratch_stays_in_budget():
    # the budget in the backtest module docstring: 160 KiB for one 5,000-day
    # asset on the default grid
    series = make_series(np.random.default_rng(58).standard_t(4, 5000) * 0.01)
    specs = [RiskSpec(n, Level(alpha)) for n, alpha in DEFAULT_GRID]
    run_suite([series], specs)
    tracemalloc.start()
    try:
        run_suite([series], specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * 1024, f"run_suite peaked at {peak / 1024:.1f} KiB"


def test_run_suite_builds_one_tce_table_at_a_time(monkeypatch):
    # one table per (asset, duration) serves every level, convention and
    # strictness; a series shorter than 2n returns gets none, since all its
    # pairs are skipped; and no table is alive while the next one is built or
    # the next asset's rank pass runs, which the scratch budget relies on
    built, tables = [], []
    tce_blocks, rank_passes = backtest._tce_blocks, backtest._rank_passes

    def alone(build):
        def checked(series, arg):
            assert all(table() is None for table in tables)
            return build(series, arg)
        return checked

    def counted(series, n):
        rows, means = tce_blocks(series, n)
        built.append((series.asset_id, n))
        tables.extend((weakref.ref(rows), weakref.ref(means)))
        return rows, means

    monkeypatch.setattr(backtest, "_tce_blocks", alone(counted))
    monkeypatch.setattr(backtest, "_rank_passes", alone(rank_passes))
    rng = np.random.default_rng(59)
    series = [make_series(rng.normal(size=size), asset=f"a{size}") for size in (3, 9, 10, 19, 20, 41, 120)]
    durations = (2, 5, 10, 20, 50)
    expected = sorted((s.asset_id, n) for s in series for n in durations if 2 * n <= len(s))
    for conv in (LARGEST, SMALLEST):
        for strict in (True, False):
            built.clear()
            run_suite(series, [RiskSpec(n, Level(alpha), conv, strict) for n in durations for alpha in (0.5, 0.9, 0.95)])
            assert sorted(built) == expected


def test_return_series_validation():
    dates = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
    with pytest.raises(InputError, match="strictly increasing"):
        ReturnSeries("x", dates, np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        ReturnSeries("x", (dt.date(2020, 1, 1),), np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        ReturnSeries("x", (dt.date(2020, 1, 1),), np.array([np.nan]))
    with pytest.raises(InputError):
        ReturnSeries("", (dt.date(2020, 1, 1),), np.array([0.1]))
