"""The vectorised backtest kernels against the per-day and per-block loops.

The reference functions below are the loop implementations the kernels
replaced: one ``np.partition`` per evaluation day, one per TCE block.  Counts
must agree exactly; tail means are summed in a different order, so
``mean_error`` may differ by a few ulps of the largest return.
"""

import datetime as dt

import numpy as np
import pytest

from histrisk import (
    InputError,
    Level,
    QuantileConvention,
    ReturnSeries,
    RiskSpec,
    SkippedPair,
    rolling_var_forecasts,
    run_suite,
    tce_backtest,
    var_backtest,
)
import histrisk.backtest as backtest
from histrisk.backtest import parse_label
from histrisk.measures import quantile_index

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EPS = np.finfo(float).eps
CONVENTIONS = (QuantileConvention.LARGEST, QuantileConvention.SMALLEST)


def reference_var_forecasts(returns, n, level, conv):
    k = quantile_index(n, level, conv)
    out = np.empty(returns.size - n)
    for t in range(n, returns.size):
        out[t - n] = -np.partition(returns[t - n:t], k)[k]
    return out + 0.0


def reference_violations(returns, spec):
    n = spec.duration_n
    realized = returns[n:]
    thresholds = -reference_var_forecasts(returns, n, spec.level, spec.conv)
    hits = realized < thresholds if spec.strict_violation else realized <= thresholds
    return int(hits.sum()), int(realized.size)


def reference_rank_counts(returns, n, strict):
    """Entry k: days t >= n whose return violates the k-th order statistic of the n days before it."""
    counts = np.zeros(n, dtype=np.int64)
    for t in range(n, returns.size):
        ordered = np.sort(returns[t - n:t])
        counts += returns[t] < ordered if strict else returns[t] <= ordered
    return counts


def reference_tce(returns, spec):
    """(evaluated, nonexistent, undefined, mean_error), or None if every block is undefined."""
    n = spec.duration_n
    k = quantile_index(n, spec.level, spec.conv)
    strict = spec.strict_violation
    evaluated = nonexistent = undefined = 0
    block_errors = []
    for start in range(n, returns.size - n + 1, n):
        window = returns[start - n:start]
        q = np.partition(window, k)[k]
        predicted_tail = window[window < q] if strict else window[window <= q]
        if predicted_tail.size == 0:
            undefined += 1
            continue
        predicted_tce = -float(predicted_tail.mean())
        block = returns[start:start + n]
        hits = block < q if strict else block <= q
        evaluated += 1
        if not np.any(hits):
            nonexistent += 1
        else:
            block_errors.append(float(block[hits].mean()) + predicted_tce)
    if evaluated == 0:
        return None
    mean_error = float(np.mean(block_errors)) if block_errors else None
    return evaluated, nonexistent, undefined, mean_error


def make_series(values, asset="x"):
    start = dt.date(2015, 1, 1).toordinal()
    dates = tuple(dt.date.fromordinal(start + i) for i in range(len(values)))
    return ReturnSeries(asset, dates, np.asarray(values, dtype=float))


def returns_strategy(min_size, max_size):
    """Tie-heavy multiples of 1/50, or continuous draws."""
    ties = st.lists(st.integers(-6, 6).map(lambda i: i / 50), min_size=min_size, max_size=max_size)
    continuous = st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False), min_size=min_size, max_size=max_size
    )
    return st.one_of(ties, continuous).map(lambda v: np.array(v, dtype=float))


# levels whose labels round-trip; 0.001 and 0.999 put k at n-1 and 0 for every n <= 40
LEVELS = st.one_of(st.sampled_from([0.001, 0.999]), st.integers(1, 999).map(lambda i: i / 1000))
SPEC_PARTS = st.tuples(LEVELS, st.sampled_from(CONVENTIONS), st.booleans())


def assert_mean_error_close(actual, expected, returns):
    assert (actual is None) == (expected is None)
    if expected is not None:
        assert abs(actual - expected) <= 4 * EPS * float(np.max(np.abs(returns)))


def assert_tce_row_matches(row, returns):
    expected = reference_tce(returns, row.spec)
    assert expected is not None
    evaluated, nonexistent, undefined, mean_error = expected
    counts = (row.blocks_total, row.blocks_nonexistent, row.blocks_undefined_prediction)
    assert counts == (evaluated, nonexistent, undefined)
    assert all(type(count) is int for count in counts)
    assert row.nonexistence_rate == nonexistent / evaluated
    assert_mean_error_close(row.mean_error, mean_error, returns)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 40), parts=SPEC_PARTS)
def test_var_kernel_matches_daily_loop(data, n, parts):
    level, conv, strict = parts
    returns = data.draw(returns_strategy(n + 1, n + 120))
    spec = RiskSpec(n, Level(level), conv, strict)
    series = make_series(returns)

    row = var_backtest(series, spec)
    assert (row.violations, row.evaluation_days) == reference_violations(returns, spec)
    forecasts = [v for _, v in rolling_var_forecasts(series, spec)]
    assert forecasts == reference_var_forecasts(returns, n, spec.level, conv).tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 40), parts=SPEC_PARTS)
def test_tce_kernel_matches_block_loop(data, n, parts):
    level, conv, strict = parts
    returns = data.draw(returns_strategy(2 * n, 6 * n))
    spec = RiskSpec(n, Level(level), conv, strict)
    series = make_series(returns)

    if reference_tce(returns, spec) is None:
        with pytest.raises(InputError, match="undefined for every block"):
            tce_backtest(series, spec)
    else:
        assert_tce_row_matches(tce_backtest(series, spec), returns)


@settings(max_examples=60, deadline=None)
@given(
    assets=st.lists(returns_strategy(2, 160), min_size=1, max_size=3),
    spec_keys=st.lists(st.tuples(st.integers(2, 40), LEVELS), min_size=1, max_size=6, unique=True),
    spec_rest=st.lists(st.tuples(st.sampled_from(CONVENTIONS), st.booleans()), min_size=6, max_size=6),
)
def test_run_suite_matches_loops_with_mixed_specs(assets, spec_keys, spec_rest):
    specs = [RiskSpec(n, Level(level), conv, strict) for (n, level), (conv, strict) in zip(spec_keys, spec_rest)]
    series = [make_series(values, asset=f"a{i}") for i, values in enumerate(assets)]
    report = run_suite(series, specs)

    var_rows = iter(report.var_rows)
    tce_rows = iter(report.tce_rows)
    skips = iter(report.skips)
    for s in series:
        returns = s.returns
        for spec in report.specs:
            n = spec.duration_n
            if returns.size > n:
                row = next(var_rows)
                assert (row.asset_id, row.spec) == (s.asset_id, spec)
                assert (row.violations, row.evaluation_days) == reference_violations(returns, spec)
            else:
                assert next(skips) == SkippedPair(s.asset_id, spec, "var", f"{returns.size} returns < required {n + 1}")
            if returns.size < 2 * n:
                assert next(skips) == SkippedPair(s.asset_id, spec, "tce", f"{returns.size} returns < required {2 * n}")
            elif reference_tce(returns, spec) is None:
                skip = next(skips)
                assert (skip.asset_id, skip.spec, skip.kind) == (s.asset_id, spec, "tce")
                assert "undefined for every block" in skip.reason
            else:
                row = next(tce_rows)
                assert (row.asset_id, row.spec) == (s.asset_id, spec)
                assert_tce_row_matches(row, returns)
    for rest in (var_rows, tce_rows, skips):
        assert next(rest, None) is None


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    size=st.integers(3, 90),
    levels=st.lists(LEVELS, min_size=1, max_size=3, unique=True),
    chunk=st.sampled_from(["1", "hi-1", "hi", "3hi+1", "two series", "default"]),
)
def test_one_rank_pass_serves_every_duration(data, size, levels, chunk):
    # Tie-heavy returns; durations at or past a series' length must be skipped.
    # Several series, of equal and mixed lengths, in stacks of one ("1" to
    # "3hi+1"), of at most two of ``size`` returns ("two series"), or of every
    # equal-length neighbour ("default").  The chunk sizes put tile edges inside
    # the first hi - lo days, whose windows reach back before the first return.
    # Each duration's TCE table serves all its levels: every row or skip of
    # every series must match the loops.
    lengths = [size] + data.draw(st.lists(st.sampled_from([size, size, max(3, size - 1), size + 7]), max_size=3))
    returns_list = [
        np.array(data.draw(st.lists(st.integers(-4, 4), min_size=length, max_size=length))) / 50
        for length in lengths
    ]
    durations = data.draw(st.lists(st.integers(2, size + 5), min_size=1, max_size=5, unique=True))
    series_list = [make_series(returns, asset=f"a{i}") for i, returns in enumerate(returns_list)]
    short = sorted(n for n in durations if n < size)
    hi = short[-1] if short else 2
    chunk_elems = {
        "1": 1, "hi-1": hi - 1, "hi": hi, "3hi+1": 3 * hi + 1,
        "two series": 32 * size, "default": backtest._CHUNK_ELEMS,
    }[chunk]
    block = np.stack([returns for returns in returns_list if returns.size == size], axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backtest, "_CHUNK_ELEMS", chunk_elems)
        for strict in (True, False):
            if short:
                together = backtest._violation_counts(block, short, strict)
                for n, counts in zip(short, together):
                    for column, returns in zip(counts, block.T):
                        alone = backtest._violation_counts(returns[:, None], [n], strict)[0]
                        assert column.tolist() == alone[0].tolist()
                        assert column[:n].tolist() == reference_rank_counts(returns, n, strict).tolist()
                        assert column[n] == size - n
            for conv in CONVENTIONS:
                specs = [RiskSpec(n, Level(level), conv, strict) for n in durations for level in levels]
                report = run_suite(series_list, specs)
                rows = {(row.asset_id, row.spec): row for row in report.var_rows}
                tce_rows = {(row.asset_id, row.spec): row for row in report.tce_rows}
                tce_skips = {(skip.asset_id, skip.spec): skip.reason for skip in report.skips if skip.kind == "tce"}
                for series, returns in zip(series_list, returns_list):
                    for spec in specs:
                        n, pair = spec.duration_n, (series.asset_id, spec)
                        if n < returns.size:
                            row = rows[pair]
                            assert (row.violations, row.evaluation_days) == reference_violations(returns, spec)
                        else:
                            assert pair not in rows
                        if returns.size < 2 * n:
                            assert tce_skips[pair] == f"{returns.size} returns < required {2 * n}"
                        elif reference_tce(returns, spec) is None:
                            assert "undefined for every block" in tce_skips[pair]
                        else:
                            assert_tce_row_matches(tce_rows[pair], returns)


def scored_alone(series, spec):
    """The VaR and the TCE outcome of one pair alone: its row, or the SkippedPair its InputError makes."""
    outcomes = []
    for kind, backtest_pair in (("var", var_backtest), ("tce", tce_backtest)):
        try:
            outcomes.append(backtest_pair(series, spec))
        except InputError as skip:
            outcomes.append(SkippedPair(series.asset_id, spec, kind, str(skip)))
    return outcomes


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    spec_keys=st.lists(st.tuples(st.integers(2, 12), LEVELS), min_size=1, max_size=4, unique=True),
    spec_rest=st.lists(st.tuples(st.sampled_from(CONVENTIONS), st.booleans()), min_size=4, max_size=4),
    per_stack=st.integers(1, 3),
)
def test_run_suite_scores_each_stack_as_each_pair_alone(data, spec_keys, spec_rest, per_stack):
    # Runs of equal-length series, their lengths at n, n + 1, 2n - 1 and 2n of some duration n, so each
    # stack is skipped for some specs and scored for others; _CHUNK_ELEMS splits a run of the longest
    # length into stacks of ``per_stack`` series.  Every row and skip must be the one its pair gives
    # alone, in the order of a loop over the assets and, within one, over the specs.
    specs = [RiskSpec(n, Level(level), conv, strict) for (n, level), (conv, strict) in zip(spec_keys, spec_rest)]
    lengths = sorted({size for n, _ in spec_keys for size in (n, n + 1, 2 * n - 1, 2 * n)})
    runs = data.draw(st.lists(st.tuples(st.sampled_from(lengths), st.integers(1, 4)), min_size=1, max_size=4))
    series = []
    for size, count in runs:
        for _ in range(count):
            values = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
            series.append(make_series(np.array(values) / 50, asset=f"a{len(series):02d}"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backtest, "_CHUNK_ELEMS", 16 * max(lengths) * per_stack)
        report = run_suite(series, specs)
    expected = [outcome for s in series for spec in report.specs for outcome in scored_alone(s, spec)]
    assert report.var_rows == tuple(row for row in expected if isinstance(row, backtest.VarBacktestRow))
    assert report.tce_rows == tuple(row for row in expected if isinstance(row, backtest.TceBacktestRow))
    assert report.skips == tuple(skip for skip in expected if isinstance(skip, SkippedPair))


LABEL_SERIES = ReturnSeries("x", (dt.date(2020, 1, 1), dt.date(2020, 1, 2)), np.array([0.01, -0.02]))


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(2, 10**5),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
)
@example(n=10, alpha=0.975)
@example(n=10, alpha=0.9999999)  # labelled 10,100%
def test_label_round_trip_or_rejected(n, alpha):
    spec = RiskSpec(n, Level(alpha))
    parsed_n, parsed_alpha = parse_label(spec.label())
    if parsed_n == n and abs(parsed_alpha - alpha) <= 1e-9:
        run_suite([LABEL_SERIES], [spec])
    else:
        with pytest.raises(InputError, match="report label"):
            run_suite([LABEL_SERIES], [spec])
