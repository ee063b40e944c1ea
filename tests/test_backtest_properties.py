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
    chunk=st.sampled_from(["1", "hi-1", "hi", "3hi+1", "default"]),
)
def test_one_rank_pass_serves_every_duration(data, size, levels, chunk):
    # Tie-heavy returns; durations at or past the series length must be skipped.
    # The chunk sizes put tile edges inside the first hi - lo days, whose
    # windows reach back before the first return.  Each duration's TCE table
    # serves all its levels: every TCE row or skip must match the block loop.
    returns = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))) / 50
    durations = data.draw(st.lists(st.integers(2, size + 5), min_size=1, max_size=5, unique=True))
    series = make_series(returns)
    short = sorted(n for n in durations if n < returns.size)
    hi = short[-1] if short else 2
    chunk_elems = {"1": 1, "hi-1": hi - 1, "hi": hi, "3hi+1": 3 * hi + 1, "default": backtest._CHUNK_ELEMS}[chunk]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backtest, "_CHUNK_ELEMS", chunk_elems)
        for strict in (True, False):
            if short:
                together = backtest._violation_counts(returns, short, strict)
                for n, counts in zip(short, together):
                    assert counts.tolist() == backtest._violation_counts(returns, [n], strict)[0].tolist()
                    assert counts[:n].tolist() == reference_rank_counts(returns, n, strict).tolist()
                    assert counts[n] == returns.size - n
            for conv in CONVENTIONS:
                specs = [RiskSpec(n, Level(level), conv, strict) for n in durations for level in levels]
                report = run_suite([series], specs)
                rows = {row.spec: row for row in report.var_rows}
                tce_rows = {row.spec: row for row in report.tce_rows}
                tce_skips = {skip.spec: skip.reason for skip in report.skips if skip.kind == "tce"}
                for spec in specs:
                    n = spec.duration_n
                    if n < returns.size:
                        row = rows[spec]
                        assert (row.violations, row.evaluation_days) == reference_violations(returns, spec)
                    else:
                        assert spec not in rows
                    if returns.size < 2 * n:
                        assert tce_skips[spec] == f"{returns.size} returns < required {2 * n}"
                    elif reference_tce(returns, spec) is None:
                        assert "undefined for every block" in tce_skips[spec]
                    else:
                        assert_tce_row_matches(tce_rows[spec], returns)


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
