"""Rolling out-of-sample backtests of historical VaR and tail expectations.

Two evaluation schemes share the same no-look-ahead window: day t is always
judged against a forecast computed from the n days strictly before it.

* VaR rolls daily: one forecast and one violation check per evaluation day.
* The tail expectation is checked on consecutive non-overlapping n-day blocks;
  each block keeps the VaR and predicted tail expectation fixed from the n
  days immediately preceding it, and a trailing partial block is discarded.
  A block with zero violations has no realized tail mean -- the tail
  expectation "did not exist" there -- and is counted, not errored.

Both backtests are computed by vectorised kernels rather than per-day loops.
With q_(k) the 0-based k-th order statistic of the window w preceding day t,

    r_t <  q_(k)  <=>  #{w <= r_t} <= k      (strict violation)
    r_t <= q_(k)  <=>  #{w <  r_t} <= k      (non-strict violation)

so one rank count per day, histogrammed and cumulated over k, gives the
violation count of every level and quantile convention at once: one pass per
(asset, duration, strictness).  The pass compares the windows with the next
returns in chunks of ``_CHUNK_ELEMS`` window elements, so its scratch memory
does not grow with the series: one boolean per chunk element and one 8-byte
count per window in the chunk, at most 64 KiB + 256 KiB (the counts peak at
n = 2) for any n up to 2**16.  ``rolling_var_forecasts`` partitions the same
chunks, a float copy of 512 KiB.  TCE blocks need no rolling: each
block's window is the block before it, so the series reshapes to rows and
one ``np.partition`` along the rows gives every block's threshold.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .measures import Level, QuantileConvention, _as_level, quantile_index

# Window elements compared per chunk in the rolling kernels.  On a 2-CPU x86
# host, chunks of 2**14 to 2**20 elements ran equally fast, but 1 MiB
# comparison blocks (2**20) raised the peak RSS of a 13-spec CLI run over
# 10 x 5,000 returns by 1.5 MB, against 0.2 MB at 2**16.
_CHUNK_ELEMS = 1 << 16

# Default backtest grid: horizons from two trading weeks to two trading years,
# crossed with the confidence levels commonly quoted for daily risk reporting.
DEFAULT_GRID: tuple[tuple[int, float], ...] = (
    (10, 0.90),
    (20, 0.90),
    (20, 0.95),
    (50, 0.90),
    (100, 0.90),
    (100, 0.95),
    (100, 0.99),
    (250, 0.90),
    (250, 0.95),
    (250, 0.99),
    (500, 0.90),
    (500, 0.95),
    (500, 0.99),
)


def checked_series(
    asset_id: str, dates: Iterable[dt.date], values: object, what: str
) -> tuple[tuple[dt.date, ...], np.ndarray]:
    """Check a dated series of ``what``; return its dates as a tuple, its values as a read-only copy."""
    arr = np.array(values, dtype=float)
    dates = tuple(dates)
    if not asset_id:
        raise InputError("asset_id must be non-empty")
    if arr.ndim != 1:
        raise InputError(f"{asset_id}: {what} must be one-dimensional")
    if arr.size != len(dates):
        raise InputError(f"{asset_id}: got {len(dates)} dates but {arr.size} {what}")
    if arr.size == 0:
        raise InputError(f"{asset_id}: {what} must contain at least one row")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{asset_id}: {what} contain non-finite values")
    for prev, curr in zip(dates, dates[1:]):
        if curr <= prev:
            raise InputError(f"{asset_id}: dates must be strictly increasing: {curr} does not follow {prev}")
    arr.flags.writeable = False
    return dates, arr


@dataclass(frozen=True)
class ReturnSeries:
    """Dated daily returns for one asset, strictly increasing dates."""

    asset_id: str
    dates: tuple[dt.date, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        dates, returns = checked_series(self.asset_id, self.dates, self.returns, "returns")
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "dates", dates)

    def __len__(self) -> int:
        return int(self.returns.size)


@dataclass(frozen=True)
class RiskSpec:
    """One backtest configuration: window length, level and conventions.

    ``strict_violation`` selects return < -VaR as the violation event (and the
    matching strict tail conditioning); the non-strict variant uses <=.
    """

    duration_n: int
    level: Level
    conv: QuantileConvention = QuantileConvention.LARGEST
    strict_violation: bool = True

    def __post_init__(self) -> None:
        n = int(self.duration_n)
        if n != self.duration_n or n < 2:
            raise InputError(f"duration must be an integer >= 2, got {self.duration_n!r}")
        object.__setattr__(self, "duration_n", n)
        object.__setattr__(self, "level", _as_level(self.level))

    def label(self) -> str:
        """Row label in the reporting tables, e.g. '250,95%'."""
        return f"{self.duration_n},{self.level.alpha * 100:g}%"


def parse_label(label: str) -> tuple[int, float]:
    """Read a report label back: '250,95%' -> (250, 0.95)."""
    parts = label.split(",")
    if len(parts) == 2 and parts[1].endswith("%"):
        try:
            return int(parts[0]), float(parts[1].rstrip("%")) / 100.0
        except ValueError:
            pass
    raise InputError(f"invalid spec label {label!r}, expected e.g. '250,95%'")


@dataclass(frozen=True)
class VarBacktestRow:
    asset_id: str
    spec: RiskSpec
    evaluation_days: int
    violations: int
    observed_rate: float
    relative_error: float


@dataclass(frozen=True)
class TceBacktestRow:
    asset_id: str
    spec: RiskSpec
    blocks_total: int
    blocks_nonexistent: int
    nonexistence_rate: float
    mean_error: float | None
    blocks_undefined_prediction: int = 0


@dataclass(frozen=True)
class SkippedPair:
    asset_id: str
    spec: RiskSpec
    kind: str  # "var" or "tce"
    reason: str


@dataclass(frozen=True)
class SuiteReport:
    asset_ids: tuple[str, ...]
    specs: tuple[RiskSpec, ...]
    var_rows: tuple[VarBacktestRow, ...]
    tce_rows: tuple[TceBacktestRow, ...]
    skips: tuple[SkippedPair, ...]


def _window_chunks(returns: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(windows, next returns) for every evaluation day, _CHUNK_ELEMS window elements at a time."""
    windows = sliding_window_view(returns[:-1], n)
    realized = returns[n:]
    step = max(1, _CHUNK_ELEMS // n)
    for start in range(0, realized.size, step):
        yield windows[start:start + step], realized[start:start + step]


def _violation_counts(returns: np.ndarray, n: int, strict: bool) -> np.ndarray:
    """Entry k: evaluation days whose return violates the order statistic q_(k) of its window."""
    rank_counts = np.zeros(n + 1, dtype=np.int64)
    for windows, realized in _window_chunks(returns, n):
        below = windows <= realized[:, None] if strict else windows < realized[:, None]
        rank_counts += np.bincount(below.sum(axis=1), minlength=n + 1)
    return np.cumsum(rank_counts)


def _require_var_length(series: ReturnSeries, n: int) -> None:
    if len(series) <= n:
        raise InputError(
            f"{series.asset_id}: need at least {n + 1} returns for duration {n}, got {len(series)}"
        )


def rolling_var_forecasts(series: ReturnSeries, spec: RiskSpec) -> list[tuple[dt.date, float]]:
    """Daily VaR forecasts as (date, var) pairs, dated by the day being forecast."""
    n = spec.duration_n
    _require_var_length(series, n)
    k = quantile_index(n, spec.level, spec.conv)
    quantiles = np.concatenate([
        np.partition(windows, k, axis=1)[:, k] for windows, _ in _window_chunks(series.returns, n)
    ])
    values = -quantiles + 0.0  # normalize -0.0 entries
    return list(zip(series.dates[n:], values.tolist()))


def _var_row(series: ReturnSeries, spec: RiskSpec, violation_counts: np.ndarray) -> VarBacktestRow:
    n = spec.duration_n
    violations = int(violation_counts[quantile_index(n, spec.level, spec.conv)])
    evaluation_days = len(series) - n
    observed_rate = violations / evaluation_days
    tail_probability = 1.0 - spec.level.alpha
    relative_error = (observed_rate - tail_probability) / tail_probability
    return VarBacktestRow(
        asset_id=series.asset_id,
        spec=spec,
        evaluation_days=evaluation_days,
        violations=violations,
        observed_rate=observed_rate,
        relative_error=relative_error,
    )


def var_backtest(series: ReturnSeries, spec: RiskSpec) -> VarBacktestRow:
    """Count daily VaR violations over the evaluation region and compare to 1 - alpha."""
    n = spec.duration_n
    _require_var_length(series, n)
    return _var_row(series, spec, _violation_counts(series.returns, n, spec.strict_violation))


def tce_backtest(series: ReturnSeries, spec: RiskSpec) -> TceBacktestRow:
    """Blockwise tail-expectation backtest.

    For each non-overlapping n-day block the VaR and the predicted tail
    expectation come from the n days immediately preceding it.  A block with
    zero violations counts as nonexistent.  A block whose *prediction* is
    already undefined (empty conditioning tail in the window, possible under
    strict conditioning) is excluded from both counts and only tallied in
    ``blocks_undefined_prediction``.  Block error = realized mean of violating
    returns + predicted tail expectation.
    """
    n = spec.duration_n
    if len(series) < 2 * n:
        raise InputError(
            f"{series.asset_id}: need at least {2 * n} returns for one {n}-day block, got {len(series)}"
        )
    k = quantile_index(n, spec.level, spec.conv)
    in_tail = np.less if spec.strict_violation else np.less_equal
    rows = series.returns[:len(series) // n * n].reshape(-1, n)
    windows, blocks = rows[:-1], rows[1:]
    q = np.partition(windows, k, axis=1)[:, k:k + 1]
    window_tail = in_tail(windows, q)
    hits = in_tail(blocks, q)
    defined = window_tail.any(axis=1)
    evaluated = int(defined.sum())
    if evaluated == 0:
        raise InputError(
            f"{series.asset_id}: predicted tail expectation undefined for every block "
            f"(duration {n}, level {spec.level.alpha:g}, strict conditioning)"
        )
    scored = defined & hits.any(axis=1)
    window_tail, hits = window_tail[scored], hits[scored]
    predicted_mean = np.where(window_tail, windows[scored], 0.0).sum(axis=1) / window_tail.sum(axis=1)
    realized_mean = np.where(hits, blocks[scored], 0.0).sum(axis=1) / hits.sum(axis=1)
    nonexistent = evaluated - int(scored.sum())
    return TceBacktestRow(
        asset_id=series.asset_id,
        spec=spec,
        blocks_total=evaluated,
        blocks_nonexistent=nonexistent,
        nonexistence_rate=nonexistent / evaluated,
        mean_error=float(np.mean(realized_mean - predicted_mean)) if scored.any() else None,
        blocks_undefined_prediction=windows.shape[0] - evaluated,
    )


def _check_labels(specs: Sequence[RiskSpec]) -> None:
    """Reject specs whose report label does not name them alone.

    The tables key rows by ``RiskSpec.label()`` and ``regress`` reads the level
    back from it, so the label must parse to the spec's level within 1e-9 and
    no two specs may share one.
    """
    seen: dict[str, RiskSpec] = {}
    for spec in specs:
        label = spec.label()
        _, parsed = parse_label(label)
        if abs(parsed - spec.level.alpha) > 1e-9:
            raise InputError(
                f"level {spec.level.alpha!r} does not survive its report label {label!r} "
                f"(reads back as {parsed!r})"
            )
        other = seen.setdefault(label, spec)
        if other != spec:
            raise InputError(f"specs {other} and {spec} share the report label {label!r}")


def run_suite(series_set: Iterable[ReturnSeries], specs: Sequence[RiskSpec]) -> SuiteReport:
    """Run both backtests for every (asset, spec) pair, skipping short series.

    Rows come back sorted (asset id, then duration, then level) regardless of
    input order, so rendered tables are deterministic.  A pair too short for a
    backtest is recorded as a SkippedPair instead of failing the suite.
    """
    series_list = list(series_set)
    if not series_list:
        raise InputError("at least one return series is required")
    ids = [s.asset_id for s in series_list]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise InputError(f"duplicate asset ids: {', '.join(dupes)}")
    spec_list = list(dict.fromkeys(specs))
    if not spec_list:
        raise InputError("at least one risk spec is required")

    series_list.sort(key=lambda s: s.asset_id)
    spec_list.sort(key=lambda sp: (sp.duration_n, sp.level.alpha, sp.conv.value, sp.strict_violation))

    _check_labels(spec_list)

    var_rows: list[VarBacktestRow] = []
    tce_rows: list[TceBacktestRow] = []
    skips: list[SkippedPair] = []
    for series in series_list:
        # one rank pass per (duration, strictness) serves every level and convention
        violation_counts: dict[tuple[int, bool], np.ndarray] = {}
        for spec in spec_list:
            n = spec.duration_n
            if len(series) > n:
                key = (n, spec.strict_violation)
                if key not in violation_counts:
                    violation_counts[key] = _violation_counts(series.returns, *key)
                var_rows.append(_var_row(series, spec, violation_counts[key]))
            else:
                skips.append(SkippedPair(
                    series.asset_id, spec, "var",
                    f"{len(series)} returns < required {n + 1}",
                ))
            if len(series) >= 2 * n:
                try:
                    tce_rows.append(tce_backtest(series, spec))
                except InputError as exc:
                    # every block undefined under strict conditioning
                    skips.append(SkippedPair(series.asset_id, spec, "tce", str(exc)))
            else:
                skips.append(SkippedPair(
                    series.asset_id, spec, "tce",
                    f"{len(series)} returns < required {2 * n}",
                ))
    return SuiteReport(
        asset_ids=tuple(sorted(ids)),
        specs=tuple(spec_list),
        var_rows=tuple(var_rows),
        tce_rows=tuple(tce_rows),
        skips=tuple(skips),
    )
