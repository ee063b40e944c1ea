"""Rolling out-of-sample backtests of historical VaR and tail expectations.

Two evaluation schemes share the same no-look-ahead window: day t is always
judged against a forecast computed from the n days strictly before it.

* VaR rolls daily: one forecast and one violation check per evaluation day.
* The tail expectation is checked on consecutive non-overlapping n-day blocks;
  each block keeps the VaR and predicted tail expectation fixed from the n
  days immediately preceding it, and a trailing partial block is discarded.
  A block with zero violations has no realized tail mean -- the tail
  expectation "did not exist" there -- and is counted, not errored.

One function per kind, ``_var_result`` and ``_tce_result``, returns a pair's
row or raises ``_Skip``, the InputError that says why the pair cannot be scored
(too few returns, or no defined prediction): ``run_suite`` records it as a
SkippedPair, and ``var_backtest`` and ``tce_backtest`` let it propagate.

Both backtests are computed by vectorised kernels rather than per-day loops.
With q_(k) the 0-based k-th order statistic of the window w preceding day t,

    r_t <  q_(k)  <=>  #{w <= r_t} <= k      (strict violation)
    r_t <= q_(k)  <=>  #{w <  r_t} <= k      (non-strict violation)

so one rank count per day, histogrammed and cumulated over k, gives the
violation count of every level and quantile convention at once.  And the n-day
window of a day is the last n lags of its longest, hi-day, window, so one pass
per (asset, strictness) serves every duration: it compares each day's return
with its lags 1, 2, ..., hi once, adds the compares up lag by lag into the
day's rank, and histograms the ranks of duration n once lag n is in.

The pass works in tiles of at most ``_CHUNK_ELEMS`` compares (up to 255 lags
by up to 4,096 days), so its scratch memory does not grow with the series: the
tile's booleans (64 KiB), 17 bytes per day of a block (an 8-byte rank, the
8-byte buffer that adds a tile's uint8 counts to it, and those counts; 68 KiB),
and 8 (2 hi - lo - 1) bytes of padded lags for the first hi - lo days (7.7 KiB
on ``DEFAULT_GRID``).  The budget the tests hold: one ``run_suite`` over a
5,000-day asset on ``DEFAULT_GRID`` peaks at no more than 160 KiB under
tracemalloc.  It measured 154 KiB, against 271 KiB with the per-duration passes
this one replaced; the TCE side alone peaks at 132 KiB (below).
``rolling_var_forecasts`` partitions day chunks of the same windows, a float
copy of at most 512 KiB.

TCE blocks need no rolling: each block's window is the block before it.  So
``_tce_blocks`` sorts every whole n-day block once and keeps, beside the sorted
rows, the mean of each block's j + 1 smallest returns for every j: one row-wise
prefix sum, divided by 1..n and rescaled only where it overflowed.  The tail
{x < q} or {x <= q} of a sorted row is a prefix of it, so a spec only reads the
table: its thresholds are column k of the window rows, its two tail counts are
compares with them, and both tail means are gathers.  One table per (asset,
duration) serves every level, quantile convention and strictness.  It holds 16
bytes per day (78 KiB on 5,000 days); a broadcast divide or compare adds
NumPy's iterator buffer of up to 8,192 elements.  ``run_suite`` builds a
duration's table only for a series of at least 2n returns, and drops it before
the next table or rank pass: two live tables would break the budget.
"""

from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InputError
from .ingestion import ReturnSeries
from .measures import Level, QuantileConvention, _as_level, _finite_mean, quantile_index

# Window elements compared per tile or chunk in the rolling kernels.  On a
# 2-CPU x86 host the rank pass over 10 x 5,000 returns and six durations took
# 39 ms at 2**14, 19 ms at 2**16 and 9 ms at 2**18, but its scratch grows with
# the tile; with the earlier per-duration pass, 1 MiB comparison blocks (2**20)
# raised the peak RSS of a 13-spec CLI run over those returns by 1.5 MB,
# against 0.2 MB at 2**16.
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
        if not isinstance(self.conv, QuantileConvention):
            raise InputError(f"unknown quantile convention: {self.conv!r}")
        if not isinstance(self.strict_violation, (bool, np.bool_)):
            raise InputError(f"strict_violation must be a bool, got {self.strict_violation!r}")
        object.__setattr__(self, "strict_violation", bool(self.strict_violation))
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


def _window_chunks(
    returns: np.ndarray, lo: int, hi: int, step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(windows, next returns) for the evaluation days lo, lo + 1, ..., ``step`` days at a time.

    Each window holds the hi returns before its day, oldest first; before day
    hi, +inf stands in for the days before the first return.  Only those hi - lo
    days read a padded copy, of 2 hi - lo - 1 values; the rest read ``returns``.
    A padded lag j of day t < j never reaches a count: the rank pass adds it only
    into the ranks of durations n >= j > t, which skip day t.
    """
    parts = [(returns[:-1], returns[hi:])]
    if lo < hi:
        head = np.concatenate((np.full(hi - lo, np.inf), returns[:hi - 1]))
        parts.insert(0, (head, returns[lo:hi]))
    for source, realized in parts:
        # sliding_window_view's view without its argument checks, which cost about
        # 13 us a call on a 2-CPU x86 host: 13 ms over 1,000 short series
        windows = as_strided(source, shape=(realized.size, hi), strides=source.strides * 2, writeable=False)
        for start in range(0, realized.size, step):
            yield windows[start:start + step], realized[start:start + step]


def _violation_counts(returns: np.ndarray, durations: Sequence[int], strict: bool) -> list[np.ndarray]:
    """Per duration n (ascending, each shorter than ``returns``): entry k counts the
    evaluation days t >= n whose return violates q_(k) of its n-day window.

    One pass over lags 1..hi serves every duration, as the module docstring says.
    """
    lo, hi = durations[0], durations[-1]
    compare = np.less_equal if strict else np.less
    # Tiles run along days, 4,096 of them at the default _CHUNK_ELEMS: on a 2-CPU
    # x86 host a compare ran 3-4x faster per element in rows of 4,096 than of 131
    # to 1,024.  At most 255 lags, so a tile's count per day fits a uint8.
    days = min(returns.size - lo, max(1, _CHUNK_ELEMS // 16))
    lags = min(255, max(1, _CHUNK_ELEMS // days))
    rank_counts = [np.zeros(n + 1, dtype=np.int64) for n in durations]
    day = lo
    for windows, realized in _window_chunks(returns, lo, hi, days):
        by_lag = windows.T[::-1]  # row j: the return j + 1 days before each day
        rank = np.zeros(realized.size, dtype=np.intp)
        done = 0
        for n, counts in zip(durations, rank_counts):
            for j in range(done, n, lags):
                rank += compare(by_lag[j:min(j + lags, n)], realized).view(np.uint8).sum(axis=0, dtype=np.uint8)
            done = n
            counts += np.bincount(rank[max(0, n - day):], minlength=n + 1)
        day += realized.size
    return [np.cumsum(counts, out=counts) for counts in rank_counts]


def _rank_passes(series: ReturnSeries, specs: Sequence[RiskSpec]) -> dict[tuple[int, bool], np.ndarray]:
    """Violation counts by (duration, strictness) for every spec with an evaluation day: one pass per strictness."""
    counts: dict[tuple[int, bool], np.ndarray] = {}
    for strict in {spec.strict_violation for spec in specs}:
        durations = sorted({
            spec.duration_n for spec in specs if spec.strict_violation == strict and spec.duration_n < len(series)
        })
        if durations:
            counts.update(zip([(n, strict) for n in durations], _violation_counts(series.returns, durations, strict)))
    return counts


class _Skip(InputError):
    """A pair a backtest cannot score: ``run_suite`` records it, the public backtests raise it."""


def _require(series: ReturnSeries, days: int) -> None:
    """Raise _Skip unless ``series`` holds at least ``days`` returns."""
    if len(series) < days:
        raise _Skip(f"{len(series)} returns < required {days}")


def rolling_var_forecasts(series: ReturnSeries, spec: RiskSpec) -> list[tuple[dt.date, float]]:
    """Daily VaR forecasts as (date, var) pairs, dated by the day being forecast."""
    n = spec.duration_n
    _require(series, n + 1)
    k = quantile_index(n, spec.level, spec.conv)
    chunks = _window_chunks(series.returns, n, n, max(1, _CHUNK_ELEMS // n))
    quantiles = np.concatenate([np.partition(windows, k, axis=1)[:, k] for windows, _ in chunks])
    values = -quantiles + 0.0  # normalize -0.0 entries
    return list(zip(series.dates[n:], values.tolist()))


def _var_result(series: ReturnSeries, spec: RiskSpec, counts: dict[tuple[int, bool], np.ndarray]) -> VarBacktestRow:
    """The VaR row of one pair; ``counts`` holds the ``_rank_passes`` of the series."""
    n = spec.duration_n
    _require(series, n + 1)
    violations = int(counts[n, spec.strict_violation][quantile_index(n, spec.level, spec.conv)])
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


def _tce_blocks(series: ReturnSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole n-day blocks of ``series``, each sorted, and at [i, j] the mean of block i's j + 1 smallest returns."""
    _require(series, 2 * n)
    rows = np.sort(series.returns[:len(series) // n * n].reshape(-1, n), axis=1)
    sizes = np.arange(1.0, n + 1)

    def prefix_means(values: np.ndarray) -> np.ndarray:
        sums = np.cumsum(values, axis=1)
        sums /= sizes
        return sums

    return rows, _finite_mean(prefix_means, rows)


def _tce_result(series: ReturnSeries, spec: RiskSpec, table: tuple[np.ndarray, np.ndarray]) -> TceBacktestRow:
    """The TCE backtest row of one pair, read off the ``_tce_blocks`` of its series and duration."""
    rows, means = table
    k = quantile_index(spec.duration_n, spec.level, spec.conv)
    in_tail = np.less if spec.strict_violation else np.less_equal
    q = rows[:-1, k:k + 1]
    window_tail = in_tail(rows[:-1], q).sum(axis=1)
    hits = in_tail(rows[1:], q).sum(axis=1)
    evaluated = int(np.count_nonzero(window_tail))
    if evaluated == 0:
        raise _Skip(
            f"{series.asset_id}: predicted tail expectation undefined for every block "
            f"(duration {spec.duration_n}, level {spec.level.alpha:g}, strict conditioning)"
        )
    scored = np.flatnonzero((window_tail > 0) & (hits > 0))
    block_errors = means[scored + 1, hits[scored] - 1] - means[scored, window_tail[scored] - 1]
    nonexistent = evaluated - scored.size
    return TceBacktestRow(
        asset_id=series.asset_id,
        spec=spec,
        blocks_total=evaluated,
        blocks_nonexistent=nonexistent,
        nonexistence_rate=nonexistent / evaluated,
        mean_error=float(_finite_mean(np.mean, block_errors)) if scored.size else None,
        blocks_undefined_prediction=window_tail.size - evaluated,
    )


def var_backtest(series: ReturnSeries, spec: RiskSpec) -> VarBacktestRow:
    """Count daily VaR violations over the evaluation region and compare to 1 - alpha."""
    return _var_result(series, spec, _rank_passes(series, [spec]))


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
    return _tce_result(series, spec, _tce_blocks(series, spec.duration_n))


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
    input order, so rendered tables are deterministic.  A pair a backtest
    cannot score is recorded as a SkippedPair instead of failing the suite.
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
        counts = _rank_passes(series, spec_list)
        for n, same_n in itertools.groupby(spec_list, key=lambda spec: spec.duration_n):
            table = None  # built by the first TCE pair that needs it
            for spec in same_n:
                try:
                    var_rows.append(_var_result(series, spec, counts))
                except _Skip as skip:
                    skips.append(SkippedPair(series.asset_id, spec, "var", str(skip)))
                try:
                    if table is None:
                        table = _tce_blocks(series, n)
                    tce_rows.append(_tce_result(series, spec, table))
                except _Skip as skip:
                    skips.append(SkippedPair(series.asset_id, spec, "tce", str(skip)))
            del table  # not alive through the next table or the next asset's rank pass
    return SuiteReport(
        asset_ids=tuple(sorted(ids)),
        specs=tuple(spec_list),
        var_rows=tuple(var_rows),
        tce_rows=tuple(tce_rows),
        skips=tuple(skips),
    )
