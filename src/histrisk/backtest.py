"""Rolling out-of-sample backtests of historical VaR and tail expectations.

Two evaluation schemes share the same no-look-ahead window: day t is always
judged against a forecast computed from the n days strictly before it.

* VaR rolls daily: one forecast and one violation check per evaluation day.
* The tail expectation is checked on consecutive non-overlapping n-day blocks;
  each block keeps the VaR and predicted tail expectation fixed from the n
  days immediately preceding it, and a trailing partial block is discarded.
  A block with zero violations has no realized tail mean -- the tail
  expectation "did not exist" there -- and is counted, not errored.

``run_suite`` ranks a stack of equal-length series (below) at a time, then
scores its pairs in one walk, in report order.  A length skip, ``N returns <
required M`` from ``_shortfall``, holds for every series of a stack, so each
spec's VaR and TCE skip reasons are built once per stack: ``_var_counts`` gives
each spec its VaR skip or each series' violation count.  Each series then
visits the specs once: a spec gives a VaR row, from the ``_var_row`` that
``var_backtest`` also uses, or a VaR skip, then a TCE skip or a row from
``_tce_result``, which raises an InputError when no block has a defined
prediction, the one skip that depends on the data.  Each skip is recorded as a
SkippedPair.  ``var_backtest``, ``tce_backtest`` and ``rolling_var_forecasts``
score one pair and raise the InputError that says why the pair cannot be
scored, through ``_require``.

Both backtests are computed by vectorised kernels rather than per-day loops.
With q_(k) the 0-based k-th order statistic of the window w preceding day t,

    r_t <  q_(k)  <=>  #{w <= r_t} <= k      (strict violation)
    r_t <= q_(k)  <=>  #{w <  r_t} <= k      (non-strict violation)

so one rank count per day, histogrammed and cumulated over k, gives the
violation count of every level and quantile convention at once.  And the n-day
window of a day is the last n lags of its longest, hi-day, window, so one pass
per strictness serves every duration: it compares each day's return with its
lags 1, 2, ..., hi once, adds the compares up lag by lag into the day's rank,
and histograms the ranks of duration n once lag n is in.

The pass ranks a stack of series at once.  ``run_suite`` takes its input once,
as it arrives, and stacks runs of consecutive equal-length series, in that
order, up to ``_CHUNK_ELEMS // 16`` returns (32 KiB) a stack, as the columns of
one block, so a day's returns are one row and lag j of every series is the row
j days up; longer series are one-column stacks, viewed in place.  Each column's
ranks are offset by the column times hi + 1, so one ``bincount`` per duration
histograms every series of the stack.  A full stack is scored before the next
series is taken, and dropped before the next stack is read, so a suite holds
one stack of series, not its whole input: fed by the panel reader, a
``backtest`` of 1,000 files holds about 31 KiB of returns, not 2.4 MB.  A rank
count is an exact integer whatever the other columns of its stack hold, so the
order the series arrive in changes the number of passes, never a count; the
rows are sorted by asset id once every stack is scored.

The pass works in tiles of at most ``_CHUNK_ELEMS`` compares (up to 255 lags
by up to 2,048 cells, a cell being one day of one series), so its scratch does
not grow with the series or the stack: the tile's booleans (64 KiB), 17 bytes
per cell of a block (an 8-byte rank, the 8-byte buffer that adds a tile's uint8
counts to it, and those counts; 34 KiB), the counts, 8 (n + 1) bytes per series
and duration, a bincount of 8 (hi + 1) bytes per series, and 8 (2 hi - lo - 1)
bytes of padded lags per series for the first hi - lo days (7.7 KiB on
``DEFAULT_GRID``).  The compares run with NumPy's ufunc buffer set to one tile
row: at its default of 8,192 elements NumPy copied a tile whose rows are
shorter than about 4,096 cells through up to 128 KiB of buffers, whether or not
the next returns were broadcast to the tile's shape first, and took 1.5-3x as
long.  The budgets the tests hold, under tracemalloc: one ``run_suite`` over a
5,000-day asset on ``DEFAULT_GRID`` peaks at no more than 160 KiB (measured
135 KiB; the TCE side alone peaks at 132 KiB, below, and the rank pass at 123
KiB), and one over 1,000 series of 300 returns at 250:0.99 peaks no more than
192 KiB above the report it returns (measured 152 KiB, with a 13-series stack),
and no more than 256 KiB when the panel reader feeds it 1,000 such price files
(measured 191 KiB; holding the series would add 2.4 MB).
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
NumPy's buffer of up to 8,192 elements (40 KiB for the divide by 1..n).  Neither
broadcasting 1..n to the table's shape first nor a buffer of one row avoided it
cheaply: the first still allocated it, and the second made the divide of a
500 x 10 table 5x slower.  ``run_suite`` builds a duration's table only for a
series of at least 2n returns, and drops it before the next table or rank pass:
two live tables would break the budget.  Its walk holds one table, rebuilt when
the duration changes; the specs are sorted by duration first, so that is one
table per (series, duration).
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InputError, _integer, _Record, _reject_repeats
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


class RiskSpec(_Record):
    """One backtest configuration: window length, level and conventions.

    ``strict_violation`` selects return < -VaR as the violation event (and the
    matching strict tail conditioning); the non-strict variant uses <=.
    """

    __slots__ = ("duration_n", "level", "conv", "strict_violation")

    def __init__(
        self,
        duration_n: int,
        level: Level,
        conv: QuantileConvention = QuantileConvention.LARGEST,
        strict_violation: bool = True,
    ) -> None:
        n = _integer(duration_n)
        if n is None or n < 2:
            raise InputError(f"duration must be an integer >= 2, got {duration_n!r}")
        if not isinstance(conv, QuantileConvention):
            raise InputError(f"unknown quantile convention: {conv!r}")
        if not isinstance(strict_violation, (bool, np.bool_)):
            raise InputError(f"strict_violation must be a bool, got {strict_violation!r}")
        super().__init__(n, _as_level(level), conv, bool(strict_violation))

    def label(self) -> str:
        """Row label in the reporting tables, e.g. '250,95%'."""
        return f"{self.duration_n},{self.level.alpha * 100:g}%"


def parse_label(label: str) -> tuple[int, float]:
    """Read a report label back: '250,95%' -> (250, 0.95).

    Only a label ``RiskSpec.label()`` can write is read: a duration of at least 2 and a percentage in (0, 100]
    that render back to ``label`` itself, so ``20,95%%``, ``+20,95%``, ``2_0,95%`` and ``20,nan%`` are refused.
    So is a duration beyond the float range, which ``quantile_index`` refuses and a regression cannot fit.
    """
    duration_text, _, percent_text = label.partition(",")
    try:
        duration, percent = int(duration_text), float(percent_text[:-1])
        float(duration)  # OverflowError beyond the float range
    except (ValueError, OverflowError):
        pass
    else:
        if duration >= 2 and 0.0 < percent <= 100.0 and f"{duration},{percent:g}%" == label:
            return duration, percent / 100.0
    raise InputError(f"invalid spec label {label!r}, expected e.g. '250,95%'")


# The result rows validate nothing, so they are NamedTuples, read by field name and
# equal to a tuple of the same values; RiskSpec, which checks its fields, is a
# ``_Record``.  Neither is a frozen dataclass, which generates and compiles its
# methods at import: a six-field class took 0.7 ms to build, a NamedTuple 0.08 ms
# and a ``_Record`` 0.009 ms, on a 2-CPU x86 host.
class VarBacktestRow(NamedTuple):
    asset_id: str
    spec: RiskSpec
    evaluation_days: int
    violations: int
    observed_rate: float
    relative_error: float


class TceBacktestRow(NamedTuple):
    asset_id: str
    spec: RiskSpec
    blocks_total: int
    blocks_nonexistent: int
    nonexistence_rate: float
    mean_error: float | None
    blocks_undefined_prediction: int = 0


class SkippedPair(NamedTuple):
    asset_id: str
    spec: RiskSpec
    kind: str  # "var" or "tce"
    reason: str


class SuiteReport(NamedTuple):
    asset_ids: tuple[str, ...]
    specs: tuple[RiskSpec, ...]
    var_rows: tuple[VarBacktestRow, ...]
    tce_rows: tuple[TceBacktestRow, ...]
    skips: tuple[SkippedPair, ...]


def _window_chunks(
    block: np.ndarray, lo: int, hi: int, step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(windows, next returns) of every column for the evaluation days lo, lo + 1, ..., ``step`` days at a time.

    ``block`` holds one series per column, so a day's returns are one row.  Each
    window holds the hi returns before its day, oldest first; before day hi, +inf
    stands in for the days before the first return.  Only those hi - lo days read
    a padded copy, of 2 hi - lo - 1 rows; the rest read ``block``.  A padded lag j
    of day t < j never reaches a count: the rank pass adds it only into the ranks
    of durations n >= j > t, which skip day t.
    """
    parts = [(block[:-1], block[hi:])]
    if lo < hi:
        head = np.concatenate((np.full((hi - lo, block.shape[1]), np.inf), block[:hi - 1]))
        parts.insert(0, (head, block[lo:hi]))
    for source, realized in parts:
        # sliding_window_view's view without its argument checks: on universe_screen,
        # 77 views a run, sliding_window_view itself added 0.1-0.2 MB of peak RSS
        day_stride, column_stride = source.strides
        windows = as_strided(
            source, shape=(*realized.shape, hi), strides=(day_stride, column_stride, day_stride), writeable=False
        )
        for start in range(0, len(realized), step):
            yield windows[start:start + step], realized[start:start + step]


def _violation_counts(block: np.ndarray, durations: Sequence[int], strict: bool) -> list[np.ndarray]:
    """Per duration n (ascending, each shorter than the series in ``block``'s
    columns): entry [c, k] counts the evaluation days t >= n whose return in
    column c violates q_(k) of its n-day window.

    One pass over lags 1..hi serves every duration and column, as the module
    docstring says.
    """
    lo, hi = durations[0], durations[-1]
    columns = block.shape[1]
    compare = np.less_equal if strict else np.less
    # A tile runs along up to 2,048 cells (day, column) at the default
    # _CHUNK_ELEMS: on a 2-CPU x86 host, with the buffer below, a tile of 65,536
    # compares took 26, 20, 17 and 19 us in rows of 512, 1,024, 2,048 and 4,096
    # cells.  At most 255 lags, so a tile's count per cell fits a uint8.
    days = min(len(block) - lo, max(1, _CHUNK_ELEMS // 32 // columns))
    cells = days * columns
    lags = min(255, max(1, _CHUNK_ELEMS // cells))
    tile = np.empty(lags * cells, dtype=bool)
    tile_counts = np.empty(cells, dtype=np.uint8)
    ranks = np.empty(cells, dtype=np.intp)
    # column c's ranks start at c (hi + 1), so one bincount histograms every column
    width = hi + 1
    column_bins = np.arange(0, columns * width, width)
    rank_counts = [np.zeros((columns, n + 1), dtype=np.int64) for n in durations]
    day = lo
    for windows, realized in _window_chunks(block, lo, hi, days):
        by_lag = windows.transpose(2, 0, 1)[::-1]  # row j: the returns j + 1 days before each cell
        rank = ranks[:realized.size].reshape(realized.shape)
        rank[...] = column_bins
        done = 0
        tile_rank = tile_counts[:rank.size].reshape(rank.shape)
        # a ufunc buffer of one tile row (rounded up to the multiple of 16 NumPy
        # requires) keeps the compares in place; see the module docstring
        previous_bufsize = np.setbufsize(-(-rank.size // 16) * 16)
        try:
            for n, counts in zip(durations, rank_counts):
                for j in range(done, n, lags):
                    lagged = by_lag[j:min(j + lags, n)]
                    hits = compare(lagged, realized, out=tile[:lagged.size].reshape(lagged.shape))
                    rank += hits.view(np.uint8).sum(axis=0, dtype=np.uint8, out=tile_rank)
                done = n
                bins = np.bincount(rank[max(0, n - day):].ravel(), minlength=columns * width)
                counts += bins.reshape(columns, width)[:, :n + 1]
        finally:
            np.setbufsize(previous_bufsize)
        day += len(realized)
    return [np.cumsum(counts, axis=1, out=counts) for counts in rank_counts]


def _var_counts(stack: Sequence[ReturnSeries], specs: Sequence[RiskSpec], ks: Sequence[int]) -> list[list[int] | str]:
    """Per spec, in order, with k its entry of ``ks``: each series' count of days that violate q_(k), or the
    stack's VaR length skip.  One pass per strictness ranks the whole stack.

    The series in ``stack`` have one length.
    """
    size = len(stack[0])
    block = stack[0].returns[:, None] if len(stack) == 1 else np.stack([series.returns for series in stack], axis=1)
    counts: dict[tuple[int, bool], np.ndarray] = {}
    for strict in {spec.strict_violation for spec in specs}:
        durations = sorted({
            spec.duration_n for spec in specs if spec.strict_violation == strict and spec.duration_n < size
        })
        if durations:
            for n, by_column in zip(durations, _violation_counts(block, durations, strict)):
                counts[n, strict] = by_column
    return [
        _shortfall(size, spec.duration_n + 1) or counts[spec.duration_n, spec.strict_violation][:, k].tolist()
        for spec, k in zip(specs, ks)
    ]


def _stacks(series_set: Iterable[ReturnSeries]) -> Iterator[list[ReturnSeries]]:
    """Runs of consecutive equal-length series, in the order they arrive, each of at most
    ``_CHUNK_ELEMS // 16`` returns unless it is a single series.

    A full stack is yielded before the next series is taken, and once the caller asks for the next stack
    nothing here holds the last one.
    """
    stack: list[ReturnSeries] = []
    for series in series_set:
        if stack and len(series) != len(stack[0]):
            yield stack
            stack = []
        stack.append(series)
        del series  # the stack alone holds it
        if len(stack) == max(1, _CHUNK_ELEMS // 16 // len(stack[0])):
            yield stack
            stack = []
    if stack:
        yield stack


def _shortfall(size: int, days: int) -> str | None:
    """Why a series of ``size`` returns cannot be scored on ``days`` of them, or None when it can."""
    return f"{size} returns < required {days}" if size < days else None


def _require(series: ReturnSeries, days: int) -> None:
    """Raise InputError unless ``series`` holds at least ``days`` returns."""
    reason = _shortfall(len(series), days)
    if reason:
        raise InputError(reason)


def rolling_var_forecasts(series: ReturnSeries, spec: RiskSpec) -> list[tuple[dt.date, float]]:
    """Daily VaR forecasts as (date, var) pairs, dated by the day being forecast."""
    n = spec.duration_n
    _require(series, n + 1)
    k = quantile_index(n, spec.level, spec.conv)
    chunks = _window_chunks(series.returns[:, None], n, n, max(1, _CHUNK_ELEMS // n))
    quantiles = np.concatenate([np.partition(windows[:, 0], k, axis=1)[:, k] for windows, _ in chunks])
    values = -quantiles + 0.0  # normalize -0.0 entries
    return list(zip(series.dates[n:], values.tolist()))


def _var_row(series: ReturnSeries, spec: RiskSpec, violations: int) -> VarBacktestRow:
    """The VaR row of one pair from its violation count; ``series`` holds more than ``spec.duration_n`` returns."""
    evaluation_days = len(series) - spec.duration_n
    tail_probability = 1.0 - spec.level.alpha
    # in Python, not NumPy: the rates are the floats a row always held, and no NumPy loop
    # that a backtest did not run before pages its code in
    rate = violations / evaluation_days
    return VarBacktestRow(
        series.asset_id, spec, evaluation_days, violations, rate, (rate - tail_probability) / tail_probability
    )


def _tce_blocks(series: ReturnSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole n-day blocks of ``series``, each sorted, and at [i, j] the mean of block i's j + 1 smallest returns.

    ``series`` holds at least 2n returns.
    """
    rows = np.sort(series.returns[:len(series) // n * n].reshape(-1, n), axis=1)
    sizes = np.arange(1.0, n + 1)

    def prefix_means(values: np.ndarray) -> np.ndarray:
        sums = np.cumsum(values, axis=1)
        sums /= sizes
        return sums

    return rows, _finite_mean(prefix_means, rows)


def _tce_result(
    series: ReturnSeries, spec: RiskSpec, k: int, table: tuple[np.ndarray, np.ndarray]
) -> TceBacktestRow:
    """The TCE backtest row of one pair, read off the ``_tce_blocks`` of its series and duration.

    k is the spec's ``quantile_index``.  Raises InputError when no block has a defined prediction.
    """
    rows, means = table
    in_tail = np.less if spec.strict_violation else np.less_equal
    q = rows[:-1, k:k + 1]
    window_tail = in_tail(rows[:-1], q).sum(axis=1)
    hits = in_tail(rows[1:], q).sum(axis=1)
    evaluated = int(np.count_nonzero(window_tail))
    if evaluated == 0:
        raise InputError(
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
    _require(series, spec.duration_n + 1)  # before quantile_index, which refuses a duration beyond the float range
    [counts] = _var_counts([series], [spec], [quantile_index(spec.duration_n, spec.level, spec.conv)])
    return _var_row(series, spec, counts[0])


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
    _require(series, 2 * n)
    return _tce_result(series, spec, quantile_index(n, spec.level, spec.conv), _tce_blocks(series, n))


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

    ``series_set`` may be any iterable, and is consumed once: the series are
    scored a stack at a time as they arrive, and none is kept, so a generator
    such as the panel reader is never held whole.  The checks run in this
    order: the specs first (at least one, each with an order statistic, which
    a duration beyond the float range has not, and labels that name them
    alone), before any series is taken; then, after the pass, at least one
    series and no repeated asset id.
    """
    spec_list = list(dict.fromkeys(specs))
    if not spec_list:
        raise InputError("at least one risk spec is required")
    spec_list.sort(key=lambda sp: (sp.duration_n, sp.level.alpha, sp.conv.value, sp.strict_violation))
    ks = [quantile_index(spec.duration_n, spec.level, spec.conv) for spec in spec_list]
    _check_labels(spec_list)

    ids: list[str] = []
    var_rows: list[VarBacktestRow] = []
    tce_rows: list[TceBacktestRow] = []
    skips: list[SkippedPair] = []
    for stack in _stacks(series_set):
        # a stack's series have one length, so a spec's length skips, each one reason string, are the stack's;
        # stack_specs holds (spec, k, the stack's violation counts or VaR skip, TCE skip) of each spec, in order
        tce_skips = [_shortfall(len(stack[0]), 2 * spec.duration_n) for spec in spec_list]
        stack_specs = list(zip(spec_list, ks, _var_counts(stack, spec_list, ks), tce_skips))
        for column, series in enumerate(stack):
            asset_id = series.asset_id
            ids.append(asset_id)
            table = table_n = None  # the TCE table of duration table_n, built by the first pair that needs it
            for spec, k, var_counts, tce_skip in stack_specs:
                if isinstance(var_counts, str):
                    skips.append(SkippedPair(asset_id, spec, "var", var_counts))
                else:
                    var_rows.append(_var_row(series, spec, var_counts[column]))
                if tce_skip:
                    skips.append(SkippedPair(asset_id, spec, "tce", tce_skip))
                    continue
                if table_n != spec.duration_n:
                    table = None  # the specs come by duration: one table per duration, freed before the next
                    table, table_n = _tce_blocks(series, spec.duration_n), spec.duration_n
                try:
                    tce_rows.append(_tce_result(series, spec, k, table))
                except InputError as skip:  # the inputs are checked: no block has a defined prediction
                    skips.append(SkippedPair(asset_id, spec, "tce", str(skip)))
        del stack, series, table  # not alive while the next stack is read or ranked
    if not ids:
        raise InputError("at least one return series is required")
    _reject_repeats(ids, "asset ids")
    # each asset's rows are contiguous and in spec order, so a stable sort by asset id gives the sorted tables
    for rows in (var_rows, tce_rows, skips):
        rows.sort(key=lambda row: row.asset_id)
    return SuiteReport(
        asset_ids=tuple(sorted(ids)),
        specs=tuple(spec_list),
        var_rows=tuple(var_rows),
        tce_rows=tuple(tce_rows),
        skips=tuple(skips),
    )
