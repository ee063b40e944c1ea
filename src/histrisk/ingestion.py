"""CSV ingestion of dated price and return series.

Files are two-column CSV with an exact header (``date,price`` or
``date,return``), ISO dates, strictly increasing, one row per trading day.
Every rejection names the 1-based number of the first bad line; nothing is
silently dropped, reordered or deduplicated.

Four owners read a file, one job each.  The reader, ``_csv_records``, owns csv
text, error tables included: the byte-order mark, csv errors, field counts and
the physical line each record starts on.  The fast path, ``_parse_plain``, owns
the format of a plain file: the exact header, then ``YYYY-MM-DD,<value>`` lines
each ending in a newline, checked by C-level passes over the whole text,
converted by one ``map`` per column.  The series types, ``PriceSeries`` and
``ReturnSeries``, are defined here and own the values through one check both
share, ``_check_series``: a non-empty one-line asset id, finite values, one date per
value and strictly increasing dates, to which ``PriceSeries`` adds price
positivity.  The fast path returns its series, or None when the format or the
type rejects them.  The row loop, ``_row_loop``, then reads the records and
writes every line-numbered value message.  Quoted or padded cells, a padded
header, blank lines and raw carriage returns take it.

The fast path splits the body in line-aligned chunks of about
``_CHUNK_CHARS`` characters, so its transient strings stay near 64 Ki
characters whatever the file's length, and its peak memory is that of the
two result lists, below the row loop's.

Files of a panel share one trading calendar, so the fast path keeps the
calendar of the last plain file a series type accepted in one private slot,
``_calendar``: the date column text (the date cells joined by ``","``), its
dates, and those dates less the first.  Each chunk's date cells, joined the same
way, are compared with the slot's text at the same offset, and no date object is
built while they match; a whole match passes the slot's tuple itself, so every
series on one calendar holds the same dates.  From the first chunk that differs,
the matched dates are copied from the slot and the rest converted.
``_check_series`` skips the date-order walk for the slot's dates and its tail,
which passed it when first accepted, and ``to_returns`` dates a series on the
slot by its tail.  The slot lives as long as the process and holds one
calendar: 11 characters per date of text plus a tuple of the tail, beside dates
its last series holds anyway.  A thread reads it once per call and replaces it
whole, so a race between threads costs a miss, never a wrong date.  A hit
relies on the line-prefix regex below: ``date,return\\n2020-01-01\\n5,2020-01-02,7\\n``
has as many commas as newlines and even cells equal to the calendar
2020-01-01, 2020-01-02, and only the regex sends it to the row loop.

The format checks are three passes that each run in C: no ``\\r`` anywhere
(``float`` reads ``\\r1.5``), as many commas as newlines in the body, and a
regex for the date prefix ``YYYY-MM-DD,`` of every line; a ``"`` fails the
header, the prefix or ``float``.  The prefix gives each line at least one
comma, so equal counts mean exactly one: together they accept exactly the files
of the one regex that matched every whole line before them (400,000 fuzzed
texts, no difference), and on 1,000 301-line files they took 30-37 ms against
its 39-44 ms (best and median of 9, 2-CPU x86 host).  The regex is a negative
lookahead at each newline, not a repeated line group matched over the whole
body: ``re`` keeps a backtracking frame per repetition of a group, which held
16.5 MB on one 50,000-line file.  Possessive quantifiers and atomic groups
avoid that frame, but they need Python 3.11, and histrisk supports 3.10.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator, TypeVar

import numpy as np

from .errors import InputError
from .measures import _checked_array

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# A newline not followed by an ASCII-digit ``YYYY-MM-DD,`` line prefix.  Anchoring
# on the literal newline rather than ``^`` lets the engine skip from line to line.
_NOT_PLAIN_ROW = re.compile(r"\n(?![0-9]{4}-[0-9]{2}-[0-9]{2},)")

# Body characters split per pass of the columnar fast path (rounded up to a line end).
_CHUNK_CHARS = 1 << 16

# The calendar of the last plain file a series type accepted: its date column
# text (the date cells joined by ","), its dates, and those dates less the first.
_calendar: tuple[str, tuple[dt.date, ...], tuple[dt.date, ...]] = ("", (), ())

class ReturnMethod(enum.Enum):
    SIMPLE = "simple"
    LOG = "log"


def _check_series(series: PriceSeries | ReturnSeries, field: str) -> np.ndarray:
    """Check ``series``; store its dates as a tuple and its ``field`` values read-only, and return the values."""
    asset_id = series.asset_id
    if not asset_id:
        raise InputError("asset_id must be non-empty")
    if asset_id.splitlines() != [asset_id]:
        raise InputError(f"asset_id must be one line, got {asset_id!r}")
    values = _checked_array(getattr(series, field), f"{asset_id}: {field}")
    dates = tuple(series.dates)
    if values.size != len(dates):
        raise InputError(f"{asset_id}: got {len(dates)} dates but {values.size} {field}")
    _, shared, tail = _calendar  # each already walked, when it was first accepted
    if dates is not shared and dates is not tail and not all(map(operator.lt, dates, dates[1:])):
        prev, curr = next((prev, curr) for prev, curr in zip(dates, dates[1:]) if not prev < curr)
        raise InputError(f"{asset_id}: dates must be strictly increasing: {curr} does not follow {prev}")
    object.__setattr__(series, field, values)
    object.__setattr__(series, "dates", dates)
    return values


@dataclass(frozen=True)
class PriceSeries:
    """Positive daily prices on strictly increasing dates."""

    asset_id: str
    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        if (_check_series(self, "prices") <= 0.0).any():
            raise InputError(f"{self.asset_id}: prices must be strictly positive")

    def __len__(self) -> int:
        return int(self.prices.size)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated daily returns for one asset, strictly increasing dates."""

    asset_id: str
    dates: tuple[dt.date, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        _check_series(self, "returns")

    def __len__(self) -> int:
        return int(self.returns.size)


_Series = TypeVar("_Series", PriceSeries, ReturnSeries)


def _parse_plain(text: str, value_column: str, asset_id: str, series_type: type[_Series]) -> _Series | None:
    """``text`` as a ``series_type`` if it is a plain file whose values the type accepts, else None."""
    text = text.lstrip("\ufeff")
    header = f"date,{value_column}\n"
    start, end = len(header), len(text)
    if (
        end == start
        or not text.startswith(header)
        or not text.endswith("\n")
        or "\r" in text
        or text.count(",", start) != text.count("\n", start)
        or _NOT_PLAIN_ROW.search(text, start - 1, end - 1)
    ):
        return None
    global _calendar
    column, shared, _ = _calendar
    pieces: list[str] = []  # each chunk's date cells, joined by ","
    dates: list[dt.date] | tuple[dt.date, ...] | None = None  # None while every chunk matches ``column``
    values: list[float] = []
    try:
        while start < end:
            stop = text.find("\n", min(start + _CHUNK_CHARS, end - 1)) + 1
            cells = text[start:stop].replace("\n", ",").split(",")
            days = cells[0:-1:2]
            pieces.append(",".join(days))
            # every date cell is 10 characters, so the chunk's first date sits at 11 per date before it
            if dates is None and not column.startswith(pieces[-1], 11 * len(values)):
                dates = list(shared[:len(values)])
            if dates is not None:
                dates += map(dt.date.fromisoformat, days)
            values += map(float, cells[1::2])
            start = stop
        if dates is None:  # the calendar, or a prefix of it
            dates = shared if len(values) == len(shared) else shared[:len(values)]
        series = series_type(asset_id, dates, values)
    except ValueError:  # a cell's conversion, or the type's InputError
        return None
    if series.dates is not shared:
        _calendar = (",".join(pieces), series.dates, series.dates[1:])
    return series


def _parse(text: str, value_column: str, asset_id: str, series_type: type[_Series]) -> _Series:
    """``text`` as a ``series_type``, by the fast path when it takes the file, else by the row loop."""
    series = _parse_plain(text, value_column, asset_id, series_type)
    return series_type(asset_id, *_row_loop(text, value_column, asset_id)) if series is None else series


def _csv_records(text: str, source: str) -> Iterator[tuple[int, list[str]]]:
    """``(line it starts on, cells)`` for each csv record; each after the header has the header's field count."""
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    line, width = 1, None
    try:
        for cells in reader:
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise InputError(f"{source}: line {line}: expected {width} fields, got {len(cells)}")
            yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"{source}: line {reader.line_num}: {exc}") from None


def _row_loop(text: str, value_column: str, asset_id: str) -> tuple[list[dt.date], list[float]]:
    """Read ``text`` one csv record at a time; the writer of every line-numbered header and value error."""
    records = _csv_records(text, asset_id)
    _, header = next(records, (None, None))
    if header is None:
        raise InputError(f"{asset_id}: line 1: expected header 'date,{value_column}', file is empty")
    if [cell.strip() for cell in header] != ["date", value_column]:
        raise InputError(
            f"{asset_id}: line 1: expected header 'date,{value_column}', got {','.join(header)!r}"
        )
    dates: list[dt.date] = []
    values: list[float] = []
    for line_no, row in records:
        raw_date, raw_value = row[0].strip(), row[1].strip()
        if not _ISO_DATE.match(raw_date):
            raise InputError(f"{asset_id}: line {line_no}: invalid ISO date {raw_date!r}")
        try:
            day = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise InputError(f"{asset_id}: line {line_no}: invalid ISO date {raw_date!r}") from None
        try:
            value = float(raw_value)
        except ValueError:
            raise InputError(f"{asset_id}: line {line_no}: invalid {value_column} {raw_value!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{asset_id}: line {line_no}: non-finite {value_column} {raw_value!r}")
        if dates and day <= dates[-1]:
            raise InputError(
                f"{asset_id}: line {line_no}: date {day} must be after the preceding date {dates[-1]}"
            )
        if value_column == "price" and value <= 0.0:
            raise InputError(f"{asset_id}: line {line_no}: price must be positive, got {value!r}")
        dates.append(day)
        values.append(value)
    if not dates:
        raise InputError(f"{asset_id}: no rows after the header")
    return dates, values


def parse_prices(text: str, asset_id: str) -> PriceSeries:
    """Parse ``date,price`` CSV content into a validated PriceSeries."""
    return _parse(text, "price", asset_id, PriceSeries)


def parse_returns(text: str, asset_id: str) -> ReturnSeries:
    """Parse ``date,return`` CSV content into a validated ReturnSeries."""
    return _parse(text, "return", asset_id, ReturnSeries)


def to_returns(prices: PriceSeries, method: ReturnMethod = ReturnMethod.SIMPLE) -> ReturnSeries:
    """Convert a price series to daily returns, each dated by the later day.

    Simple returns are P_t / P_{t-1} - 1; log returns are ln(P_t / P_{t-1}).
    """
    if len(prices) < 2:
        raise InputError(f"{prices.asset_id}: need at least 2 prices to form returns, got {len(prices)}")
    # an overflowed ratio, or the log of one that underflowed to 0, fails ReturnSeries' finiteness check
    with np.errstate(over="ignore", divide="ignore"):
        ratios = prices.prices[1:] / prices.prices[:-1]
        if method is ReturnMethod.SIMPLE:
            returns = ratios - 1.0
        elif method is ReturnMethod.LOG:
            returns = np.log(ratios)
        else:
            raise InputError(f"unknown return method: {method!r}")
    _, shared, tail = _calendar
    dates = tail if prices.dates is shared else prices.dates[1:]
    return ReturnSeries(asset_id=prices.asset_id, dates=dates, returns=returns)
