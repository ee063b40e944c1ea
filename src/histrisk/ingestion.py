"""CSV ingestion of dated price and return series.

Files are two-column CSV with an exact header (``date,price`` or
``date,return``), ISO dates, strictly increasing, one row per trading day.
Every rejection names the 1-based number of the first bad line; nothing is
silently dropped, reordered or deduplicated.

Three owners read a file, one job each.  The fast path, ``_parse_plain``, owns
the format of a plain file: the exact header, then ``YYYY-MM-DD,<value>``
lines each ending in a newline, checked by one regex and converted by one
``map`` per column.  The series type (``PriceSeries``, ``ReturnSeries``) owns
the values: date order, finiteness and price positivity.  The fast path
returns the type's series, or None when the format or the type rejects them.
The row loop, ``_row_loop``, owns the messages: on None it reads the file one
csv row at a time and writes every line-numbered error.  Quoted or padded
cells, a padded header, blank lines and raw carriage returns all take it.

The fast path splits the body in line-aligned chunks of about
``_CHUNK_CHARS`` characters, so its transient strings stay near 64 Ki
characters whatever the file's length, and its peak memory is that of the
two result lists, below the row loop's.  The format regex is a negative
lookahead at each newline, not a repeated line group matched over the whole
body: ``re`` keeps a backtracking frame per repetition of a group, which
held 16.5 MB on one 50,000-line file.  Possessive quantifiers and atomic
groups avoid that frame, but they need Python 3.11, and histrisk supports
3.10.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import math
import re
from dataclasses import dataclass
from typing import Iterator, TypeVar

import numpy as np

from .errors import InputError
from .backtest import ReturnSeries, checked_series

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# A newline not followed by a ``YYYY-MM-DD,<cell>`` line: ASCII-digit date, and a
# cell free of commas, quotes and carriage returns.  Anchoring on the literal
# newline rather than ``^`` lets the engine skip from line to line.
_NOT_PLAIN_ROW = re.compile(r"\n(?![0-9]{4}-[0-9]{2}-[0-9]{2},[^,\n\"\r]*$)", re.M)

# Body characters split per pass of the columnar fast path (rounded up to a line end).
_CHUNK_CHARS = 1 << 16

_Series = TypeVar("_Series", "PriceSeries", ReturnSeries)


class ReturnMethod(enum.Enum):
    SIMPLE = "simple"
    LOG = "log"


@dataclass(frozen=True)
class PriceSeries:
    """Positive daily prices on strictly increasing dates."""

    asset_id: str
    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        dates, prices = checked_series(self.asset_id, self.dates, self.prices, "prices")
        if np.any(prices <= 0.0):
            raise InputError(f"{self.asset_id}: prices must be strictly positive")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", dates)

    def __len__(self) -> int:
        return int(self.prices.size)


def _parse_plain(text: str, value_column: str, asset_id: str, series_type: type[_Series]) -> _Series | None:
    """``text`` as a ``series_type`` if it is a plain file whose values the type accepts, else None."""
    text = text.lstrip("\ufeff")
    header = f"date,{value_column}\n"
    start, end = len(header), len(text)
    if (
        end == start
        or not text.startswith(header)
        or not text.endswith("\n")
        or _NOT_PLAIN_ROW.search(text, start - 1, end - 1)
    ):
        return None
    dates: list[dt.date] = []
    values: list[float] = []
    try:
        while start < end:
            stop = text.find("\n", min(start + _CHUNK_CHARS, end - 1)) + 1
            cells = text[start:stop].replace("\n", ",").split(",")
            dates += map(dt.date.fromisoformat, cells[0:-1:2])
            values += map(float, cells[1::2])
            start = stop
        return series_type(asset_id, dates, values)
    except ValueError:  # a cell's conversion, or the type's InputError
        return None


def _parse(text: str, value_column: str, asset_id: str, series_type: type[_Series]) -> _Series:
    """``text`` as a ``series_type``, by the fast path when it takes the file, else by the row loop."""
    series = _parse_plain(text, value_column, asset_id, series_type)
    return series_type(asset_id, *_row_loop(text, value_column, asset_id)) if series is None else series


def _csv_rows(text: str, asset_id: str) -> Iterator[list[str]]:
    """The csv rows of ``text``; a csv error, such as a raw carriage return in a line, names its line."""
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{asset_id}: line {reader.line_num}: {exc}") from None


def _row_loop(text: str, value_column: str, asset_id: str) -> tuple[list[dt.date], list[float]]:
    """Read ``text`` one csv row at a time; the only writer of line-numbered errors."""
    reader = _csv_rows(text, asset_id)
    header = next(reader, None)
    if header is None:
        raise InputError(f"{asset_id}: line 1: expected header 'date,{value_column}', file is empty")
    if [cell.strip() for cell in header] != ["date", value_column]:
        raise InputError(
            f"{asset_id}: line 1: expected header 'date,{value_column}', got {','.join(header)!r}"
        )
    dates: list[dt.date] = []
    values: list[float] = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise InputError(f"{asset_id}: line {line_no}: expected 2 fields, got {len(row)}")
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
    ratios = prices.prices[1:] / prices.prices[:-1]
    if method is ReturnMethod.SIMPLE:
        returns = ratios - 1.0
    elif method is ReturnMethod.LOG:
        returns = np.log(ratios)
    else:
        raise InputError(f"unknown return method: {method!r}")
    return ReturnSeries(asset_id=prices.asset_id, dates=prices.dates[1:], returns=returns)
