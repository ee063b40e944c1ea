"""CSV ingestion of dated price and return series.

Files are two-column CSV with an exact header (``date,price`` or
``date,return``), ISO dates, strictly increasing, one row per trading day.
Every rejection names the 1-based number of the first bad line; nothing is
silently dropped, reordered or deduplicated.

Five owners read a file, one job each.  ``_read_text`` reads it as UTF-8 with
universal newlines, the text ``Path.read_text`` gives, from one unbuffered
binary read and one decode (9 against 19 us a 5 KB file, 2-CPU x86 host), and
names the line of a byte that does not decode.  The csv
reader, ``_csv_records``, owns csv text, error tables included: the byte-order
mark, csv errors, field counts and the physical line each record starts on.
The fast path, ``_parse_plain``, owns the format of a plain file: the exact
header, then ``YYYY-MM-DD,<value>`` lines each ending in a newline, checked by
C-level passes over the whole text.  It converts the values to one float64
array, keeps the checked date column as the file's dates, and turns the file
away unless its series
type accepts both: the dates must increase, and the values pass the type's own
checks, finite and, for prices, none at or below zero.  So a plain file is one
its series type accepts.  The series types, ``PriceSeries`` and
``ReturnSeries``, are defined here and own the values through one check both
share, ``_check_series``: a non-empty one-line asset id, finite values, one
date per value and strictly increasing dates, to which ``PriceSeries`` adds
price positivity.  The row loop, ``_row_loop``, reads the records one by one
and writes every line-numbered value message.  Quoted or padded cells, a padded
header, blank lines and raw carriage returns take it, and so does every file
whose values or dates a series type refuses.

Text becomes a series one way.  ``_parse`` is the fast path, else the row
loop, and the only caller of either; each gives a ``_Dates`` and a read-only
float64 array, which a series holds as it is, not a copy.  ``parse_prices``
and ``parse_returns`` wrap that pair in their series type.  ``_returns`` is
the one maker of returns from checked prices, for ``to_returns`` and the panel
reader alike: it checks the asset id, then that there are at least 2 prices, and takes
the ratio or its log as one read-only array on the prices' dates' ``tail``.

The dates a series holds are a ``_Dates``, a read-only sequence of strictly
increasing dates.  Dates given as objects are walked once, when constructed,
and kept as a tuple.  Dates read from a plain file are kept as its checked date
column, the ISO cells joined by ``","``, and their ``dt.date`` tuple is built
from that text on first use (a backtest reads no date, so it builds none);
that builder is the one place the column text becomes kept date objects.
``_check_series`` trusts the type, and the ``tail`` of one, the dates of the
returns formed from prices on it, is the same text one date on, not walked or
copied.  So dates are walked once, whatever number of series hold them.  Dates
with a tail build only their first date and take the tail's objects for the
rest, and a tail taken once its dates are built is a slice of their tuple, so
prices and their returns share each date object whichever is read first.

``_read_panel`` reads the files of one backtest, in the order given, yielding
each file's series as soon as it is converted, and owns their calendar for
that one read: the ``_Dates`` of the last plain file it read.  Each chunk's
date cells, joined the same way, are compared with the calendar's text at the
same offset, and no date object is built while they match; a whole match
returns the calendar itself, so every series on it holds the same dates and,
for returns of prices, the same tail.  From the first chunk that differs, each
chunk's cells are converted to check them and the objects dropped, and the
order is checked on the text, the boundary with the last matched date
included: once the prefix regex and the conversion have passed them,
fixed-width ``YYYY-MM-DD`` cells sort as their dates do.  The file's date
column then becomes the calendar; if only its first date differs, it takes the
old calendar's tail, found by comparing the text after the first date, so
returns of prices on either hold one dates object.
Two paths with one stem, which would give one asset id, are refused before the
first read.  Each file is converted and checked before the next is read, on
the one path: ``_parse`` with the calendar, then, for prices, ``_returns``.
The file becomes one ``ReturnSeries`` that owns the read-only array, not a
copy; no ``PriceSeries`` is built.  The parse has checked every value, so what
is left to fail is what the file gives alone too, in the same order: an asset
id that spans lines, a single price, a ratio that overflowed.  A plain file's
dates become the calendar; a file the fast path turns away is read by the row
loop from the text already read, once, and leaves the calendar as it was.
Each file is read once, so an input can be a pipe or a
FIFO, and no file is read after the first bad one, which raises the error it
raises alone.  The reader holds no series, no returns and no text of a file
once it has yielded that file's series, so a caller that scores and drops the
series as they come, as ``run_suite`` does, never holds the whole panel.  The
public functions share no calendar between calls.  A calendar hit relies on the
line-prefix regex below:
``date,return\\n2020-01-01\\n5,2020-01-02,7\\n`` has as many commas as newlines
and even cells equal to the calendar 2020-01-01, 2020-01-02, and only the regex
sends it to the row loop.

The fast path splits the body in line-aligned chunks of about
``_CHUNK_CHARS`` characters, which bounds its live cell strings, about two a
line, whose pages CPython keeps resident once freed; beside them it holds the
values array and, off the calendar, the date column text, below the row loop's.

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

import datetime as dt
import enum
import io
import math
import operator
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, _reject_repeats
from .measures import _checked_array

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# A newline not followed by an ASCII-digit ``YYYY-MM-DD,`` line prefix.  Anchoring
# on the literal newline rather than ``^`` lets the engine skip from line to line;
# unrolled classes ran 1.5x as fast as ``[0-9]{4}`` on a 5,000-line file.
_NOT_PLAIN_ROW = re.compile(r"\n(?![0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9],)")

# Body characters split per pass of the fast path, rounded up to a line end.  The cell strings of a pass, about
# two a line, keep their pages resident once freed: 8 Ki chunks read 0.9 MB below 64 Ki on 2 x 50,000 returns.
_CHUNK_CHARS = 1 << 13


class ReturnMethod(enum.Enum):
    SIMPLE = "simple"
    LOG = "log"


class _Dates(Sequence):
    """Strictly increasing dates, read-only: ``len``, iteration, indexing and ``==`` as on their tuple.

    Dates given as objects are walked once, when constructed, and kept as a tuple.  Dates read from a plain
    file are its checked date column, the ``YYYY-MM-DD`` cells joined by ``","``, from the one at ``offset``;
    their tuple is built from that text on first use and kept.  A slice is a tuple; ``hash`` and ``repr`` are
    the tuple's, and an equal tuple or ``_Dates`` compares equal from either side.
    """

    __slots__ = ("_column", "_offset", "_dates", "_tail")

    def __init__(self, dates: Iterable[dt.date]) -> None:
        dates = tuple(dates)
        if not all(map(operator.lt, dates, dates[1:])):
            prev, curr = next((prev, curr) for prev, curr in zip(dates, dates[1:]) if not prev < curr)
            raise InputError(f"dates must be strictly increasing: {curr} does not follow {prev}")
        self._column, self._offset, self._dates, self._tail = None, 0, dates, None

    @classmethod
    def _of(cls, column: str | None, offset: int = 0, dates: tuple[dt.date, ...] | None = None) -> _Dates:
        """Dates already checked: the cells of ``column`` from the one at ``offset``, or ``dates``; no walk."""
        made = cls.__new__(cls)
        made._column, made._offset, made._dates, made._tail = column, offset, dates, None
        return made

    def _built(self) -> tuple[dt.date, ...]:
        """The tuple of these dates, built from the column text on first use.

        Dates with a tail build only their first date and take the tail's objects for the rest, so prices and
        their returns share each date object whichever is read first.  The tail holds no link back: with the
        parent's cached ``_tail`` that would be a reference cycle, freed only by the cyclic collector.
        """
        if self._dates is None:
            column, tail = self._column, self._tail
            cells = range(11 * self._offset, len(column), 11)
            head = tuple(dt.date.fromisoformat(column[i:i + 10]) for i in (cells if tail is None else cells[:1]))
            self._dates = head if tail is None else head + tail._built()
        return self._dates

    @property
    def tail(self) -> _Dates:
        """These dates less the first, the dates of returns of prices on them; the same object on every call.

        Once these dates' tuple is built the tail is a slice of it, else the same column text one date on.
        """
        if self._tail is None:
            if self._dates is not None:
                self._tail = _Dates._of(None, 0, self._dates[1:])
            else:
                self._tail = _Dates._of(self._column, self._offset + 1)
        return self._tail

    def __len__(self) -> int:
        if self._dates is not None:
            return len(self._dates)
        return max(0, (len(self._column) + 1) // 11 - self._offset)  # 11 characters a date, less the last comma

    def __getitem__(self, index: int | slice) -> dt.date | tuple[dt.date, ...]:
        return self._built()[index]

    def __iter__(self) -> Iterator[dt.date]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Dates):
            other = other._built()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


_NO_CALENDAR = _Dates._of("")


def _check_asset_id(asset_id: str) -> None:
    """Refuse an ``asset_id`` that is empty or spans lines."""
    if not asset_id:
        raise InputError("asset_id must be non-empty")
    if asset_id.splitlines() != [asset_id]:
        raise InputError(f"asset_id must be one line, got {asset_id!r}")


def _check_series(series: PriceSeries | ReturnSeries, field: str) -> np.ndarray:
    """Check ``series``; store its dates as ``_Dates`` and its ``field`` values read-only; return the values."""
    asset_id = series.asset_id
    _check_asset_id(asset_id)
    values = _checked_array(getattr(series, field), f"{asset_id}: {field}")
    dates = series.dates if isinstance(series.dates, _Dates) else tuple(series.dates)
    if values.size != len(dates):
        raise InputError(f"{asset_id}: got {len(dates)} dates but {values.size} {field}")
    if not isinstance(dates, _Dates):
        try:
            dates = _Dates(dates)
        except InputError as exc:
            raise InputError(f"{asset_id}: {exc}") from None
    object.__setattr__(series, field, values)
    object.__setattr__(series, "dates", dates)
    return values


@dataclass(frozen=True)
class PriceSeries:
    """Positive daily prices on strictly increasing dates."""

    asset_id: str
    dates: Sequence[dt.date]
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
    dates: Sequence[dt.date]
    returns: np.ndarray

    def __post_init__(self) -> None:
        _check_series(self, "returns")

    def __len__(self) -> int:
        return int(self.returns.size)


def _read_text(path: Path) -> str:
    """The text of ``path`` as ``Path.read_text(encoding="utf-8")`` reads it, universal newlines included."""
    with open(path, "rb", buffering=0) as handle:
        data = handle.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(exc.object[:exc.start + 1].splitlines())
        raise InputError(f"{path}: line {line}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _parse_plain(text: str, value_column: str, calendar: _Dates) -> tuple[_Dates, np.ndarray] | None:
    """The dates and read-only values of ``text`` if it is a plain file that its series type accepts, else None.

    Accepted means increasing dates and finite values, positive for prices.  ``calendar`` holds the date column
    of the last plain file read, and the dates are ``calendar`` itself when the file's date column is its.
    """
    text = text.lstrip("\ufeff")
    header = f"date,{value_column}\n"
    start, end = len(header), len(text)
    rows = text.count("\n", start)
    if (
        end == start
        or not text.startswith(header)
        or not text.endswith("\n")
        or "\r" in text
        or text.count(",", start) != rows
        or _NOT_PLAIN_ROW.search(text, start - 1, end - 1)
    ):
        return None
    column = calendar._column
    pieces: list[str] = []  # each chunk's date cells, joined by ","
    matched = True  # while every chunk matches ``column``
    last = ""  # the last date cell read, which the next chunk's first must follow
    values = np.empty(rows)
    done = 0
    try:
        while start < end:
            stop = text.find("\n", min(start + _CHUNK_CHARS, end - 1)) + 1
            cells = text[start:stop].replace("\n", ",").split(",")
            days = cells[0:-1:2]
            pieces.append(",".join(days))
            # every date cell is 10 characters, so the chunk's first date sits at 11 per date before it
            matched = matched and column.startswith(pieces[-1], 11 * done)
            # off the calendar, each cell must be a date (a date is true; a bad cell raises ValueError), and the
            # prefix check makes every cell fixed-width ``YYYY-MM-DD``, whose text sorts as its date does; the
            # dates themselves are dropped, to be built from the column if ever read
            if not matched and not (
                all(map(dt.date.fromisoformat, days)) and last < days[0] and all(map(operator.lt, days, days[1:]))
            ):
                return None
            last = days[-1]
            values[done:done + len(days)] = np.fromiter(map(float, cells[1::2]), float, len(days))
            done += len(days)
            start = stop
        # the series types' own checks; a min/max compare ran NumPy loops nothing else in a backtest runs,
        # and their code, paged in, raised universe_screen's peak RSS by 0.07-0.14 MB
        if not np.isfinite(values).all() or value_column == "price" and (values <= 0.0).any():
            return None
        values.flags.writeable = False  # so a series holds this array, not a copy of it
        if matched and rows == len(calendar):
            return calendar, values
        read = _Dates._of(",".join(pieces))
        # only the first date differs: returns of prices on either hold one dates object
        if value_column == "price" and len(read._column) == len(column) and read._column[11:] == column[11:]:
            read._tail = calendar.tail
        return read, values
    except ValueError:  # a cell's conversion
        return None


def _parse(
    text: str, value_column: str, asset_id: str, calendar: _Dates = _NO_CALENDAR
) -> tuple[_Dates, np.ndarray]:
    """The dates and read-only values of ``text``: the fast path's when it accepts the file, else the row loop's,
    which raises the file's error."""
    return _parse_plain(text, value_column, calendar) or _row_loop(text, value_column, asset_id)


def _returns(asset_id: str, dates: _Dates, prices: np.ndarray, method: ReturnMethod) -> ReturnSeries:
    """The returns of checked ``prices`` on ``dates``, each dated by the later day.

    The asset id is checked before the count of prices, as a price series' own check would.  An overflowed
    ratio, or the log of one that underflowed to 0, fails the return series' check.
    """
    _check_asset_id(asset_id)
    if prices.size < 2:
        raise InputError(f"{asset_id}: need at least 2 prices to form returns, got {prices.size}")
    with np.errstate(over="ignore", divide="ignore"):
        ratios = prices[1:] / prices[:-1]
        if method is ReturnMethod.SIMPLE:
            ratios -= 1.0
        elif method is ReturnMethod.LOG:
            np.log(ratios, out=ratios)
        else:
            raise InputError(f"unknown return method: {method!r}")
    ratios.flags.writeable = False  # so the series holds this array, not a copy of it
    return ReturnSeries(asset_id, dates.tail, ratios)


def _read_panel(paths: Sequence[Path], method: ReturnMethod | None) -> Iterator[ReturnSeries]:
    """Yield the return series of the files at ``paths``, in order: of prices by ``method``, or of returns when
    it is None.

    Two paths with one stem are refused before any file is read.  Each file is read once, and converted and
    checked before the next is read, by the path ``parse_returns``, or ``parse_prices`` and ``to_returns``, take:
    ``_parse`` with the calendar, then, for prices, ``_returns``.  So each series is the one its file alone gives,
    and the first bad file raises the error it raises alone.  A series is yielded as soon as its file is
    converted, and nothing here holds it, its returns or its file's text while the next file is read: the caller
    decides what lives on.
    """
    _reject_repeats((path.stem for path in paths), "asset ids")
    value_column = "return" if method is None else "price"
    calendar = _NO_CALENDAR
    for path in paths:
        # the text is dropped before the yield, so two texts are never held at once: with both, tick_ties' peak
        # RSS (2 x 50,000 lines) read 36.2-36.4 MB at six checkout paths, without 35.5-35.7 MB
        dates, values = _parse(_read_text(path), value_column, path.stem, calendar)
        if dates._column is not None:  # a plain file's dates hold its date column, which the next is compared with
            calendar = dates
        if method is None:
            yield ReturnSeries(path.stem, dates, values)
        else:
            yield _returns(path.stem, dates, values, method)
        del dates, values  # so no name here holds a yielded series' returns while the next file is read


def _csv_records(text: str, source: str) -> Iterator[tuple[int, list[str]]]:
    """``(line it starts on, cells)`` for each csv record; each after the header has the header's field count."""
    import csv  # imported here: a backtest of plain files never reaches the row loop

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


def _row_loop(text: str, value_column: str, asset_id: str) -> tuple[_Dates, np.ndarray]:
    """The dates and the read-only values of ``text``, read one csv record at a time; the writer of every
    line-numbered header and value error."""
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
    array = np.array(values)
    array.flags.writeable = False
    return _Dates._of(None, 0, tuple(dates)), array


def parse_prices(text: str, asset_id: str) -> PriceSeries:
    """Parse ``date,price`` CSV content into a validated PriceSeries."""
    return PriceSeries(asset_id, *_parse(text, "price", asset_id))


def parse_returns(text: str, asset_id: str) -> ReturnSeries:
    """Parse ``date,return`` CSV content into a validated ReturnSeries."""
    return ReturnSeries(asset_id, *_parse(text, "return", asset_id))


def to_returns(prices: PriceSeries, method: ReturnMethod = ReturnMethod.SIMPLE) -> ReturnSeries:
    """Convert a price series to daily returns, each dated by the later day.

    Simple returns are P_t / P_{t-1} - 1; log returns are ln(P_t / P_{t-1}).
    """
    return _returns(prices.asset_id, prices.dates, prices.prices, method)
