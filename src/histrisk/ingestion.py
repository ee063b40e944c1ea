"""CSV ingestion of dated price and return series.

Files are two-column CSV with an exact header (``date,price`` or
``date,return``), ISO dates, strictly increasing, one row per trading day.
Every rejection names the 1-based number of the first bad line; nothing is
silently dropped, reordered or deduplicated.

Five owners read a file, one job each.  ``_read_bytes`` reads its bytes, in one
unbuffered binary read; ``_decode`` gives the text ``Path.read_text`` would,
UTF-8 with universal newlines, and names the line of a byte that does not
decode (``_read_text``, the reader of ``regress``, is the two in turn).  The
csv reader, ``_csv_records``, owns csv text, error tables included: the
byte-order mark, csv errors, field counts and the physical line each record
starts on.  The fast path, ``_parse_plain``, owns the format of a plain file,
checked on its UTF-8 bytes: leading byte-order marks, the exact header, then
``YYYY-MM-DD,<value>`` lines each ending in a newline.  It turns the file away
unless its series type accepts the dates and values it read, so a plain file
is one its series type accepts.  The series types, ``PriceSeries`` and
``ReturnSeries``, own the values through one check both share,
``_check_series``.  The row loop, ``_row_loop``, reads the records of a text
one by one and writes every line-numbered value message.  Quoted or padded
cells, a padded header, blank lines and raw carriage returns take it, and so
does every file whose values or dates a series type refuses.

``_parse`` is the only caller of the fast path and the row loop: the fast path
on the bytes, else the row loop on the text, which it asks for only then.  Each
gives a ``_Dates`` and a read-only float64 array, which a series holds as it
is, not a copy.  ``parse_prices`` and ``parse_returns`` encode their text once,
lone surrogates passed through, and hand ``_parse`` the text itself for the row
loop.  ``_returns`` is the one maker of returns from checked prices, for
``to_returns`` and the panel reader alike.

``_read_panel`` reads the files of one backtest in the order given, each once,
so an input can be a pipe or a FIFO, and converts and checks each before it
reads the next, as the public functions would, so a file gets the series or
the error it gets alone and no file is read after the first bad one.  It turns
carriage returns into newlines on the bytes, holds no decoded copy of a plain
file, and decodes a file, whole and as read, only for the row loop, so a file
that is not UTF-8 raises the error its read alone raises.  The fast path
decodes each chunk's date cells, ASCII once the prefix regex has passed them,
and the value cells of a chunk whose cells ``float`` refuses as bytes:
``float`` reads a fullwidth digit, as in ``１２``, or a no-break space from text
alone.  A cell that is not UTF-8 turns the file away.  The reader's calendar is
the checked date column of the last plain file it read, as text; the public
functions share none between calls.  Each chunk's
date cells, joined by ``","``, are compared with it at the same offset, and no
date is converted while they match; on a whole match the file's dates hold the
calendar's string itself, so the files of one calendar share one date column.
From the first chunk that differs, each cell is converted to check it and
dropped, and the order is checked on the text, the boundary with the last
matched date included: once the prefix regex and the conversion have passed
them, fixed-width ``YYYY-MM-DD`` cells sort as their dates do.  A calendar hit
still needs the prefix regex: ``date,return\\n2020-01-01\\n5,2020-01-02,7\\n``
has as many commas as newlines and even cells equal to the calendar.

The fast path splits the body in line-aligned chunks of about ``_CHUNK_CHARS``
bytes, which bounds its live cells, about two a line, whose pages CPython keeps
resident once freed.  Its format checks are three passes that each run in C:
no ``\\r`` anywhere (``float`` reads ``\\r1.5``), as many commas as newlines in
the body, and a regex for the date prefix ``YYYY-MM-DD,`` of every line; a
``"`` fails the header, the prefix or ``float``.  The prefix gives each line at
least one comma, so equal counts mean exactly one.  The regex is a negative
lookahead at each newline, not a repeated line group matched over the whole
body, for which ``re`` keeps a backtracking frame per line; the possessive
quantifiers and atomic groups that avoid that frame need Python 3.11.
"""

from __future__ import annotations

import datetime as dt
import enum
import io
import math
import operator
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .errors import InputError, _reject_repeats
from .measures import _ArrayRecord, _checked_array

_ISO_DATE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$")  # ASCII digits: ``\d`` matches any Unicode digit

# A newline not followed by an ASCII-digit ``YYYY-MM-DD,`` line prefix.  Anchoring
# on the literal newline rather than ``^`` lets the engine skip from line to line;
# unrolled classes ran 1.5x as fast as ``[0-9]{4}`` on a 5,000-line file.
_NOT_PLAIN_ROW = re.compile(rb"\n(?![0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9],)")

# Body bytes split per pass of the fast path, rounded up to a line end.  The cells of a pass, about two a line,
# keep their pages resident once freed, so a larger chunk's cells stay in the reader's peak RSS.
_CHUNK_CHARS = 1 << 13

_BOM = "\ufeff".encode()


class ReturnMethod(enum.Enum):
    SIMPLE = "simple"
    LOG = "log"


class _Dates(Sequence):
    """Strictly increasing dates, read-only: ``len``, iteration, indexing and ``==`` as on their tuple.

    Dates given as objects are walked once, when constructed, and kept as a tuple; each must be a ``dt.date``
    and not a ``dt.datetime``.  Dates read from a plain file are its checked date column, the ``YYYY-MM-DD``
    cells joined by ``","``, from the one at ``offset``; their tuple is built from that text on first use and
    kept, in ``_built`` alone (a backtest reads no date, so it builds none), and their ``tail`` is that text one
    date on.  A slice is a tuple; ``hash`` and ``repr`` are the tuple's, and an equal tuple or ``_Dates``
    compares equal from either side.
    """

    __slots__ = ("_column", "_offset", "_dates", "_tail")

    def __init__(self, dates: Iterable[dt.date]) -> None:
        dates = tuple(dates)
        for index, day in enumerate(dates):
            # a datetime is a date too, but it carries a time of day: two of them can fall on one day
            if not isinstance(day, dt.date) or isinstance(day, dt.datetime):
                raise InputError(f"dates[{index}] must be a datetime.date, got {day!r}")
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


def _check_asset_id(asset_id: str) -> None:
    """Refuse an ``asset_id`` that is empty or spans lines."""
    if not asset_id:
        raise InputError("asset_id must be non-empty")
    if asset_id.splitlines() != [asset_id]:
        raise InputError(f"asset_id must be one line, got {asset_id!r}")


def _check_series(
    asset_id: str, dates: Sequence[dt.date], values: object, field: str
) -> tuple[_Dates, np.ndarray]:
    """The dates, as ``_Dates``, and the read-only ``field`` values of a series of ``asset_id``, both checked."""
    _check_asset_id(asset_id)
    values = _checked_array(values, f"{asset_id}: {field}")
    dates = dates if isinstance(dates, _Dates) else tuple(dates)
    if values.size != len(dates):
        raise InputError(f"{asset_id}: got {len(dates)} dates but {values.size} {field}")
    if not isinstance(dates, _Dates):
        try:
            dates = _Dates(dates)
        except InputError as exc:
            raise InputError(f"{asset_id}: {exc}") from None
    return dates, values


class PriceSeries(_ArrayRecord):
    """Positive daily prices on strictly increasing dates."""

    __slots__ = ("asset_id", "dates", "prices")

    def __init__(self, asset_id: str, dates: Sequence[dt.date], prices: np.ndarray) -> None:
        dates, prices = _check_series(asset_id, dates, prices, "prices")
        if (prices <= 0.0).any():
            raise InputError(f"{asset_id}: prices must be strictly positive")
        super().__init__(asset_id, dates, prices)

    def __len__(self) -> int:
        return int(self.prices.size)


class ReturnSeries(_ArrayRecord):
    """Dated daily returns for one asset, strictly increasing dates."""

    __slots__ = ("asset_id", "dates", "returns")

    def __init__(self, asset_id: str, dates: Sequence[dt.date], returns: np.ndarray) -> None:
        super().__init__(asset_id, *_check_series(asset_id, dates, returns, "returns"))

    def __len__(self) -> int:
        return int(self.returns.size)


def _read_bytes(path: Path) -> bytes:
    """The bytes of ``path``, from one unbuffered binary read."""
    with open(path, "rb", buffering=0) as handle:
        return handle.readall()


def _decode(data: bytes, path: Path) -> str:
    """``data``, read from ``path``, as ``Path.read_text(encoding="utf-8")`` gives it, universal newlines included;
    a byte that does not decode raises the error that names its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(exc.object[:exc.start + 1].splitlines())
        raise InputError(f"{path}: line {line}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: Path) -> str:
    """The text of ``path`` as ``Path.read_text(encoding="utf-8")`` reads it, universal newlines included."""
    return _decode(_read_bytes(path), path)


def _parse_plain(data: bytes, value_column: str, calendar: str) -> tuple[_Dates, np.ndarray] | None:
    """The dates and read-only values of the UTF-8 ``data`` if it is a plain file that its series type accepts,
    else None.

    Accepted means increasing dates and finite values, positive for prices.  ``calendar`` is the checked date
    column of the last plain file read, ``""`` before the first; when the file's date column is that text, the
    dates hold that string itself.
    """
    first = 0
    while data.startswith(_BOM, first):  # every leading byte-order mark, as ``str.lstrip`` takes them off text
        first += len(_BOM)
    header = f"date,{value_column}\n".encode()
    start, end = first + len(header), len(data)
    rows = data.count(b"\n", start)
    if (
        end == start
        or not data.startswith(header, first)
        or not data.endswith(b"\n")
        or b"\r" in data
        or data.count(b",", start) != rows
        or _NOT_PLAIN_ROW.search(data, start - 1, end - 1)
    ):
        return None
    pieces: list[str] = []  # each chunk's date cells, joined by ","
    matched = True  # while every chunk matches ``calendar``
    last = ""  # the last date cell read, which the next chunk's first must follow
    values = np.empty(rows)
    done = 0
    try:
        while start < end:
            stop = data.find(b"\n", min(start + _CHUNK_CHARS, end - 1)) + 1
            cells = data[start:stop].replace(b"\n", b",").split(b",")
            # the prefix check makes every date cell ASCII ``YYYY-MM-DD``, 10 characters, so the chunk's first
            # date sits at 11 per date before it
            piece = b",".join(cells[0:-1:2]).decode("ascii")
            pieces.append(piece)
            count = len(cells) // 2
            matched = matched and calendar.startswith(piece, 11 * done)
            # off the calendar, each cell must be a date (a date is true; a bad cell raises ValueError), and
            # fixed-width ``YYYY-MM-DD`` text sorts as its date does; the dates themselves are dropped, to be
            # built from the column if ever read
            if not matched:
                days = piece.split(",")
                if not (
                    all(map(dt.date.fromisoformat, days)) and last < days[0] and all(map(operator.lt, days, days[1:]))
                ):
                    return None
            last = piece[-10:]
            try:
                converted = np.fromiter(map(float, cells[1::2]), float, count)
            except ValueError:
                # ``float`` reads Unicode spaces and digits, such as ``\xa0100.0`` or ``１２``, from text alone;
                # a cell that is not UTF-8 raises UnicodeDecodeError, a ValueError, and the file is turned away
                converted = np.fromiter((float(cell.decode()) for cell in cells[1::2]), float, count)
            values[done:done + count] = converted
            done += count
            start = stop
        # the series types' own checks; a min/max compare ran NumPy loops nothing else in a backtest runs,
        # and their code, paged in, raised universe_screen's peak RSS
        if not np.isfinite(values).all() or value_column == "price" and (values <= 0.0).any():
            return None
        values.flags.writeable = False  # so a series holds this array, not a copy of it
        if matched and len(calendar) == 11 * rows - 1:  # 11 characters a date, less the last comma
            return _Dates._of(calendar), values
        return _Dates._of(",".join(pieces)), values
    except ValueError:  # a cell's conversion
        return None


def _parse(
    data: bytes, value_column: str, asset_id: str, text: Callable[[], str], calendar: str = ""
) -> tuple[_Dates, np.ndarray]:
    """The dates and read-only values of the file ``data``: the fast path's when it accepts the file, else the row
    loop's on its text, which ``text()`` gives only then; the row loop raises the file's error."""
    return _parse_plain(data, value_column, calendar) or _row_loop(text(), value_column, asset_id)


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
    converted, and nothing here holds it, its returns or its file's bytes while the next file is read: the caller
    decides what lives on.
    """
    _reject_repeats((path.stem for path in paths), "asset ids")
    value_column = "return" if method is None else "price"
    calendar = ""
    for path in paths:
        data = _read_bytes(path)
        dates, values = _parse(
            data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data,
            value_column, path.stem, lambda: _decode(data, path), calendar,
        )
        del data  # so two files' bytes are never held at once
        if dates._column is not None:  # a plain file's dates hold its date column, which the next is compared with
            calendar = dates._column
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
    return PriceSeries(asset_id, *_parse(text.encode("utf-8", "surrogatepass"), "price", asset_id, lambda: text))


def parse_returns(text: str, asset_id: str) -> ReturnSeries:
    """Parse ``date,return`` CSV content into a validated ReturnSeries."""
    return ReturnSeries(asset_id, *_parse(text.encode("utf-8", "surrogatepass"), "return", asset_id, lambda: text))


def to_returns(prices: PriceSeries, method: ReturnMethod = ReturnMethod.SIMPLE) -> ReturnSeries:
    """Convert a price series to daily returns, each dated by the later day.

    Simple returns are P_t / P_{t-1} - 1; log returns are ln(P_t / P_{t-1}).
    """
    return _returns(prices.asset_id, prices.dates, prices.prices, method)
