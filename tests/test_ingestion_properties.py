"""The columnar fast path and the panel reader of ingestion against the csv row loop.

What ``_parse_plain`` reads must make the series the row loop alone makes, and
``parse_prices``/``parse_returns`` must give the same series, or raise the
same error with the same text, as the row loop alone.  ``_read_panel`` must
give, file by file, the series ``parse_prices`` and ``to_returns`` or
``parse_returns`` give, or raise the error of the first file they refuse.
Texts are valid files with random damage of the kinds real exports carry.
"""

import csv
import datetime as dt
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from histrisk import (
    InputError,
    PriceSeries,
    ReturnMethod,
    ReturnSeries,
    ingestion,
    parse_prices,
    parse_returns,
    to_returns,
)
from histrisk.ingestion import _parse_plain, _read_panel, _row_loop

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PARSERS = {"price": (parse_prices, PriceSeries), "return": (parse_returns, ReturnSeries)}

# Cell text that float() or date.fromisoformat() treat in ways worth pinning.
ODD_DATES = ("0000-01-01", "2019-02-29", "2019-2-28", "２０１９-01-01", "2019-01-01 ", "20190101")
ODD_VALUES = (
    "nan", "inf", "-inf", "1e400", "1_000", "+.5", "１２", "\xa01.5", "1.5\xa0", " 2.5",
    "0", "0.0", "-1.0", "-0.0", "", "1,5", '"1.5"', "1.5\r", "\r1.5", "1.5\r ", "0x10",
)
DAMAGE = (
    "bom", "cr", "pad", "pad_header", "quote", "blank", "trailing_blank", "no_final_newline",
    "odd_date", "odd_value", "any_value", "repeat_date",
)
# Characters for free-form value cells: number syntax, separators, and the
# Unicode spaces and line breaks that str.strip() and float() both skip.
ANY_CHARS = "0123456789.-+eE_ ,\"\r\n\xa0\x0b\x85\u2028nai"


@st.composite
def damaged_texts(draw, column=None):
    column = column or draw(st.sampled_from(sorted(PARSERS)))
    day = dt.date(2000, 1, 1) + dt.timedelta(days=draw(st.integers(0, 3000)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        day += dt.timedelta(days=draw(st.integers(1, 3)))
        rows.append([day.isoformat(), repr(draw(st.floats(0.01, 1000.0)))])
    lines = ["date," + column] + [f"{d},{v}" for d, v in rows]
    ends = ["\n"] * len(lines)
    prefix = ""
    for kind in draw(st.lists(st.sampled_from(DAMAGE), max_size=3)):
        i = draw(st.integers(1, len(lines) - 1))
        date, value = lines[i].split(",", 1) if lines[i].count(",") == 1 else (lines[i], "")
        if kind == "bom":
            prefix = "\ufeff"
        elif kind == "cr":
            ends[draw(st.integers(0, len(lines) - 1))] = "\r\n"
        elif kind == "pad":
            lines[i] = draw(st.sampled_from([f" {date},{value}", f"{date}, {value}", f"{date} ,{value}"]))
        elif kind == "pad_header":
            lines[0] = f"date, {column}"
        elif kind == "quote":
            lines[i] = draw(st.sampled_from([f'"{date}",{value}', f'{date},"{value}"']))
        elif kind == "blank":
            lines.insert(i, "")
            ends.insert(i, "\n")
        elif kind == "trailing_blank":
            lines.append("")
            ends.append("\n")
        elif kind == "no_final_newline":
            ends[-1] = ""
        elif kind == "odd_date":
            lines[i] = f"{draw(st.sampled_from(ODD_DATES))},{value}"
        elif kind == "odd_value":
            lines[i] = f"{date},{draw(st.sampled_from(ODD_VALUES))}"
        elif kind == "any_value":
            lines[i] = f"{date},{draw(st.text(ANY_CHARS, max_size=6))}"
        elif kind == "repeat_date":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i] = f"{lines[j].split(',', 1)[0]},{value}"
    return prefix + "".join(line + end for line, end in zip(lines, ends)), column


def _outcome(build, text, column):
    """The series ``build`` makes of ``text``, or the type and text of the error it raises."""
    try:
        series = build(text, column)
    except (InputError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return series.dates, (series.prices if column == "price" else series.returns).tolist()


def _public(text, column):
    return PARSERS[column][0](text, "x")


def _row_loop_alone(text, column):
    return PARSERS[column][1]("x", *_row_loop(text, column, "x"))


def _fast(text, column):
    """The series of what the fast path alone reads of ``text``, or None if it turns it away.

    The fast path takes only what the series type accepts, so building the series raises nothing.
    """
    plain = _parse_plain(text.encode("utf-8", "surrogatepass"), column, "")
    return None if plain is None else PARSERS[column][1]("x", *plain)


PLAIN = "date,price\n2010-01-04,100.0\n2010-01-05,101.5\n"


@settings(max_examples=400, deadline=None)
@given(damaged_texts())
@example(("\ufeff" + PLAIN, "price"))
@example((PLAIN.replace("\n", "\r\n"), "price"))
@example((PLAIN.replace("\n2010-01-05", "\r2010-01-05"), "price"))
@example((PLAIN.replace("101.5", "\r101.5"), "price"))
@example((PLAIN.replace("2010-01-05,", " 2010-01-05, "), "price"))
@example((PLAIN.replace("101.5", '"101.5"'), "price"))
@example((PLAIN.replace("date,price", "date, price"), "price"))
@example((PLAIN.replace("\n2010-01-05", "\n\n2010-01-05"), "price"))
@example((PLAIN + "\n", "price"))
@example((PLAIN[:-1], "price"))
@example((PLAIN.replace("2010-01-04", "0000-01-01"), "price"))
@example((PLAIN.replace("2010-01-05", "2019-02-29"), "price"))
@example((PLAIN.replace("2010-01-05", "2010-01-04"), "price"))
@example((PLAIN.replace("2010-01-05", "2010-01-03"), "price"))
@example((PLAIN.replace("100.0", "1_000"), "price"))
@example((PLAIN.replace("100.0", "１２"), "price"))
@example((PLAIN.replace("100.0", "\xa0100.0"), "price"))
@example((PLAIN.replace("100.0", "+.5"), "price"))
@example((PLAIN.replace("100.0", "0.0"), "price"))
@example((PLAIN.replace("100.0", "-1.0"), "price"))
@example((PLAIN.replace("100.0", "-1.0").replace("price", "return"), "return"))
@example((PLAIN.replace("100.0", "nan").replace("price", "return"), "return"))
@example((PLAIN.replace("100.0", "inf").replace("price", "return"), "return"))
@example((PLAIN.replace("100.0", "1e400").replace("price", "return"), "return"))
@example((PLAIN.replace("2010-01-04,100.0", "2010-01-04,1,2010-01-06").replace("101.5", "7"), "price"))
@example((PLAIN.replace("101.5", "101.5,2010-01-06,102.0"), "price"))
@example((PLAIN.replace("101.5", '101.5"'), "price"))
@example((PLAIN.replace("101.5", "101.5\r "), "price"))
@example((PLAIN.replace(",100.0\n2010-01-05,", "\n100.0,2010-01-05,"), "price"))
def test_fast_path_matches_row_loop(case):
    text, column = case
    if _fast(text, column) is not None:
        assert _outcome(_fast, text, column) == _outcome(_row_loop_alone, text, column)
    assert _outcome(_public, text, column) == _outcome(_row_loop_alone, text, column)


@pytest.mark.parametrize("text, column", [
    (PLAIN, "price"),
    ("\ufeff" + PLAIN, "price"),
    (PLAIN.replace("100.0", "1_000"), "price"),
    (PLAIN.replace("100.0", "１２"), "price"),
    (PLAIN.replace("100.0", "\xa0100.0"), "price"),
    (PLAIN.replace("100.0", "-0.5").replace("price", "return"), "return"),
])
def test_fast_path_takes_plain_files(text, column):
    # float() strips Unicode spaces and reads underscores and non-ASCII digits
    # exactly as the row loop's strip-then-float does, so these stay fast
    assert _fast(text, column) is not None
    assert _outcome(_fast, text, column) == _outcome(_row_loop_alone, text, column)


def test_fast_path_spans_chunks(monkeypatch):
    monkeypatch.setattr("histrisk.ingestion._CHUNK_CHARS", 40)
    days = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(50)]
    text = "date,return\n" + "".join(f"{d},{i / 7!r}\n" for i, d in enumerate(days))
    assert _outcome(_fast, text, "return") == (tuple(days), [i / 7 for i in range(50)])
    assert _outcome(_fast, text, "return") == _outcome(_row_loop_alone, text, "return")


# How a file's calendar relates to two calendars, ``a`` and ``b``, that the
# sequence of files shares; "rejected" files hold a value their type refuses.
CALENDARS = ("a", "b", "prefix", "longer", "distinct", "rejected")


def _days(first, gaps):
    days = [first]
    for gap in gaps:
        days.append(days[-1] + dt.timedelta(days=gap))
    return days


def _text(column, days, values):
    return f"date,{column}\n" + "".join(f"{day},{value}\n" for day, value in zip(days, values))


@st.composite
def calendar_files(draw):
    """A value column and the texts of up to 8 files of it."""
    column = draw(st.sampled_from(sorted(PARSERS)))
    gaps = st.lists(st.integers(1, 3), min_size=1, max_size=30)
    a = _days(dt.date(2000, 1, 3), draw(gaps))
    b = _days(dt.date(2000, 1, 3) + dt.timedelta(days=draw(st.integers(0, 2))), draw(gaps))
    texts = []
    for kind in draw(st.lists(st.sampled_from(CALENDARS), min_size=1, max_size=8)):
        if kind in ("a", "b"):
            days = a if kind == "a" else b
        elif kind == "prefix":
            days = a[:draw(st.integers(1, len(a)))]
        elif kind == "longer":
            days = a + _days(a[-1] + dt.timedelta(days=1), draw(gaps))
        else:
            days = _days(dt.date(1999, 12, 30), draw(gaps))
        values = [repr(draw(st.floats(0.01, 1000.0))) for _ in days]
        if kind == "rejected":
            values[draw(st.integers(0, len(days) - 1))] = "0.0" if column == "price" else "nan"
        texts.append(_text(column, days, values))
    return column, texts


def _names(texts):
    return [f"f{i:02d}.csv" for i in range(len(texts))]


def _alone(column, texts, method):
    """The series each file gives alone through the public functions, up to the type and text of the first error.

    Each text is taken as ``Path.read_text`` reads a file of its UTF-8 bytes, universal newlines included.
    """
    series = []
    for name, text in zip(_names(texts), texts):
        asset_id = name[:-4]
        try:
            if text is None:
                raise InputError(f"{asset_id}: line 1: unreadable")
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            if column == "price":
                series.append(to_returns(parse_prices(text, asset_id), method))
            else:
                series.append(parse_returns(text, asset_id))
        except (InputError, csv.Error) as exc:
            return series, (type(exc).__name__, str(exc))
    return series, None


def _panel(column, texts, method):
    """The series ``_read_panel`` gives of the UTF-8 files of ``texts``, or None and the type and text of its
    error."""
    by_name = dict(zip(_names(texts), texts))

    def read_bytes(path):
        if by_name[path.name] is None:
            raise InputError(f"{path.stem}: line 1: unreadable")
        return by_name[path.name].encode()

    with mock.patch.object(ingestion, "_read_bytes", read_bytes):
        try:
            return list(_read_panel(list(map(Path, _names(texts))), method if column == "price" else None)), None
        except (InputError, csv.Error) as exc:
            return None, (type(exc).__name__, str(exc))


def _assert_panel_matches_alone(column, texts, method):
    """``_read_panel`` gives what each file gives alone; return its series, or None if it raised."""
    expected, error = _alone(column, texts, method)
    series, panel_error = _panel(column, texts, method)
    assert panel_error == error
    if error is None:
        assert [s.asset_id for s in series] == [s.asset_id for s in expected]
        assert [s.dates for s in series] == [s.dates for s in expected]
        assert [s.returns.tobytes() for s in series] == [s.returns.tobytes() for s in expected]
    return series


def _iso(*days):
    """The texts of return files, one on each tuple of ISO ``days`` (valid or not), with values 1, 2, ..."""
    return [_text("return", file_days, range(1, len(file_days) + 1)) for file_days in days]


CALENDAR = ("2019-02-26", "2019-02-27", "2019-02-28", "2019-03-01")

# Off the calendar, the date cells are checked on their text, chunk by chunk; 12 characters make one line a
# chunk, so each check below falls at a chunk boundary: a repeated date, a date out of order right after a
# partial calendar hit, and dates fromisoformat refuses in a later chunk.
TEXT_CHECKS = {
    "repeat-across-chunks": _iso(("2019-02-26", "2019-02-27", "2019-02-27", "2019-02-28")),
    "repeat-after-partial-hit": _iso(CALENDAR, CALENDAR[:2] + ("2019-02-27", "2019-03-02")),
    "earlier-after-partial-hit": _iso(CALENDAR, CALENDAR[:3] + ("2019-02-01",)),
    "feb-29-in-later-chunk": _iso(CALENDAR, CALENDAR[:3] + ("2019-02-29",)),
    "year-0-in-later-chunk": _iso(("2019-02-26", "2019-02-27", "0000-01-01")),
}


@settings(max_examples=200, deadline=None)
@given(calendar_files(), st.integers(12, 80), st.sampled_from(ReturnMethod))
@example(("return", TEXT_CHECKS["repeat-across-chunks"]), 12, ReturnMethod.SIMPLE)
@example(("return", TEXT_CHECKS["repeat-after-partial-hit"]), 12, ReturnMethod.SIMPLE)
@example(("return", TEXT_CHECKS["earlier-after-partial-hit"]), 12, ReturnMethod.SIMPLE)
@example(("return", TEXT_CHECKS["earlier-after-partial-hit"]), 40, ReturnMethod.SIMPLE)
@example(("return", TEXT_CHECKS["feb-29-in-later-chunk"]), 12, ReturnMethod.SIMPLE)
@example(("return", TEXT_CHECKS["year-0-in-later-chunk"]), 12, ReturnMethod.SIMPLE)
def test_shared_calendar_matches_row_loop(panel, chunk_chars, method):
    # small chunks end a calendar match mid-file, in any chunk
    column, texts = panel
    with mock.patch.object(ingestion, "_CHUNK_CHARS", chunk_chars):
        calendar = ""
        for text in texts:
            outcome = _outcome(_public, text, column)
            assert outcome == _outcome(_row_loop_alone, text, column)
            if isinstance(outcome[0], str):  # rejected: the type refuses it, so the fast path turns it away
                assert _parse_plain(text.encode(), column, calendar) is None
                continue
            read, values = _parse_plain(text.encode(), column, calendar)
            assert (read, values.tolist()) == outcome
            if read._column == calendar:
                assert read._column is calendar
            assert read._column == ",".join(map(dt.date.isoformat, read))
            assert read.tail == read[1:]
            if column == "price" and len(read) > 1:
                assert to_returns(PriceSeries("x", read, values)).dates is read.tail
            calendar = read._column
        series = _assert_panel_matches_alone(column, texts, method)
    # consecutive series with equal date columns share one string: a price file's returns hold it one date on
    for first, second in zip(series or (), (series or ())[1:]):
        if first.dates._column == second.dates._column:
            assert first.dates._column is second.dates._column


# How a file of a panel relates to the panel's calendar; "same" is drawn most, so files share it.
# "overflow" files hold finite values whose ratios overflow or underflow; "refused" files are
# plain files on the calendar with one cell from ``REFUSED``: a price refuses each, a return the
# non-finite ones.
PANEL_FILES = ("same", "same", "same", "prefix", "longer", "other", "damaged", "unreadable", "overflow", "refused")
REFUSED = ("nan", "inf", "-inf", "0", "-1.0", "1e400")


@st.composite
def panels(draw):
    """A value column and the texts of 1-20 files of it, None for a file that cannot be read."""
    column = draw(st.sampled_from(sorted(PARSERS)))
    gaps = st.lists(st.integers(1, 3), min_size=1, max_size=12)
    calendar = _days(dt.date(2000, 1, 3), draw(gaps))
    texts = []
    for kind in draw(st.lists(st.sampled_from(PANEL_FILES), min_size=1, max_size=20)):
        if kind == "damaged":
            texts.append(draw(damaged_texts(column))[0])
        elif kind == "unreadable":
            texts.append(None)
        elif kind == "overflow":
            values = [draw(st.sampled_from(("1e-300", "1e300", "1.0"))) for _ in calendar]
            texts.append(_text(column, calendar, values))
        elif kind == "refused":
            values = [repr(draw(st.floats(0.01, 1000.0))) for _ in calendar]
            values[draw(st.integers(0, len(calendar) - 1))] = draw(st.sampled_from(REFUSED))
            texts.append(_text(column, calendar, values))
        else:
            days = {
                "same": calendar,
                "prefix": calendar[:draw(st.integers(1, len(calendar)))],
                "longer": calendar + _days(calendar[-1] + dt.timedelta(days=1), draw(gaps)),
                "other": _days(dt.date(1999, 12, 30), draw(gaps)),
            }[kind]
            texts.append(_text(column, days, [repr(draw(st.floats(0.01, 1000.0))) for _ in days]))
    return column, texts


@settings(max_examples=300, deadline=None)
@given(panels(), st.integers(12, 80), st.sampled_from(ReturnMethod))
def test_panel_reader_matches_each_file_read_alone(panel, chunk_chars, method):
    # small chunks put chunk ends anywhere in a panel
    column, texts = panel
    with mock.patch.object(ingestion, "_CHUNK_CHARS", chunk_chars):
        _assert_panel_matches_alone(column, texts, method)


# Byte runs that decode, fail to decode, or end a line in each way universal newlines knows.
BYTES = (
    b"a", b"1", b",", b"\n", b"\r", b"\r\n",
    b"\xff", b"\xe2", b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8", b"\xef\xbb\xbf",
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(BYTES), max_size=40))
def test_read_text_matches_path_read_text(runs):
    # _read_text decodes one binary read itself; Path.read_text is the reference
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "f.csv"
        path.write_bytes(b"".join(runs))
        try:
            expected = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            line = io.TextIOWrapper(io.BytesIO(exc.object[:exc.start]), encoding="utf-8").read().count("\n") + 1
            with pytest.raises(InputError, match=f"^{re.escape(f'{path}: line {line}: {exc}')}$"):
                ingestion._read_text(path)
        else:
            assert ingestion._read_text(path) == expected


@pytest.mark.parametrize("case, message", [
    ("repeat-across-chunks", "line 4: date 2019-02-27 must be after the preceding date 2019-02-27"),
    ("repeat-after-partial-hit", "line 4: date 2019-02-27 must be after the preceding date 2019-02-27"),
    ("earlier-after-partial-hit", "line 5: date 2019-02-01 must be after the preceding date 2019-02-28"),
    ("feb-29-in-later-chunk", "line 5: invalid ISO date '2019-02-29'"),
    ("year-0-in-later-chunk", "line 4: invalid ISO date '0000-01-01'"),
])
def test_text_date_checks_leave_the_row_loop_message(monkeypatch, case, message):
    # the fast path turns each last file away without building a date of the calendar it partly matched
    # (nor of its own dates), and the row loop, alone, names the line
    monkeypatch.setattr(ingestion, "_CHUNK_CHARS", 12)
    *before, text = TEXT_CHECKS[case]
    calendar = ""
    for earlier in before:
        read, _ = _parse_plain(earlier.encode(), "return", calendar)
        calendar = read._column
    assert _parse_plain(text.encode(), "return", calendar) is None
    assert calendar == "" or read._dates is None
    with pytest.raises(InputError, match=f"^x: {re.escape(message)}$"):
        parse_returns(text, "x")


def test_partial_calendar_hit_builds_no_dates(monkeypatch):
    # a file that leaves the calendar after its first dates neither copies nor builds the calendar's dates
    monkeypatch.setattr(ingestion, "_CHUNK_CHARS", 12)
    first, second = _iso(CALENDAR, CALENDAR[:2] + ("2019-03-05", "2019-03-06"))
    calendar, _ = _parse_plain(first.encode(), "return", "")
    read, _ = _parse_plain(second.encode(), "return", calendar._column)
    assert calendar._dates is None and read._dates is None
    assert read._column == "2019-02-26,2019-02-27,2019-03-05,2019-03-06"
    assert read == tuple(map(dt.date.fromisoformat, CALENDAR[:2] + ("2019-03-05", "2019-03-06")))


def test_shared_calendar_keeps_the_date_prefix_check():
    # the trap's even cells are exactly the calendar 2020-01-01, 2020-01-02 and
    # its commas match its newlines; only the line-prefix check turns it away
    calendar, _ = _parse_plain(b"date,return\n2020-01-01,1\n2020-01-02,2\n", "return", "")
    trap = "date,return\n2020-01-01\n5,2020-01-02,7\n"
    assert _parse_plain(trap.encode(), "return", calendar._column) is None
    with pytest.raises(InputError, match="^x: line 2: expected 2 fields, got 1$"):
        parse_returns(trap, "x")
