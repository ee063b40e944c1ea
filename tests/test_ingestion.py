import collections
import collections.abc
import copy
import datetime as dt
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import histrisk.backtest
import histrisk.ingestion
from histrisk import (
    InputError,
    Level,
    PriceSeries,
    ReturnMethod,
    ReturnSeries,
    RiskSpec,
    parse_prices,
    parse_returns,
    rolling_var_forecasts,
    to_returns,
)
from histrisk.ingestion import _parse, _parse_plain, _read_panel, _row_loop


def test_parse_prices_minimal():
    series = parse_prices("date,price\n2010-01-04,100.0\n2010-01-05,101.5\n", "brent")
    assert series.asset_id == "brent"
    assert series.dates == (dt.date(2010, 1, 4), dt.date(2010, 1, 5))
    assert series.prices.tolist() == [100.0, 101.5]


def test_parse_prices_crlf_and_bom():
    text = "﻿date,price\r\n2010-01-04,100.0\r\n2010-01-05,101.5\r\n"
    series = parse_prices(text, "x")
    assert len(series) == 2


def test_parse_prices_bad_header():
    with pytest.raises(InputError, match="line 1"):
        parse_prices("day,price\n2010-01-04,100.0\n", "x")


def test_parse_prices_duplicate_date_names_both():
    text = "date,price\n2010-01-05,100.0\n2010-01-05,101.0\n"
    with pytest.raises(InputError, match=r"line 3.*2010-01-05.*2010-01-05"):
        parse_prices(text, "x")


def test_parse_prices_decreasing_date():
    text = "date,price\n2010-01-06,100.0\n2010-01-05,101.0\n"
    with pytest.raises(InputError, match=r"2010-01-05.*2010-01-06"):
        parse_prices(text, "x")


def test_parse_prices_rejects_nonpositive_price():
    with pytest.raises(InputError, match="line 2.*positive"):
        parse_prices("date,price\n2010-01-04,0.0\n", "x")
    with pytest.raises(InputError, match="line 3"):
        parse_prices("date,price\n2010-01-04,5.0\n2010-01-05,-1.0\n", "x")


def test_parse_prices_rejects_comma_decimal():
    # a comma decimal splits into a third field
    with pytest.raises(InputError, match="line 2"):
        parse_prices('date,price\n2010-01-04,"100,5"\n', "x")
    with pytest.raises(InputError, match="line 2"):
        parse_prices("date,price\n2010-01-04,100,5\n", "x")


def test_parse_prices_rejects_bad_dates():
    for raw in ("2010/01/04", "20100104", "04-01-2010", "2010-1-4"):
        with pytest.raises(InputError, match="line 2"):
            parse_prices(f"date,price\n{raw},100.0\n", "x")


def test_parse_prices_no_rows():
    with pytest.raises(InputError, match="no rows"):
        parse_prices("date,price\n", "x")
    with pytest.raises(InputError, match="line 1"):
        parse_prices("", "x")


def test_parse_returns_minimal():
    series = parse_returns("date,return\n2010-01-05,0.012\n", "x")
    assert len(series) == 1
    assert series.returns.tolist() == [0.012]


def test_parse_returns_rejects_nan():
    with pytest.raises(InputError, match="line 3"):
        parse_returns("date,return\n2010-01-05,0.01\n2010-01-06,NaN\n", "x")


def test_parse_returns_header_mismatch():
    with pytest.raises(InputError, match="date,return"):
        parse_returns("date,price\n2010-01-05,0.01\n", "x")


def test_to_returns_simple():
    series = parse_prices(
        "date,price\n2010-01-04,100.0\n2010-01-05,110.0\n2010-01-06,99.0\n", "x"
    )
    returns = to_returns(series, ReturnMethod.SIMPLE)
    assert returns.dates == series.dates[1:]
    assert returns.returns == pytest.approx([0.10, -0.10], abs=1e-15)


def test_to_returns_log():
    series = parse_prices("date,price\n2010-01-04,100.0\n2010-01-05,110.0\n", "x")
    returns = to_returns(series, ReturnMethod.LOG)
    assert returns.returns[0] == pytest.approx(math.log(1.1), abs=1e-15)


def test_to_returns_constant_prices():
    series = parse_prices(
        "date,price\n2010-01-04,42.0\n2010-01-05,42.0\n2010-01-06,42.0\n", "x"
    )
    assert to_returns(series).returns.tolist() == [0.0, 0.0]


def test_to_returns_needs_two_prices():
    series = parse_prices("date,price\n2010-01-04,100.0\n", "x")
    with pytest.raises(InputError, match="at least 2"):
        to_returns(series)


@pytest.mark.parametrize("prices, method", [
    ([1e-300, 1e300], ReturnMethod.SIMPLE),
    ([1e-300, 1e300], ReturnMethod.LOG),
    ([1e300, 1e-300], ReturnMethod.LOG),
], ids=["overflow-simple", "overflow-log", "log-of-zero"])
def test_to_returns_out_of_range_is_one_input_error(prices, method):
    # the suite turns warnings into errors, so a numpy RuntimeWarning on the way fails this test
    series = PriceSeries("x", (dt.date(2010, 1, 4), dt.date(2010, 1, 5)), np.array(prices))
    with pytest.raises(InputError, match="^x: returns must be finite$"):
        to_returns(series, method)


def test_round_trip_simple_returns():
    rng = np.random.default_rng(31)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.05, 0.05, 40))
    dates = tuple(dt.date(2015, 1, 1) + dt.timedelta(days=i) for i in range(40))
    series = PriceSeries("x", dates, prices)
    returns = to_returns(series, ReturnMethod.SIMPLE)
    rebuilt = prices[0] * np.cumprod(1.0 + returns.returns)
    assert rebuilt == pytest.approx(prices[1:], rel=1e-12)


def test_log_return_close_to_simple_for_small_moves():
    rng = np.random.default_rng(32)
    for _ in range(200):
        simple = float(rng.uniform(-0.5, 0.5))
        log_r = math.log1p(simple)
        assert abs(log_r - simple) <= simple * simple


def test_price_series_validation():
    dates = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
    with pytest.raises(InputError, match="strictly increasing"):
        PriceSeries("x", dates, np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        PriceSeries("x", (dt.date(2020, 1, 1),), np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        PriceSeries("x", (dt.date(2020, 1, 1),), np.array([-1.0]))


def test_parse_prices_first_bad_line_wins():
    # a zero price on line 2 is reported before the decreasing date on line 4
    text = "date,price\n2010-01-04,0.0\n2010-01-05,101.0\n2010-01-01,102.0\n"
    with pytest.raises(InputError, match="line 2: price must be positive"):
        parse_prices(text, "x")


@pytest.mark.parametrize("text, line", [
    ("date,price\n2010-01-04,100.0\r2010-01-05,101.5\n", 2),
    ("date,pr\rice\n2010-01-04,100.0\n", 1),
], ids=["row", "header"])
def test_raw_carriage_return_names_its_line(text, line):
    # library callers may pass text not read in universal-newline mode
    with pytest.raises(InputError, match=f"^x: line {line}: new-line character seen in unquoted field"):
        parse_prices(text, "x")


def test_line_numbers_count_physical_lines():
    # the quoted cell of line 2 ends on line 3, so the bad price is on line 4
    with pytest.raises(InputError, match="^x: line 4: invalid price 'x'$"):
        parse_prices('date,price\n2010-01-04,"1\n"\n2010-01-05,x\n', "x")


def test_price_series_rejects_empty_asset_id():
    with pytest.raises(InputError, match="asset_id"):
        PriceSeries("", (dt.date(2020, 1, 1),), np.array([1.0]))


@pytest.mark.parametrize("series_type, field", [(PriceSeries, "prices"), (ReturnSeries, "returns")],
                         ids=["prices", "returns"])
@pytest.mark.parametrize("asset_id, dates, values, message", [
    ("", (dt.date(2020, 1, 1),), [1.0], "asset_id must be non-empty"),
    ("x", (dt.date(2020, 1, 1),), [1.0, 2.0], "x: got 1 dates but 2 {field}"),
    ("x", (dt.date(2020, 1, 2), dt.date(2020, 1, 1)), [1.0, 2.0],
     "x: dates must be strictly increasing: 2020-01-01 does not follow 2020-01-02"),
    ("a\nb", (dt.date(2020, 1, 1),), [1.0], "asset_id must be one line, got 'a\\nb'"),
    ("x", (dt.date(2020, 1, 1), dt.date(2020, 1, 2)), [1.0, math.inf], "x: {field} must be finite"),
], ids=["empty-asset-id", "count-mismatch", "date-order", "multi-line-asset-id", "non-finite"])
def test_series_types_share_one_check(series_type, field, asset_id, dates, values, message):
    with pytest.raises(InputError, match=f"^{re.escape(message.format(field=field))}$"):
        series_type(asset_id, dates, np.array(values))


@pytest.mark.parametrize("series_type", [PriceSeries, ReturnSeries], ids=["prices", "returns"])
@pytest.mark.parametrize("dates, message", [
    ([None], "dates[0] must be a datetime.date, got None"),
    (list(range(30)), "dates[0] must be a datetime.date, got 0"),
    (["2020-01-01", "2020-01-02"], "dates[0] must be a datetime.date, got '2020-01-01'"),
    ([dt.date(2019, 12, 31), dt.datetime(2020, 1, 1, 9), dt.datetime(2020, 1, 1, 17)],
     "dates[1] must be a datetime.date, got datetime.datetime(2020, 1, 1, 9, 0)"),
], ids=["none", "integers", "iso-text", "datetimes-on-one-day"])
def test_series_types_refuse_dates_that_are_not_dates(series_type, dates, message):
    # integers and text compare among themselves, and datetimes on one day increase, so only the type check
    # refuses them; a datetime is a date subclass, but no trading day
    with pytest.raises(InputError, match=f"^x: {re.escape(message)}$"):
        series_type("x", dates, np.arange(1.0, len(dates) + 1.0))


def test_return_series_has_one_definition():
    # defined in ingestion; the package and backtest re-export that one class
    assert histrisk.ReturnSeries is histrisk.backtest.ReturnSeries is histrisk.ingestion.ReturnSeries


DAYS = (dt.date(2020, 1, 1), dt.date(2020, 1, 2), dt.date(2020, 1, 6))
DAYS_TEXT = "date,price\n2020-01-01,1.0\n2020-01-02,2.0\n2020-01-06,3.0\n"


@pytest.fixture(params=["parsed", "given"])
def dates(request):
    """The dates of a series on ``DAYS``: read from a plain file, so kept as text, or given as objects."""
    if request.param == "parsed":
        dates = parse_prices(DAYS_TEXT, "x").dates
        assert dates._dates is None  # the read built no date
        return dates
    return PriceSeries("x", list(DAYS), np.array([1.0, 2.0, 3.0])).dates


def test_dates_compare_as_their_tuple(dates):
    # equal to the equal tuple from either side, and unequal to a list, as the tuple is
    assert dates == DAYS and DAYS == dates and not dates != DAYS and not DAYS != dates
    assert dates != list(DAYS) and list(DAYS) != dates and not dates == list(DAYS)
    assert dates != DAYS[:2] and DAYS[1:] != dates
    assert dates == parse_prices(DAYS_TEXT, "y").dates and parse_prices(DAYS_TEXT, "y").dates == dates
    assert dates != dates.tail and dates.tail == DAYS[1:]
    assert hash(dates) == hash(DAYS) and repr(dates) == repr(DAYS)
    assert {dates: 1}[DAYS] == 1


def test_dates_read_as_their_tuple(dates):
    assert len(dates) == 3 and list(dates) == list(DAYS) and tuple(dates) == DAYS
    assert dates[0] == DAYS[0] and dates[-1] == DAYS[-1] and dates[1] is dates[1]
    assert dates[1:] == DAYS[1:] and type(dates[1:]) is tuple and type(dates[:]) is tuple
    assert DAYS[2] in dates and dt.date(2020, 1, 3) not in dates and dates.index(DAYS[1]) == 1
    assert isinstance(dates, collections.abc.Sequence) and not isinstance(dates, tuple)
    with pytest.raises(IndexError):
        dates[3]
    with pytest.raises((AttributeError, TypeError)):
        dates[0] = DAYS[1]


def test_dates_tail_is_one_object(dates):
    # the dates of the returns of prices on these dates: the same object on every call, shared by to_returns
    assert dates.tail is dates.tail and dates.tail == DAYS[1:] and len(dates.tail) == 2
    assert dates.tail.tail == DAYS[2:] and len(dates.tail.tail.tail) == 0
    prices = PriceSeries("x", dates, np.array([1.0, 2.0, 3.0]))
    assert prices.dates is dates and to_returns(prices).dates is dates.tail


@pytest.mark.parametrize("first", ["prices", "returns"])
def test_returns_share_their_prices_date_objects(first):
    # whichever series reads its dates first, prices and their returns hold one object per day
    prices = parse_prices(DAYS_TEXT, "x")
    returns = to_returns(prices)
    if first == "prices":
        assert prices.dates[1] is returns.dates[0]
    else:
        assert returns.dates[0] is prices.dates[1]
    assert all(day is other for day, other in zip(prices.dates[1:], returns.dates))
    assert returns.dates == DAYS[1:] and prices.dates == DAYS


def test_tail_of_read_dates_is_their_slice(dates):
    # a tail first taken after its dates were read is a slice of their tuple: no date is built twice
    dates[0]
    assert all(day is other for day, other in zip(dates[1:], dates.tail)) and dates.tail == DAYS[1:]
    assert dates.tail.tail[0] is dates[2]


def test_dates_copy_and_pickle(dates):
    for copied in (copy.deepcopy(dates), copy.copy(dates), pickle.loads(pickle.dumps(dates))):
        assert type(copied) is type(dates) and copied == DAYS and copied.tail == DAYS[1:]
    assert pickle.loads(pickle.dumps(dates.tail)) == DAYS[1:]


def test_rolling_var_forecasts_date_a_parsed_series():
    # the one library call that reads dates builds them on first use, as dt.date objects
    days = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(13)]
    series = parse_returns("date,return\n" + "".join(f"{day},{i / 100}\n" for i, day in enumerate(days)), "x")
    forecasts = rolling_var_forecasts(series, RiskSpec(10, Level(0.9)))
    assert [day for day, _ in forecasts] == days[10:]
    assert all(type(day) is dt.date for day, _ in forecasts)


def _peak_bytes(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fast_path_peak_memory_within_row_loop():
    # the columnar path splits the body in bounded chunks, so parsing a long
    # file through it, series included, peaks below the row loop, whose
    # io.StringIO alone holds a 4-byte-per-character copy of the text
    rng = np.random.default_rng(33)
    start = dt.date(1900, 1, 1)
    text = "date,return\n" + "".join(
        f"{start + dt.timedelta(days=i)},{r!r}\n" for i, r in enumerate(rng.normal(0.0, 0.01, 50_000).tolist())
    )
    public = _peak_bytes(lambda t: parse_returns(t, "x"), text)
    row_loop = _peak_bytes(lambda t: _row_loop(t, "return", "x"), text)
    assert public <= row_loop


def _returns_text(days, values):
    return "date,return\n" + "".join(f"{day},{value}\n" for day, value in zip(days, values))


def _held_above(calendar, data):
    """What ``_parse_plain`` returns for ``data`` on ``calendar``, and its traced peak above that result."""
    tracemalloc.start()
    try:
        read = _parse_plain(data, "return", calendar)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return read, peak - held


def test_fast_path_holds_one_chunk_of_cell_strings():
    # at the default chunk, the fast path holds above its result only the joined date pieces, 11 bytes a row,
    # and one chunk's cell strings, about two a line; CPython keeps the pages of freed small strings resident,
    # so a larger chunk's strings would stay in the reader's peak RSS
    rows = 50_000
    start = dt.date(1900, 1, 1)
    days = [start + dt.timedelta(days=i) for i in range(rows)]
    data = _returns_text(days, map(repr, np.random.default_rng(36).normal(0.0, 0.01, rows).tolist())).encode()
    budget = 11 * rows + 160 * 1024
    (calendar, _), miss = _held_above("", data)
    (read, _), hit = _held_above(calendar._column, data)
    assert read._column is calendar._column
    assert miss <= budget, f"a calendar miss peaked {miss / 1024:.0f} KiB above its result"
    assert hit <= budget, f"a calendar hit peaked {hit / 1024:.0f} KiB above its result"


def _default_chunk_texts():
    """A returns text of 3 or more default chunks, and the same text with its dates one day later from a line
    in the second chunk on."""
    chunk = histrisk.ingestion._CHUNK_CHARS
    rows = chunk // 8
    days = [dt.date(1990, 1, 1) + dt.timedelta(days=i) for i in range(rows)]
    values = [repr(value) for value in np.random.default_rng(37).normal(0.0, 0.01, rows).tolist()]
    values[1::97] = ["-0.0"] * len(values[1::97])  # equal to 0.0, but not bit-identical
    values[2::89] = ["5e-324"] * len(values[2::89])
    first = _returns_text(days, values)
    assert len(first) >= 3 * chunk
    moved = first.count("\n", 0, len("date,return\n") + chunk) + 5
    later = days[:moved] + [day + dt.timedelta(days=1) for day in days[moved:]]
    return days, values, first, _returns_text(later, values)


def test_default_chunks_match_the_row_loop():
    # the chunk property tests split in chunks of 12 to 80 characters; these texts span real ones: a calendar
    # miss, a hit, then a miss from the second chunk on
    _, _, first, second = _default_chunk_texts()
    calendar = ""
    for text, hit in ((first, False), (first, True), (second, False)):
        read, values = _parse_plain(text.encode(), "return", calendar)
        dates, expected = _row_loop(text, "return", "x")
        assert (read._column is calendar) == hit
        assert read == dates and values.tobytes() == expected.tobytes()
        calendar = read._column


@pytest.mark.parametrize("last", ["invalid", "repeated"])
def test_default_chunks_leave_a_last_chunk_date_to_the_row_loop(last):
    # on a calendar that holds every chunk but the last, a bad date there sends the file to the row loop,
    # which names its line
    days, values, first, _ = _default_chunk_texts()
    calendar = _parse_plain(first.encode(), "return", "")[0]._column
    bad = days[:-1] + [f"{days[-1].year}-02-30" if last == "invalid" else days[-2]]
    text = _returns_text(bad, values)
    assert _parse_plain(text.encode(), "return", calendar) is None
    with pytest.raises(InputError, match=f"^x: line {len(days) + 1}: ") as alone:
        _row_loop(text, "return", "x")
    with pytest.raises(InputError, match=f"^{re.escape(str(alone.value))}$"):
        _parse(text.encode(), "return", "x", lambda: text, calendar)


def _read_universe(monkeypatch, files):
    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", lambda path: files[path.name])
    return list(_read_panel(list(map(Path, files)), ReturnMethod.LOG))


def test_shared_calendar_keeps_one_set_of_dates(monkeypatch, universe_files):
    # 1,000 price files on one 301-day calendar hold one date-column string
    # between them; each date object alone would cost 32 bytes per row
    tracemalloc.start()
    try:
        kept = _read_universe(monkeypatch, universe_files)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(series.dates._column) for series in kept}) == 1
    assert held <= 4 << 20


def test_panel_reader_converts_each_file_alone(monkeypatch, universe_files):
    # one ReturnSeries and one returns kernel a file, and no PriceSeries; each
    # series owns its read-only returns, not a view of a block or a copy
    calls = collections.Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    for series_type in (PriceSeries, ReturnSeries):
        monkeypatch.setattr(series_type, "__init__", counted(series_type.__name__, series_type.__init__))
    monkeypatch.setattr(histrisk.ingestion, "_returns", counted("_returns", histrisk.ingestion._returns))
    kept = _read_universe(monkeypatch, universe_files)
    assert [series.asset_id for series in kept] == [name[:-4] for name in universe_files]
    assert calls == {"ReturnSeries": 1_000, "_returns": 1_000}
    assert len({id(series.dates._column) for series in kept}) == 1
    assert all(not series.returns.flags.writeable and series.returns.base is None for series in kept)


def _dated_text(column, days):
    return f"date,{column}\n" + "".join(f"{day},{i % 7 + 1}.0\n" for i, day in enumerate(days))


def test_panel_reader_keeps_no_previous_calendar(monkeypatch):
    # two price files of 20,001 days whose date columns differ in their first date alone: once the first series
    # is dropped, the reader and the second series hold no more than when the columns differ in their last date
    # too, so nothing of the first file's date column, 11 bytes a day, outlives its series
    start = dt.date(1950, 1, 2).toordinal()
    days = [dt.date.fromordinal(start + i) for i in range(20_001)]
    first_differs = [days[0] - dt.timedelta(days=1)] + days[1:]
    both_differ = first_differs[:-1] + [days[-1] + dt.timedelta(days=1)]

    def held(second):
        files = {"a.csv": _dated_text("price", days).encode(), "b.csv": _dated_text("price", second).encode()}
        monkeypatch.setattr(histrisk.ingestion, "_read_bytes", lambda path: files[path.name])
        tracemalloc.start()
        try:
            reader = _read_panel([Path("a.csv"), Path("b.csv")], ReturnMethod.LOG)
            next(reader)  # the first series, dropped at once
            kept = next(reader)
            assert len(kept) == 20_000
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held(first_differs)  # the first read also fills caches that outlive it
    first_only, both = held(first_differs), held(both_differ)
    # NumPy's own small allocations vary by up to about 100 bytes between reads; a kept column is 215 KiB
    assert first_only <= both + 1024, f"held {first_only / 1024:.0f} KiB against {both / 1024:.0f} KiB"


@pytest.mark.parametrize("method", [ReturnMethod.LOG, None], ids=["prices", "returns"])
def test_calendar_hits_hold_the_first_files_date_column(monkeypatch, method):
    # each file after the first on a calendar holds that first file's date-column string, not an equal copy; a
    # file the row loop reads between them leaves the calendar as it was, and a file off it starts a new one
    column = "return" if method is None else "price"
    one = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(5)]
    two = one[:-1] + [one[-1] + dt.timedelta(days=1)]
    texts = {
        f"{name}.csv": _dated_text(column, days)
        for name, days in (("a", one), ("b", one), ("quoted", one), ("c", one), ("d", two), ("e", two))
    }
    texts["quoted.csv"] = texts["quoted.csv"].replace(",2.0\n", ',"2.0"\n')
    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", lambda path: texts[path.name].encode())
    a, b, quoted, c, d, e = _read_panel(list(map(Path, texts)), method)
    assert quoted.dates._column is None and quoted.dates == a.dates
    assert b.dates._column is a.dates._column and c.dates._column is a.dates._column
    assert e.dates._column is d.dates._column != a.dates._column


PANEL_TEXT ="date,price\n2020-01-01,1.0\n2020-01-02,2.0\n2020-01-03,3.0\n"
PANEL_TEXTS = {
    "a": PANEL_TEXT,
    "b": PANEL_TEXT.replace("3.0", "4.0"),
    "c": PANEL_TEXT.replace("1.0", "0.5"),
    "nan": PANEL_TEXT.replace("2.0", "nan"),
    "one": "date,price\n2020-01-01,1.0\n",
    "quoted": PANEL_TEXT.replace("2.0", '"2.0"'),
    "overflow": PANEL_TEXT.replace("1.0", "1e-300").replace("2.0", "1e300"),
    "a\nb": PANEL_TEXT,
    "one\nline": "date,price\n2020-01-01,1.0\n",
}


@pytest.mark.parametrize("files, read, message", [
    (("a", "b", "c"), 3, None),
    (("a", "nan", "c"), 2, "^nan: line 3: non-finite price 'nan'$"),
    (("a", "one", "c"), 2, "^one: need at least 2 prices to form returns, got 1$"),
    (("a", "b", "missing"), 3, "No such file or directory"),
    (("a", "quoted", "c"), 3, None),
    # a file that fails only once converted raises before the next file is read
    (("a", "overflow", "missing"), 2, "^overflow: returns must be finite$"),
    (("a", "a\nb", "missing"), 2, "^asset_id must be one line, got 'a\\\\nb'$"),
    # the asset id is checked before the count of prices, as a price series' own check would
    (("a", "one\nline", "missing"), 2, "^asset_id must be one line, got 'one\\\\nline'$"),
], ids=["valid", "refused", "one-price", "missing", "read-alone", "overflow", "line-break", "one-price-line-break"])
def test_panel_reader_reads_each_file_once(tmp_path, monkeypatch, files, read, message):
    # a pipe or a FIFO gives its text once, so every path through the reader
    # reads each file once, and none after the one that raises
    for name, text in PANEL_TEXTS.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    reads = collections.Counter()
    read_bytes = histrisk.ingestion._read_bytes

    def counted(path):
        reads[path.stem] += 1
        return read_bytes(path)

    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", counted)
    paths = [tmp_path / f"{name}.csv" for name in files]
    if message is None:
        assert [series.asset_id for series in list(_read_panel(paths, ReturnMethod.LOG))] == list(files)
    else:
        with pytest.raises((InputError, OSError), match=message):
            list(_read_panel(paths, ReturnMethod.LOG))
    assert reads == collections.Counter(files[:read])


def test_panel_reader_reads_the_paths_it_is_given(tmp_path, monkeypatch):
    # the caller's Path objects themselves reach _read_bytes, plain or read alone: the reader wraps none again
    paths = [tmp_path / f"{name}.csv" for name in ("a", "quoted", "b")]
    for path in paths:
        path.write_text(PANEL_TEXTS[path.stem], encoding="utf-8")
    read, read_bytes = [], histrisk.ingestion._read_bytes

    def recorded(path):
        read.append(path)
        return read_bytes(path)

    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", recorded)
    assert [series.asset_id for series in list(_read_panel(paths, ReturnMethod.LOG))] == ["a", "quoted", "b"]
    assert len(read) == len(paths) and all(seen is given for seen, given in zip(read, paths))


def test_panel_reader_holds_a_file_as_bytes_alone(tmp_path):
    # the reader parses a plain file from the bytes it read and decodes only each chunk's date cells, so above the
    # series it yields it peaks at those bytes, the joined date pieces, 11 bytes a row, and one chunk's cells; a
    # decoded copy of the file beside its bytes would add the file's size again
    rows = 50_000
    start = dt.date(1900, 1, 1)
    values = np.random.default_rng(38).normal(0.0, 0.01, rows).tolist()
    data = ("date,return\n" + "".join(
        f"{start + dt.timedelta(days=i)},{value:.20e}\n" for i, value in enumerate(values)
    )).encode()
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        series = next(_read_panel([path], None))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.dates._column is not None and series.returns.tolist() == values
    budget = len(data) + 11 * rows + 160 * 1024
    assert peak - held <= budget, f"the read peaked {(peak - held) / 1024:.0f} KiB above its series"


def test_panel_reader_takes_line_ends_and_byte_order_marks_off_the_bytes(tmp_path):
    # universal newlines and leading byte-order marks are handled on the bytes, so these files are plain: each
    # holds the first file's date column itself
    variants = {
        "lf": PANEL_TEXT,
        "crlf": PANEL_TEXT.replace("\n", "\r\n"),
        "cr": PANEL_TEXT.replace("\n", "\r"),
        "bom": "\ufeff" + PANEL_TEXT,
        "boms-crlf": "\ufeff\ufeff" + PANEL_TEXT.replace("\n", "\r\n"),
    }
    paths = []
    for name, text in variants.items():
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(text.encode())
    first, *rest = _read_panel(paths, ReturnMethod.LOG)
    assert first.dates._column is not None
    for series in rest:
        assert series.dates._column is first.dates._column
        assert series.returns.tobytes() == first.returns.tobytes()


def test_panel_reader_reads_unicode_values_as_the_row_loop(tmp_path):
    # float refuses a fullwidth digit or a no-break space as UTF-8 bytes; the chunk's value cells are read from
    # their text, as the row loop reads them, and the file stays plain
    text = PANEL_TEXT.replace("1.0", "１２").replace("3.0", "\xa03.5")
    paths = [tmp_path / "a.csv", tmp_path / "wide.csv"]
    paths[0].write_text(PANEL_TEXT, encoding="utf-8")
    paths[1].write_text(text, encoding="utf-8")
    first, wide = _read_panel(paths, ReturnMethod.LOG)
    dates, prices = _row_loop(text, "price", "wide")
    assert wide.dates._column is first.dates._column and wide.dates == dates[1:]
    assert wide.returns.tobytes() == np.log(prices[1:] / prices[:-1]).tobytes()


@pytest.mark.parametrize("data", [
    b"date,price\n2020-01-01,1.0\n2020-01-02,2.\xff\n",
    b"date,price\n2020-01-01,1.0\r\n2020-01-02,\xc3\n",
    b"date,price\n2020-01-01,1.0\n2020-\xe2\x80-02,2.0\n",
    b"\xef\xbb\xbfdate,pr\xffice\r2020-01-01,1.0\r2020-01-02,2.0\r",
    b"date,price\n2020-01-01,1.0\n2020-01-02,\xed\xa0\x80\n",
], ids=["value", "truncated-crlf", "date", "header-cr", "surrogate"])
def test_panel_reader_names_the_line_of_a_byte_that_does_not_decode(tmp_path, monkeypatch, data):
    # the fast path takes no file that is not UTF-8; the reader decodes the bytes it read, as read, and raises
    # the line-numbered error a read of that file alone raises, before any later file is read
    for name, contents in (("a", PANEL_TEXT.encode()), ("bad", data), ("c", PANEL_TEXT.encode())):
        (tmp_path / f"{name}.csv").write_bytes(contents)
    with pytest.raises(InputError) as alone:
        histrisk.ingestion._read_text(tmp_path / "bad.csv")
    assert re.match(rf"^{re.escape(str(tmp_path / 'bad.csv'))}: line [0-9]+: 'utf-8' codec can't decode", str(alone.value))
    reads = collections.Counter()
    read_bytes = histrisk.ingestion._read_bytes

    def counted(path):
        reads[path.stem] += 1
        return read_bytes(path)

    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", counted)
    with pytest.raises(InputError, match=f"^{re.escape(str(alone.value))}$"):
        list(_read_panel([tmp_path / f"{name}.csv" for name in ("a", "bad", "c")], ReturnMethod.LOG))
    assert reads == {"a": 1, "bad": 1}


def test_panel_reader_parses_each_file_once(monkeypatch):
    # a file the fast path turns away goes to the row loop from the same parse, not through the fast path
    # again, and the row loop's dates are kept as it checked them, not walked by a second constructor
    calls = collections.Counter()
    parse_plain, dates_init = histrisk.ingestion._parse_plain, histrisk.ingestion._Dates.__init__

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(histrisk.ingestion, "_parse_plain", counted("_parse_plain", parse_plain))
    monkeypatch.setattr(histrisk.ingestion._Dates, "__init__", counted("_Dates", dates_init))
    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", lambda path: PANEL_TEXTS[path.stem].encode())
    paths = [Path(f"{name}.csv") for name in ("a", "quoted", "c")]
    assert [series.asset_id for series in _read_panel(paths, ReturnMethod.LOG)] == ["a", "quoted", "c"]
    assert calls == {"_parse_plain": 3}


def test_parsers_keep_the_array_they_build(monkeypatch):
    # parse_returns holds the fast path's read-only array itself, and to_returns the one array of returns it
    # forms: neither copies what it just built
    built = []
    parse_plain = histrisk.ingestion._parse_plain

    def recorded(*args):
        built.append(parse_plain(*args))
        return built[-1]

    monkeypatch.setattr(histrisk.ingestion, "_parse_plain", recorded)
    assert parse_returns(DAYS_TEXT.replace("price", "return"), "x").returns is built[0][1]

    start = dt.date(1950, 1, 1).toordinal()
    prices = parse_prices(
        "date,price\n" + "".join(f"{dt.date.fromordinal(start + i)},{100 + i % 7}\n" for i in range(20_000)), "x"
    )
    tracemalloc.start()
    try:
        returns = to_returns(prices, ReturnMethod.LOG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * returns.returns.nbytes, f"to_returns traced {peak / 1024:.0f} KiB"
