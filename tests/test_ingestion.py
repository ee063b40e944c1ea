import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from histrisk import InputError, PriceSeries, ReturnMethod, parse_prices, parse_returns, to_returns
from histrisk.ingestion import _row_loop


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


def test_price_series_rejects_empty_asset_id():
    with pytest.raises(InputError, match="asset_id"):
        PriceSeries("", (dt.date(2020, 1, 1),), np.array([1.0]))


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
