"""The columnar fast path of ingestion against the csv row loop.

``_parse_plain`` may only ever return what the row loop alone returns, and
``parse_prices``/``parse_returns`` must give the same series, or raise the
same error with the same text, as the row loop alone.  Texts are valid files
with random damage of the kinds real exports carry.
"""

import csv
import datetime as dt

import pytest

from histrisk import InputError, PriceSeries, ReturnSeries, parse_prices, parse_returns
from histrisk.ingestion import _parse_plain, _row_loop

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
def damaged_texts(draw):
    column = draw(st.sampled_from(sorted(PARSERS)))
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
    return _parse_plain(text, column, "x", PARSERS[column][1])


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
