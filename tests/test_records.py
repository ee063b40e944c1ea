"""The eight value records: signature, repr, equality, hash, frozenness and copies.

``Level``, ``Sample``, ``RiskSpec``, ``PriceSeries``, ``ReturnSeries``, ``RegressionSummary``,
``DiscreteDistribution`` and ``AxiomReport`` behave as frozen dataclasses did: keyword construction, a repr of
every field in order, equality and hash over the fields, and no assignment.  A pickled or copied record is rebuilt
through its constructor, so its arrays are read-only and checked again.
"""

import copy
import datetime as dt
import inspect
import pickle
import weakref

import numpy as np
import pytest

import histrisk
from histrisk import (
    AxiomReport,
    DiscreteDistribution,
    InputError,
    Level,
    PriceSeries,
    QuantileConvention,
    RegressionSummary,
    ReturnSeries,
    RiskSpec,
    Sample,
    parse_prices,
    parse_returns,
    var_backtest,
)

DAYS = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
RETURNS_TEXT = "date,return\n" + "".join(f"2020-01-{day:02d},{(-1) ** day * day / 100}\n" for day in range(1, 21))
PRICES_TEXT = "date,price\n" + "".join(f"2020-01-{day:02d},{100 + day}\n" for day in range(1, 21))

# each record as built from the arguments below, with its signature and repr at the last dataclass version
RECORDS = {
    "Level": (
        lambda: Level(0.9),
        "(alpha: 'float') -> None",
        "Level(alpha=0.9)",
    ),
    "Sample": (
        lambda: Sample([1.0, -2.0]),
        "(values: 'np.ndarray') -> None",
        "Sample(values=array([ 1., -2.]))",
    ),
    "RiskSpec": (
        lambda: RiskSpec(10, 0.9),
        "(duration_n: 'int', level: 'Level', conv: 'QuantileConvention' = <QuantileConvention.LARGEST: 'largest'>,"
        " strict_violation: 'bool' = True) -> None",
        "RiskSpec(duration_n=10, level=Level(alpha=0.9), conv=<QuantileConvention.LARGEST: 'largest'>,"
        " strict_violation=True)",
    ),
    "PriceSeries": (
        lambda: PriceSeries("a", DAYS, [1.0, 2.0]),
        "(asset_id: 'str', dates: 'Sequence[dt.date]', prices: 'np.ndarray') -> None",
        "PriceSeries(asset_id='a', dates=(datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)),"
        " prices=array([1., 2.]))",
    ),
    "ReturnSeries": (
        lambda: ReturnSeries("a", DAYS, [0.5, -0.5]),
        "(asset_id: 'str', dates: 'Sequence[dt.date]', returns: 'np.ndarray') -> None",
        "ReturnSeries(asset_id='a', dates=(datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)),"
        " returns=array([ 0.5, -0.5]))",
    ),
    "RegressionSummary": (
        lambda: RegressionSummary(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 7),
        "(intercept: 'float', coef_duration: 'float', coef_level: 'float', multiple_r: 'float',"
        " p_duration: 'float', p_level: 'float', residual_df: 'int') -> None",
        "RegressionSummary(intercept=0.1, coef_duration=0.2, coef_level=0.3, multiple_r=0.4, p_duration=0.5,"
        " p_level=0.6, residual_df=7)",
    ),
    "DiscreteDistribution": (
        lambda: DiscreteDistribution([1.0, -1.0], [0.5, 0.5]),
        "(values: 'np.ndarray', probabilities: 'np.ndarray') -> None",
        "DiscreteDistribution(values=array([ 1., -1.]), probabilities=array([0.5, 0.5]))",
    ),
    "AxiomReport": (
        lambda: AxiomReport(True, False, True),
        "(translation_invariant: 'bool', positively_homogeneous: 'bool', monotone_in_level: 'bool') -> None",
        "AxiomReport(translation_invariant=True, positively_homogeneous=False, monotone_in_level=True)",
    ),
}

FIELDS = {
    "Level": ("alpha",),
    "Sample": ("values",),
    "RiskSpec": ("duration_n", "level", "conv", "strict_violation"),
    "PriceSeries": ("asset_id", "dates", "prices"),
    "ReturnSeries": ("asset_id", "dates", "returns"),
    "RegressionSummary": (
        "intercept", "coef_duration", "coef_level", "multiple_r", "p_duration", "p_level", "residual_df",
    ),
    "DiscreteDistribution": ("values", "probabilities"),
    "AxiomReport": ("translation_invariant", "positively_homogeneous", "monotone_in_level"),
}

# the records that hold arrays: unhashable, as a frozen dataclass holding an array was
ARRAY_RECORDS = {"Sample": ("values",), "PriceSeries": ("prices",), "ReturnSeries": ("returns",),
                 "DiscreteDistribution": ("values", "probabilities")}


def same(a, b):
    """Whether two records of one type hold equal fields, arrays compared by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, name), getattr(b, name)) for name in type(a).__match_args__)
    )


@pytest.mark.parametrize("name", RECORDS)
def test_signature_and_repr(name):
    make, signature, text = RECORDS[name]
    record_type = getattr(histrisk, name)
    assert str(inspect.signature(record_type)) == signature
    assert repr(make()) == str(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_in_order(name):
    record = RECORDS[name][0]()
    assert type(record).__match_args__ == FIELDS[name]
    rebuilt = type(record)(**{field: getattr(record, field) for field in FIELDS[name]})
    assert same(rebuilt, record)
    match record:
        case Level(alpha):
            assert alpha == 0.9
        case RiskSpec(duration, level, conv, strict):
            assert (duration, level, conv, strict) == (10, Level(0.9), QuantileConvention.LARGEST, True)
        case AxiomReport(first, second, third):
            assert (first, second, third) == (True, False, True)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - set(ARRAY_RECORDS)))
def test_equality_and_hash_over_the_fields(name):
    make = RECORDS[name][0]
    record, again = make(), make()
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again) == hash(tuple(getattr(record, field) for field in FIELDS[name]))
    assert record != tuple(getattr(record, field) for field in FIELDS[name])
    assert record.__eq__(object()) is NotImplemented
    assert len({record, again}) == 1


def test_equality_follows_each_field():
    assert RiskSpec(10, 0.9) == RiskSpec(10.0, Level(0.9), QuantileConvention.LARGEST, True)
    assert RiskSpec(10, 0.9) != RiskSpec(10, 0.9, strict_violation=False)
    assert RiskSpec(10, 0.9) != RiskSpec(11, 0.9)
    assert Level(0.9) != Level(0.95)
    assert AxiomReport(True, True, True) != AxiomReport(True, True, False)
    assert RegressionSummary(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1) != RegressionSummary(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2)


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_records_holding_arrays(name):
    record = RECORDS[name][0]()
    assert record == copy.copy(record)  # one array object, so the tuple compare takes it as equal
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    for field in ARRAY_RECORDS[name]:
        assert not getattr(record, field).flags.writeable


@pytest.mark.parametrize("name", RECORDS)
def test_frozen(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    assert same(record, RECORDS[name][0]())


@pytest.mark.parametrize("name", RECORDS)
def test_weak_references(name):
    record = RECORDS[name][0]()
    ref = weakref.ref(record)
    assert ref() is record
    del record
    assert ref() is None


COPIES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", RECORDS)
def test_copies_are_equal(name, how):
    record = RECORDS[name][0]()
    copied = COPIES[how](record)
    assert same(copied, record)
    if name not in ARRAY_RECORDS:
        assert copied == record and hash(copied) == hash(record)


def parsed_records():
    """A record of each array-holding type, series read from text, so their dates are a file's date column."""
    return {
        "Sample": Sample([0.1, -0.2, 0.3]),
        "PriceSeries": parse_prices(PRICES_TEXT, "p"),
        "ReturnSeries": parse_returns(RETURNS_TEXT, "r"),
        "DiscreteDistribution": DiscreteDistribution([1.0, -1.0, 0.0], [0.25, 0.25, 0.5]),
    }


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_copies_hold_read_only_arrays(name, how):
    record = parsed_records()[name]
    copied = COPIES[how](record)
    assert same(copied, record)
    for field in ARRAY_RECORDS[name]:
        values = getattr(copied, field)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[1] = np.nan


@pytest.mark.parametrize("how", COPIES)
def test_copied_series_cannot_be_scored_after_a_write(how):
    copied = COPIES[how](parse_returns(RETURNS_TEXT, "r"))
    with pytest.raises(ValueError, match="read-only"):
        copied.returns[5] = np.nan
    assert var_backtest(copied, RiskSpec(5, 0.9)) == var_backtest(parse_returns(RETURNS_TEXT, "r"), RiskSpec(5, 0.9))


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_copies_are_checked_again(name, how):
    # an array that owns its memory can be made writeable again; a copy of a record holding it is rebuilt
    # through the constructor, so it is refused as a record with that array would be
    record = parsed_records()[name]
    values = getattr(record, ARRAY_RECORDS[name][0])
    values.flags.writeable = True
    values[1] = np.nan
    with pytest.raises(InputError, match="finite"):
        COPIES[how](record)
