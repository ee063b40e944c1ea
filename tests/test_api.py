"""The public API, pinned: a refactor that changes it must change this file too."""

import inspect

import pytest

import histrisk

PUBLIC_NAMES = [
    "AxiomReport",
    "DEFAULT_GRID",
    "DiscreteDistribution",
    "InputError",
    "Level",
    "PriceSeries",
    "QuantileConvention",
    "RegressionSummary",
    "ReturnMethod",
    "ReturnSeries",
    "RiskSpec",
    "Sample",
    "SingularDesignError",
    "SkippedPair",
    "SuiteReport",
    "TceBacktestRow",
    "VarBacktestRow",
    "__version__",
    "axiom_report",
    "convolve_independent",
    "largest_alpha_quantile",
    "ols2",
    "parse_prices",
    "parse_returns",
    "quantile_index",
    "rolling_var_forecasts",
    "run_suite",
    "smallest_alpha_quantile",
    "student_t_sf",
    "tce",
    "tce_backtest",
    "tce_discrete",
    "to_returns",
    "var",
    "var_backtest",
    "var_discrete",
]


def test_public_names():
    assert histrisk.__all__ == PUBLIC_NAMES
    assert all(hasattr(histrisk, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("name, signature", [
    ("var_backtest", "(series: 'ReturnSeries', spec: 'RiskSpec') -> 'VarBacktestRow'"),
    ("tce_backtest", "(series: 'ReturnSeries', spec: 'RiskSpec') -> 'TceBacktestRow'"),
    ("rolling_var_forecasts", "(series: 'ReturnSeries', spec: 'RiskSpec') -> 'list[tuple[dt.date, float]]'"),
    ("run_suite", "(series_set: 'Iterable[ReturnSeries]', specs: 'Sequence[RiskSpec]') -> 'SuiteReport'"),
    ("Sample", "(values: 'np.ndarray') -> None"),
    ("DiscreteDistribution", "(values: 'np.ndarray', probabilities: 'np.ndarray') -> None"),
])
def test_public_signature(name, signature):
    assert str(inspect.signature(getattr(histrisk, name))) == signature
