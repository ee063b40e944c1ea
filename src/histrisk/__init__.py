"""Historical VaR and tail-expectation measurement, backtesting and reporting."""

__version__ = "0.1.0"

from .backtest import (
    DEFAULT_GRID,
    RiskSpec,
    SkippedPair,
    SuiteReport,
    TceBacktestRow,
    VarBacktestRow,
    rolling_var_forecasts,
    run_suite,
    tce_backtest,
    var_backtest,
)
from .errors import InputError, SingularDesignError
from .ingestion import PriceSeries, ReturnMethod, ReturnSeries, parse_prices, parse_returns, to_returns
from .measures import (
    AxiomReport,
    DiscreteDistribution,
    Level,
    QuantileConvention,
    Sample,
    axiom_report,
    convolve_independent,
    largest_alpha_quantile,
    quantile_index,
    smallest_alpha_quantile,
    tce,
    tce_discrete,
    var,
    var_discrete,
)
from .stats import RegressionSummary, ols2, student_t_sf

__all__ = [
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
