"""Historical VaR and tail-expectation measurement, backtesting and reporting."""

__version__ = "0.1.0"

import importlib

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
    Level,
    QuantileConvention,
    Sample,
    largest_alpha_quantile,
    quantile_index,
    smallest_alpha_quantile,
    tce,
    var,
)

# Names loaded on first use (PEP 562), by the module that defines them: a
# backtest needs neither module, so ``import histrisk.cli`` loads neither.
_LAZY = {
    "AxiomReport": "axioms",
    "DiscreteDistribution": "axioms",
    "axiom_report": "axioms",
    "convolve_independent": "axioms",
    "tce_discrete": "axioms",
    "var_discrete": "axioms",
    "RegressionSummary": "stats",
    "ols2": "stats",
    "student_t_sf": "stats",
}

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


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
