"""Seeded synthetic inputs for the three `histrisk backtest` workloads.

Only numpy and the standard library are used, so nothing is downloaded.  The
same seed always gives the same CSV bytes; the CLI sees nothing but these
files and the arguments returned by :func:`generate`.

* ``grid_panel``: Student-t(4) daily returns with slowly varying volatility,
  run over the paper's 13-pair (duration, level) grid.  Rolling VaR dominates.
* ``universe_screen``: many short price files, log returns, one 250-day spec,
  Markdown output.  Every TCE pair is skipped, so ingestion dominates.
* ``tick_ties``: long return series on a 0.0005 tick (a few hundred distinct
  values), short windows, the smallest-quantile convention and non-strict
  violations.  Ties everywhere; TCE blocks carry a large share of the time.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TICK = 0.0005


# The paper's (duration, level) grid, restated here so that the correctness
# check does not take its expectations from the program under test.
PAPER_GRID = (
    (10, 0.90), (20, 0.90), (20, 0.95), (50, 0.90), (100, 0.90), (100, 0.95), (100, 0.99),
    (250, 0.90), (250, 0.95), (250, 0.99), (500, 0.90), (500, 0.95), (500, 0.99),
)


@dataclass(frozen=True)
class Workload:
    """Input shape plus the backtest options the CLI is run with."""

    name: str
    assets: int
    days: int
    kind: str  # "returns" or "prices"
    specs: tuple[tuple[int, float], ...]
    convention: str = "largest"
    violation: str = "strict"
    method: str = "simple"
    table_format: str = "csv"

    def flags(self) -> list[str]:
        """CLI options after the input files."""
        if self.specs == PAPER_GRID:
            out = ["--default-grid"]
        else:
            out = [arg for n, alpha in self.specs for arg in ("--spec", f"{n}:{alpha:g}")]
        out += ["--convention", self.convention, "--violation", self.violation]
        if self.kind == "prices":
            out += ["--method", self.method]
        return out + ["--format", self.table_format]


# Asset counts are set so that one backtest call takes about 1-3 s on a 2-CPU
# host: each run of the benchmark then times ten or more calls.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_panel", 10, 5_000, "returns", PAPER_GRID),
        Workload("universe_screen", 1_000, 301, "prices", ((250, 0.99),),
                 method="log", table_format="md"),
        Workload("tick_ties", 2, 50_000, "returns",
                 ((5, 0.9), (10, 0.9), (10, 0.95), (20, 0.9)),
                 convention="smallest", violation="nonstrict"),
    )
}


def _dates(n: int) -> list[str]:
    # Calendar days: the CLI only requires strictly increasing ISO dates, and
    # 50,000 consecutive days from 1900 stay inside the datetime range.
    start = dt.date(1900, 1, 1).toordinal()
    return [dt.date.fromordinal(start + i).isoformat() for i in range(n)]


def _t4(rng: np.random.Generator, size: int) -> np.ndarray:
    """Student-t(4) draws scaled to unit variance."""
    return rng.standard_t(4, size) / np.sqrt(2.0)


def _grid_panel_cells(rng: np.random.Generator, days: int) -> list[str]:
    t = np.arange(days)
    vol = 0.01 * np.exp(0.4 * np.sin(2.0 * np.pi * t / 750.0 + rng.uniform(0.0, 2.0 * np.pi)))
    return [f"{x:.8f}" for x in vol * _t4(rng, days)]


def _universe_cells(rng: np.random.Generator, days: int) -> list[str]:
    log_path = np.concatenate(([0.0], np.cumsum(0.02 * _t4(rng, days - 1))))
    prices = rng.uniform(20.0, 200.0) * np.exp(log_path)
    return [f"{max(p, 0.01):.4f}" for p in prices]


def _tick_cells(rng: np.random.Generator, days: int) -> list[str]:
    ticks = np.rint(0.01 * _t4(rng, days) / TICK).astype(np.int64)
    return [f"{k * TICK:.4f}" for k in ticks]


_CELLS = {
    "grid_panel": _grid_panel_cells,
    "universe_screen": _universe_cells,
    "tick_ties": _tick_cells,
}


def csv_texts(name: str, seed: int) -> dict[str, str]:
    """File name -> CSV text for every asset of a workload, in asset order."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    dates = _dates(w.days)
    header = "date,price" if w.kind == "prices" else "date,return"
    texts: dict[str, str] = {}
    for i in range(w.assets):
        cells = _CELLS[name](rng, w.days)
        body = "".join(f"{d},{c}\n" for d, c in zip(dates, cells))
        texts[f"{name[0]}{i:04d}.csv"] = f"{header}\n{body}"
    return texts


def generate(name: str, seed: int, directory: Path) -> list[str]:
    """Write a workload's inputs into ``directory``; return the CLI arguments after ``backtest``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for file_name, text in csv_texts(name, seed).items():
        path = directory / file_name
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    w = WORKLOADS[name]
    return [f"--{w.kind}", *paths, *w.flags()]
