"""Fixtures shared by the ingestion and backtest tests."""

import datetime as dt

import numpy as np
import pytest


@pytest.fixture(scope="module")
def universe_texts():
    """1,000 price files on one 301-day calendar, by file name."""
    rng = np.random.default_rng(34)
    days = [(dt.date(2001, 1, 1) + dt.timedelta(days=i)).isoformat() for i in range(301)]
    prices = rng.uniform(20.0, 200.0, (1_000, 301)).tolist()
    return {
        f"a{i}.csv": "date,price\n" + "".join(f"{d},{p!r}\n" for d, p in zip(days, row))
        for i, row in enumerate(prices)
    }
