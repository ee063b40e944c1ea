"""Empirical risk measures: historical VaR and the tail conditional expectation.

Sign conventions used throughout: a sample value is a daily return (a loss is
negative), while VaR and the tail conditional expectation are quoted as
positive capital amounts.  For a confidence level ``alpha`` the two empirical
quantile conventions are

* largest:  the infimum of x with  P[X <= x] >  1 - alpha,
* smallest: the infimum of x with  P[X <= x] >= 1 - alpha,

and ``var = -quantile``.  The tail conditional expectation conditions on
``X <= -var`` (or ``X < -var`` when ``strict=True``) and is absent -- returned
as ``None``, never raised -- when that event has no mass.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, _finite, _integer, _Record

# Tie tolerance for order-statistic thresholds.  (1 - alpha) * n is an exact
# rational for every level anyone quotes, but the float product lands up to a
# few ulps off an integer in either direction; snapping keeps k/n comparisons
# behaving like exact arithmetic.
_TIE_EPS = 1e-9


class QuantileConvention(enum.Enum):
    """Which empirical quantile backs the VaR: the largest or the smallest."""

    LARGEST = "largest"
    SMALLEST = "smallest"


class Level(_Record):
    """Confidence level, strictly inside (0, 1)."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float) -> None:
        a = _finite(alpha)
        if a is None or not 0.0 < a < 1.0:
            raise InputError(f"confidence level must lie strictly inside (0, 1), got {alpha!r}")
        super().__init__(a)


def _as_level(level: Level | float) -> Level:
    return level if isinstance(level, Level) else Level(level)


def _checked_array(values: object, what: str) -> np.ndarray:
    """``values`` as a read-only 1-D float array, checked non-empty and finite; ``what`` names them in errors.

    The array is a copy, unless ``values`` already is a read-only float array over read-only memory: only a
    flag set back could write that, so it is kept, and a series holds the array its parser or ``_returns``
    built instead of a copy.
    """
    base = getattr(values, "base", None)
    if (
        isinstance(values, np.ndarray)
        and values.dtype == float
        and not values.flags.writeable
        and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable)
    ):
        arr = values
    else:
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"{what} must be numeric and one-dimensional") from None
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{what} must not be empty")
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


class _ArrayRecord(_Record):
    """A record that holds arrays: ``==`` compares its array fields by value and the others as ``_Record`` does,
    and it is unhashable, as a frozen dataclass holding an array was."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in zip(self._astuple(), other._astuple())  # type: ignore[attr-defined]
        )

    __hash__ = None  # type: ignore[assignment]


class Sample(_ArrayRecord):
    """A non-empty batch of observed returns, stored as a read-only float array."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        super().__init__(_checked_array(values, "sample"))

    def __len__(self) -> int:
        return int(self.values.size)


def _as_sample(sample: Sample | Sequence[float] | np.ndarray) -> Sample:
    return sample if isinstance(sample, Sample) else Sample(sample)


def quantile_index(n: int, level: Level | float, conv: QuantileConvention) -> int:
    """0-based index into the sorted sample realizing the chosen quantile.

    The empirical CDF on n points jumps in steps of 1/n, so the quantile is an
    order statistic: with t = (1 - alpha) * n, the largest convention takes the
    smallest k (1-based) with k > t and the smallest convention the smallest k
    with k >= t.  t is snapped to the nearest integer within 1e-9 first; see
    the module note on tie tolerance.
    """
    size = _integer(n)
    if size is None:
        raise InputError(f"sample size must be an integer, got {n!r}")
    if size < 1:
        raise InputError(f"sample size must be at least 1, got {n}")
    alpha = _as_level(level).alpha
    try:
        t = (1.0 - alpha) * size
    except OverflowError:
        raise InputError(f"sample size must be within the float range, got {size}") from None
    nearest = round(t)
    if abs(t - nearest) <= _TIE_EPS:
        t = float(nearest)
    if conv is QuantileConvention.LARGEST:
        k = math.floor(t) + 1
    elif conv is QuantileConvention.SMALLEST:
        k = max(math.ceil(t), 1)
    else:
        raise InputError(f"unknown quantile convention: {conv!r}")
    return min(max(k, 1), size) - 1


def _finite_mean(mean_of: Callable[[np.ndarray], np.ndarray], values: np.ndarray) -> np.ndarray:
    """``mean_of(values)``, finite wherever ``values`` is finite.

    A mean of finite values lies between their extremes, but its running sum
    can overflow.  Only where it did is the mean recomputed as
    ``scale * mean_of(values / scale)`` with ``scale`` the largest magnitude in
    ``values``, so ordinary inputs keep the plain float operations.  One scale
    serves means of any shape, such as the prefix means of sorted rows.
    """
    with np.errstate(over="ignore"):
        means = mean_of(values)
    if np.isfinite(means).all():
        return means
    scale = np.abs(values).max()  # > 0, since a sum overflowed
    return np.where(np.isfinite(means), means, scale * mean_of(values / scale))


def _quantile(sample: Sample | Sequence[float], level: Level | float, conv: QuantileConvention) -> float:
    """The order statistic backing the quantile convention, by partial sort."""
    s = _as_sample(sample)
    k = quantile_index(len(s), level, conv)
    return float(np.partition(s.values, k)[k])


def largest_alpha_quantile(sample: Sample | Sequence[float], level: Level | float) -> float:
    """Infimum of x with empirical P[X <= x] > 1 - alpha."""
    return _quantile(sample, level, QuantileConvention.LARGEST)


def smallest_alpha_quantile(sample: Sample | Sequence[float], level: Level | float) -> float:
    """Infimum of x with empirical P[X <= x] >= 1 - alpha."""
    return _quantile(sample, level, QuantileConvention.SMALLEST)


def var(
    sample: Sample | Sequence[float],
    level: Level | float,
    conv: QuantileConvention = QuantileConvention.LARGEST,
) -> float:
    """Historical value-at-risk: the negated alpha-quantile of the sample."""
    return -_quantile(sample, level, conv) + 0.0  # normalize -0.0


def tce(
    sample: Sample | Sequence[float],
    level: Level | float,
    conv: QuantileConvention = QuantileConvention.LARGEST,
    strict: bool = False,
) -> float | None:
    """Tail conditional expectation -E[X | X <= -var], or None when the tail is empty.

    With ``strict=True`` the conditioning event is X < -var, which can be empty
    even on a non-degenerate sample (for instance when the quantile sits at the
    sample minimum); absence is a value, not an error.
    """
    s = _as_sample(sample)
    v = var(s, level, conv)
    threshold = -v
    tail = s.values[s.values < threshold] if strict else s.values[s.values <= threshold]
    if tail.size == 0:
        return None
    return float(-_finite_mean(np.mean, tail) + 0.0)
