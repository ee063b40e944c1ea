"""Empirical and discrete-distribution risk measures.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

# Tie tolerance for order-statistic thresholds.  (1 - alpha) * n is an exact
# rational for every level anyone quotes, but the float product lands up to a
# few ulps off an integer in either direction; snapping keeps k/n comparisons
# behaving like exact arithmetic.
_TIE_EPS = 1e-9


class QuantileConvention(enum.Enum):
    """Which empirical quantile backs the VaR: the largest or the smallest."""

    LARGEST = "largest"
    SMALLEST = "smallest"


@dataclass(frozen=True)
class Level:
    """Confidence level, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a) or not 0.0 < a < 1.0:
            raise InputError(f"confidence level must lie strictly inside (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


def _as_level(level: Level | float) -> Level:
    return level if isinstance(level, Level) else Level(level)


def _checked_array(values: object, what: str) -> np.ndarray:
    """``values`` as a read-only 1-D float copy, checked non-empty and finite; ``what`` names them in errors."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be numeric and one-dimensional") from None
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{what} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Sample:
    """A non-empty batch of observed returns, stored as a read-only float array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _checked_array(self.values, "sample"))

    def __len__(self) -> int:
        return int(self.values.size)


def _as_sample(sample: Sample | Sequence[float] | np.ndarray) -> Sample:
    return sample if isinstance(sample, Sample) else Sample(sample)


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite distribution of outcome values with explicit probabilities.

    Probabilities must be nonnegative and sum to 1 within 1e-12.  Outcomes do
    not need to be sorted or distinct.
    """

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        v = _checked_array(self.values, "outcome values")
        p = _checked_array(self.probabilities, "probabilities")
        if v.size != p.size:
            raise InputError(f"got {v.size} values but {p.size} probabilities")
        if np.any(p < 0.0):
            raise InputError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return int(self.values.size)


def quantile_index(n: int, level: Level | float, conv: QuantileConvention) -> int:
    """0-based index into the sorted sample realizing the chosen quantile.

    The empirical CDF on n points jumps in steps of 1/n, so the quantile is an
    order statistic: with t = (1 - alpha) * n, the largest convention takes the
    smallest k (1-based) with k > t and the smallest convention the smallest k
    with k >= t.  t is snapped to the nearest integer within 1e-9 first; see
    the module note on tie tolerance.
    """
    if n < 1:
        raise InputError(f"sample size must be at least 1, got {n}")
    alpha = _as_level(level).alpha
    t = (1.0 - alpha) * n
    nearest = round(t)
    if abs(t - nearest) <= _TIE_EPS:
        t = float(nearest)
    if conv is QuantileConvention.LARGEST:
        k = math.floor(t) + 1
    elif conv is QuantileConvention.SMALLEST:
        k = max(math.ceil(t), 1)
    else:
        raise InputError(f"unknown quantile convention: {conv!r}")
    return min(max(k, 1), n) - 1


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


def var_discrete(dist: DiscreteDistribution, level: Level | float) -> float:
    """Value-at-risk of a finite distribution with explicit probabilities.

    Picks the smallest outcome whose cumulative probability reaches 1 - alpha,
    comparing with the same 1e-9 snap used for order statistics so that exact
    decimal ties (cumulative mass equal to 1 - alpha) count as reached.
    """
    alpha = _as_level(level).alpha
    order = np.argsort(dist.values, kind="stable")
    ordered_values = dist.values[order]
    cum = np.cumsum(dist.probabilities[order])
    threshold = 1.0 - alpha
    idx = int(np.searchsorted(cum, threshold - _TIE_EPS, side="left"))
    idx = min(idx, len(ordered_values) - 1)
    return float(-ordered_values[idx] + 0.0)


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


def tce_discrete(
    dist: DiscreteDistribution,
    level: Level | float,
    strict: bool = False,
) -> float | None:
    """Tail conditional expectation of a finite distribution, None when massless."""
    v = var_discrete(dist, level)
    threshold = -v
    mask = dist.values < threshold if strict else dist.values <= threshold
    mass = float(dist.probabilities[mask].sum())
    if mass <= 0.0:
        return None
    weighted = float((dist.values[mask] * dist.probabilities[mask]).sum())
    return -(weighted / mass) + 0.0


def convolve_independent(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """Distribution of the sum of two independent finite positions."""
    sums = np.add.outer(a.values, b.values).ravel()
    probs = np.multiply.outer(a.probabilities, b.probabilities).ravel()
    unique, inverse = np.unique(sums, return_inverse=True)
    return DiscreteDistribution(unique, np.bincount(inverse.ravel(), weights=probs, minlength=unique.size))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the coherence spot-checks on one sample."""

    translation_invariant: bool
    positively_homogeneous: bool
    monotone_in_level: bool


def axiom_report(
    sample: Sample | Sequence[float],
    level: Level | float,
    conv: QuantileConvention = QuantileConvention.LARGEST,
    *,
    shift: float,
    scale: float,
    level_grid: Sequence[float] = (0.5, 0.9, 0.95, 0.99),
) -> AxiomReport:
    """Check translation invariance, positive homogeneity and level monotonicity.

    The first two hold exactly in floating point (negation commutes with
    rounding), so the flags compare with ``==`` rather than a tolerance:
    var(sample + shift) == var(sample) - shift and, for scale >= 0,
    var(scale * sample) == scale * var(sample).  Monotonicity is checked by
    evaluating var across ``level_grid`` in increasing-level order.
    """
    s = _as_sample(sample)
    lv = _as_level(level)
    if not math.isfinite(shift):
        raise InputError(f"shift must be finite, got {shift!r}")
    if not math.isfinite(scale) or scale < 0.0:
        raise InputError(f"scale must be finite and nonnegative, got {scale!r}")
    if len(level_grid) == 0:
        raise InputError("level_grid must contain at least one level")

    base = var(s, lv, conv)
    shifted = var(Sample(s.values + shift), lv, conv)
    scaled = var(Sample(s.values * scale), lv, conv)
    translation_ok = shifted == base - shift
    homogeneity_ok = scaled == base * scale

    grid = sorted(_as_level(g).alpha for g in level_grid)
    path = [var(s, Level(a), conv) for a in grid]
    monotone_ok = all(lo <= hi for lo, hi in zip(path, path[1:]))

    return AxiomReport(
        translation_invariant=bool(translation_ok),
        positively_homogeneous=bool(homogeneity_ok),
        monotone_in_level=bool(monotone_ok),
    )
