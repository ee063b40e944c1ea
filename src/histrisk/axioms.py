"""Finitely supported distributions and the coherence spot-checks.

Sign conventions are those of ``measures``: an outcome is a return (a loss is
negative), while VaR and the tail conditional expectation are positive capital
amounts.  Only the ``axioms`` command and the library use this module, so a
``backtest`` run never loads it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, _finite, _Record
from .measures import (
    _TIE_EPS,
    Level,
    QuantileConvention,
    Sample,
    _ArrayRecord,
    _as_level,
    _as_sample,
    _checked_array,
    var,
)

# Levels at which axiom_report checks that the VaR grows with the level.
_LEVEL_GRID = (0.5, 0.9, 0.95, 0.99)


class DiscreteDistribution(_ArrayRecord):
    """A finite distribution of outcome values with explicit probabilities.

    Probabilities must be nonnegative and sum to 1 within 1e-12.  Outcomes do
    not need to be sorted or distinct.
    """

    __slots__ = ("values", "probabilities")

    def __init__(self, values: np.ndarray, probabilities: np.ndarray) -> None:
        v = _checked_array(values, "outcome values")
        p = _checked_array(probabilities, "probabilities")
        if v.size != p.size:
            raise InputError(f"got {v.size} values but {p.size} probabilities")
        if np.any(p < 0.0):
            raise InputError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        super().__init__(v, p)

    def __len__(self) -> int:
        return int(self.values.size)


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


class AxiomReport(_Record):
    """Outcome of the coherence spot-checks on one sample."""

    __slots__ = ("translation_invariant", "positively_homogeneous", "monotone_in_level")

    def __init__(self, translation_invariant: bool, positively_homogeneous: bool, monotone_in_level: bool) -> None:
        super().__init__(translation_invariant, positively_homogeneous, monotone_in_level)


def axiom_report(
    sample: Sample | Sequence[float],
    level: Level | float,
    conv: QuantileConvention = QuantileConvention.LARGEST,
    *,
    shift: float,
    scale: float,
) -> AxiomReport:
    """Check translation invariance, positive homogeneity and level monotonicity.

    The first two hold exactly in floating point (negation commutes with
    rounding), so the flags compare with ``==`` rather than a tolerance:
    var(sample + shift) == var(sample) - shift and, for scale >= 0,
    var(scale * sample) == scale * var(sample).  Monotonicity is checked by
    evaluating var at the levels 0.5, 0.9, 0.95 and 0.99.
    """
    s = _as_sample(sample)
    lv = _as_level(level)
    offset, factor = _finite(shift), _finite(scale)
    if offset is None:
        raise InputError(f"shift must be finite, got {shift!r}")
    if factor is None or factor < 0.0:
        raise InputError(f"scale must be finite and nonnegative, got {scale!r}")

    base = var(s, lv, conv)
    shifted = var(Sample(s.values + offset), lv, conv)
    scaled = var(Sample(s.values * factor), lv, conv)
    translation_ok = shifted == base - offset
    homogeneity_ok = scaled == base * factor

    path = [var(s, alpha, conv) for alpha in _LEVEL_GRID]
    monotone_ok = all(lo <= hi for lo, hi in zip(path, path[1:]))

    return AxiomReport(
        translation_invariant=bool(translation_ok),
        positively_homogeneous=bool(homogeneity_ok),
        monotone_in_level=bool(monotone_ok),
    )
