"""Two-regressor least squares and the Student-t tail, self-contained.

The regression is deliberately tiny (intercept + duration + level): numpy's
QR factorization X = QR gives the coefficients from R b = Q'y and the slope
variances from (X'X)^-1 = R^-1 R^-T, without forming X'X or pulling in a
distributions stack.  The t survival function is computed from the
regularized incomplete beta via a modified Lentz continued fraction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError, SingularDesignError, _finite, _integer, _Record

_DESIGN_COLUMNS = ("intercept", "duration", "level")
# Pivot threshold relative to the largest diagonal of X'X, X's columns scaled as in ols2.
_PIVOT_RTOL = 1e-10
# Continued-fraction convergence threshold and iteration cap.
_CF_EPS = 1e-12
_CF_MAX_ITER = 300
_CF_FPMIN = 1e-300


class RegressionSummary(_Record):
    """Fitted coefficients and diagnostics for error ~ duration + level."""

    __slots__ = ("intercept", "coef_duration", "coef_level", "multiple_r", "p_duration", "p_level", "residual_df")

    def __init__(
        self,
        intercept: float,
        coef_duration: float,
        coef_level: float,
        multiple_r: float,
        p_duration: float,
        p_level: float,
        residual_df: int,
    ) -> None:
        super().__init__(intercept, coef_duration, coef_level, multiple_r, p_duration, p_level, residual_df)


def ols2(rows: Sequence[Sequence[float]] | np.ndarray) -> RegressionSummary:
    """Fit error = b0 + b1 * duration + b2 * level by least squares.

    ``rows`` is a sequence of (error, duration, level) triples; at least four
    are required so the residual has positive degrees of freedom.  P-values are
    two-sided t tests of each slope against zero.  When every error is equal,
    the intercept is that error, both slopes are exactly 0 and both p-values 1.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise InputError("regression rows must be numeric (error, duration, level) triples") from None
    if arr.shape == (0,):  # no rows at all
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InputError(f"expected rows of (error, duration, level), got shape {arr.shape}")
    m = arr.shape[0]
    if m < 4:
        raise InputError(f"insufficient rows for regression: need at least 4, got {m}")
    if not np.all(np.isfinite(arr)):
        raise InputError("regression rows contain non-finite values")

    # fit each column divided by a power of two above its largest magnitude: the scales are
    # exact, so the fit is the unscaled one wherever that one stays finite, and R and the t
    # statistics are scale-free; only the coefficients are scaled back
    _, exponents = np.frexp(np.max(np.abs(arr), axis=0))
    y, durations, levels = (np.ldexp(column, -exponent) for column, exponent in zip(arr.T, exponents))
    design = np.column_stack([np.ones(m), durations, levels])
    q, r = np.linalg.qr(design)
    # R'R = X'X, so R_jj**2 is the j-th elimination pivot of X'X; every scaled column is
    # below 1 in magnitude, so the intercept's m is the largest diagonal of X'X
    tol = _PIVOT_RTOL * m
    for j, pivot in enumerate(np.diag(r) ** 2):
        if pivot <= tol:
            raise SingularDesignError(
                f"design matrix is rank deficient: column '{_DESIGN_COLUMNS[j]}' "
                f"is linearly dependent on the preceding columns"
            )
    if (arr[:, 0] == arr[0, 0]).all():
        # every error equal: the fit is exact, so the slopes are exactly 0 and, as slope_p has it for a zero
        # standard error, their p-values 1; a fit of them would give slopes and p-values of rounding noise
        return RegressionSummary(float(arr[0, 0]) + 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, m - 3)
    r_inv = np.linalg.inv(r)
    coef = r_inv @ (q.T @ y)

    fitted = design @ coef
    residuals = y - fitted
    sse = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)

    # sst > 0: the errors are not all equal and the largest in magnitude lies in [0.5, 1), so some centred
    # error is at least about 5e-17
    r_squared = 1.0 - sse / sst
    multiple_r = math.sqrt(min(max(r_squared, 0.0), 1.0))

    residual_df = m - 3
    sigma2 = sse / residual_df

    def slope_p(j: int) -> float:
        se = math.sqrt(max(sigma2 * float(r_inv[j] @ r_inv[j]), 0.0))
        if se == 0.0:
            return 0.0 if coef[j] != 0.0 else 1.0
        return 2.0 * student_t_sf(abs(float(coef[j])) / se, residual_df)

    def unscaled(j: int) -> float:
        # coefficient j multiplies column j / 2**exponents[j] (the intercept's ones unscaled)
        try:
            return math.ldexp(float(coef[j]), int(exponents[0] - (exponents[j] if j else 0)))
        except OverflowError:
            raise InputError(f"regression coefficient '{_DESIGN_COLUMNS[j]}' is outside the float range") from None

    return RegressionSummary(
        intercept=unscaled(0),
        coef_duration=unscaled(1),
        coef_level=unscaled(2),
        multiple_r=multiple_r,
        p_duration=slope_p(1),
        p_level=slope_p(2),
        residual_df=residual_df,
    )


def _nonzero(v: float) -> float:
    """``v``, or _CF_FPMIN when |v| is below it, so the Lentz steps never divide by zero."""
    return _CF_FPMIN if abs(v) < _CF_FPMIN else v


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge within {_CF_MAX_ITER} iterations")


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t_stat: float, df: int) -> float:
    """Upper-tail probability P[T > t] for Student's t with ``df`` degrees of freedom."""
    whole = _integer(df)
    if whole is None or whole < 1:
        raise InputError(f"degrees of freedom must be a positive integer, got {df!r}")
    t = _finite(t_stat)
    if t is None:
        raise InputError(f"t statistic must be finite, got {t_stat!r}")
    if t < 0.0:
        return 1.0 - student_t_sf(-t, whole)
    x = whole / (whole + t * t)
    return 0.5 * _regularized_incomplete_beta(0.5 * whole, 0.5, x)
