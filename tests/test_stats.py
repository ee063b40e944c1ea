import math
from fractions import Fraction

import numpy as np
import pytest

from histrisk import InputError, SingularDesignError, ols2, student_t_sf


def t_sf_quadrature(t, df):
    # independent reference: sf(t) = 1/2 - integral of the t density over
    # [0, t], a finite interval so truncation error never enters
    x = np.linspace(0.0, t, 2_000_001)
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    density = np.exp(log_norm - ((df + 1) / 2) * np.log1p(x * x / df))
    return 0.5 - float(np.trapezoid(density, x))


def normal_sf(t):
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def make_rows(durations, levels, errors):
    return list(zip(errors, durations, levels))


def test_planted_linear_model_recovered_exactly():
    durations = [10.0, 20.0, 50.0, 100.0, 250.0]
    levels = [0.90, 0.95, 0.99, 0.90, 0.95]
    errors = [2.0 + 3.0 * d - 1.0 * a for d, a in zip(durations, levels)]
    summary = ols2(make_rows(durations, levels, errors))
    assert summary.intercept == pytest.approx(2.0, abs=1e-9)
    assert summary.coef_duration == pytest.approx(3.0, abs=1e-9)
    assert summary.coef_level == pytest.approx(-1.0, abs=1e-9)
    assert summary.multiple_r == pytest.approx(1.0, abs=1e-9)
    assert summary.residual_df == 2


def test_constant_response():
    durations = [10.0, 20.0, 50.0, 100.0]
    levels = [0.90, 0.95, 0.99, 0.90]
    summary = ols2(make_rows(durations, levels, [0.7] * 4))
    assert summary.coef_duration == pytest.approx(0.0, abs=1e-12)
    assert summary.coef_level == pytest.approx(0.0, abs=1e-12)
    assert summary.multiple_r == 0.0


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(4, 30))
        durations = rng.uniform(5.0, 500.0, m)
        levels = rng.uniform(0.5, 0.999, m)
        errors = rng.normal(size=m)
        summary = ols2(make_rows(durations, levels, errors))
        design = np.column_stack([np.ones(m), durations, levels])
        beta = np.linalg.solve(design.T @ design, design.T @ errors)
        assert summary.intercept == pytest.approx(beta[0], abs=1e-9)
        assert summary.coef_duration == pytest.approx(beta[1], abs=1e-9)
        assert summary.coef_level == pytest.approx(beta[2], abs=1e-9)
        sse = float(((errors - design @ beta) ** 2).sum())
        sst = float(((errors - errors.mean()) ** 2).sum())
        assert summary.multiple_r**2 == pytest.approx(1.0 - sse / sst, abs=1e-10)
        assert 0.0 <= summary.p_duration <= 1.0
        assert 0.0 <= summary.p_level <= 1.0


def test_response_scaling_scales_coefficients_only():
    rng = np.random.default_rng(21)
    durations = rng.uniform(10.0, 400.0, 12)
    levels = rng.uniform(0.85, 0.99, 12)
    errors = rng.normal(size=12)
    base = ols2(make_rows(durations, levels, errors))
    scaled = ols2(make_rows(durations, levels, errors * 4.0))
    assert scaled.coef_duration == pytest.approx(4.0 * base.coef_duration, rel=1e-10)
    assert scaled.coef_level == pytest.approx(4.0 * base.coef_level, rel=1e-10)
    assert scaled.multiple_r == pytest.approx(base.multiple_r, abs=1e-12)
    assert scaled.p_duration == pytest.approx(base.p_duration, abs=1e-12)
    assert scaled.p_level == pytest.approx(base.p_level, abs=1e-12)


def test_response_shift_moves_intercept_only():
    rng = np.random.default_rng(22)
    durations = rng.uniform(10.0, 400.0, 12)
    levels = rng.uniform(0.85, 0.99, 12)
    errors = rng.normal(size=12)
    base = ols2(make_rows(durations, levels, errors))
    shifted = ols2(make_rows(durations, levels, errors + 5.0))
    assert shifted.intercept == pytest.approx(base.intercept + 5.0, abs=1e-9)
    assert shifted.coef_duration == pytest.approx(base.coef_duration, abs=1e-10)
    assert shifted.coef_level == pytest.approx(base.coef_level, abs=1e-10)


def test_rank_deficient_level_column():
    durations = [10.0, 20.0, 50.0, 100.0]
    with pytest.raises(SingularDesignError, match="level"):
        ols2(make_rows(durations, [0.9] * 4, [1.0, 2.0, 3.0, 4.0]))


def test_rank_deficient_duration_column():
    levels = [0.90, 0.95, 0.99, 0.975]
    with pytest.raises(SingularDesignError, match="duration"):
        ols2(make_rows([50.0] * 4, levels, [1.0, 2.0, 3.0, 4.0]))


def test_rank_deficient_level_linear_in_duration():
    # level = 0.5 + duration / 64 holds exactly in binary floating point
    durations = [2.0, 4.0, 6.0, 8.0, 10.0]
    levels = [0.5 + d / 64.0 for d in durations]
    with pytest.raises(SingularDesignError, match="level"):
        ols2(make_rows(durations, levels, [1.0, 3.0, 2.0, 5.0, 4.0]))


def exact_ols(rows):
    """Coefficients of the normal equations solved in exact rational arithmetic."""
    x = [(Fraction(1), Fraction(d), Fraction(a)) for _, d, a in rows]
    y = [Fraction(e) for e, _, _ in rows]
    aug = [[sum(r[i] * r[j] for r in x) for j in range(3)] + [sum(r[i] * v for r, v in zip(x, y))]
           for i in range(3)]
    for j in range(3):
        for i in range(3):
            if i != j:
                factor = aug[i][j] / aug[j][j]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[j])]
    return [aug[j][3] / aug[j][j] for j in range(3)]


def test_matches_exact_rational_solve():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(4, 14))
        rows = list(zip(
            np.round(rng.normal(size=m), 6).tolist(),
            rng.choice([5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 500.0], m).tolist(),
            rng.choice([0.9, 0.95, 0.975, 0.99], m).tolist(),
        ))
        try:
            exact = exact_ols(rows)
        except ZeroDivisionError:
            with pytest.raises(SingularDesignError):
                ols2(rows)
            continue
        summary = ols2(rows)
        fitted = (summary.intercept, summary.coef_duration, summary.coef_level)
        scale = max(1.0, *(abs(float(b)) for b in exact))
        for got, want in zip(fitted, exact):
            assert got == pytest.approx(float(want), abs=1e-9 * scale)


def test_half_way_intercept_rounds_like_exact_solve():
    # var_errors rows of one asset of a 4-spec tick-size backtest: the exact
    # intercept is -10.40793450000001505..., just past the half-way point
    # between -10.407934 and -10.407935, so six decimals must read -10.407935
    rows = [(0.727973, 5.0, 0.9), (-0.043009, 10.0, 0.9), (0.913983, 10.0, 0.95), (-0.0006, 20.0, 0.9)]
    exact = exact_ols(rows)[0]
    half_way = Fraction(-104079345, 10**7)
    assert half_way - Fraction(1, 10**13) < exact < half_way
    assert f"{ols2(rows).intercept:+.6f}" == "-10.407935"


def test_insufficient_rows():
    with pytest.raises(InputError, match="insufficient rows"):
        ols2([(1.0, 10.0, 0.9), (2.0, 20.0, 0.95), (3.0, 50.0, 0.99)])


def test_non_finite_rows_rejected():
    rows = [(1.0, 10.0, 0.9), (float("nan"), 20.0, 0.95), (3.0, 50.0, 0.99), (4.0, 100.0, 0.9)]
    with pytest.raises(InputError):
        ols2(rows)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5]], [["a", 1, 2]] * 4, [[object(), 1, 2]] * 4],
                         ids=["ragged", "text", "object"])
def test_non_numeric_rows_rejected(rows):
    with pytest.raises(InputError, match="^regression rows must be numeric"):
        ols2(rows)


def test_t_sf_at_zero():
    for df in (1, 2, 5, 60, 1000):
        assert student_t_sf(0.0, df) == 0.5


def test_t_sf_cauchy_closed_form():
    # df = 1 is the Cauchy distribution: sf(t) = 1/2 - atan(t)/pi
    assert student_t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-12)
    for t in (-3.0, -0.7, 0.2, 1.5, 4.0, 25.0):
        assert student_t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-12)


def test_t_sf_df2_closed_form():
    # sf(t) = 1/2 - t / (2 sqrt(2 + t^2))
    for t in (-2.0, -0.5, 0.3, 1.0, 2.5, 8.0):
        expected = 0.5 - t / (2.0 * math.sqrt(2.0 + t * t))
        assert student_t_sf(t, 2) == pytest.approx(expected, abs=1e-12)


def test_t_sf_matches_quadrature():
    for t, df in ((0.5, 3), (1.3, 7), (2.0, 60), (3.1, 25)):
        assert student_t_sf(t, df) == pytest.approx(t_sf_quadrature(t, df), abs=1e-9)


def test_t_sf_df60_at_two_frozen():
    # quadrature-verified value; the normal tail at 2 is 0.0227501, so the
    # df=60 tail still differs from the normal limit by about 2.3e-3
    assert student_t_sf(2.0, 60) == pytest.approx(0.0250165218257287, abs=1e-12)


def test_t_sf_normal_limit_large_df():
    for t in (0.5, 1.0, 2.0):
        assert student_t_sf(t, 1_000_000) == pytest.approx(normal_sf(t), abs=1e-6)


def test_t_sf_symmetry():
    for df in (1, 4, 60):
        for t in (0.1, 0.9, 2.2, 6.0):
            assert student_t_sf(t, df) + student_t_sf(-t, df) == pytest.approx(1.0, abs=1e-12)


def test_t_sf_strictly_decreasing():
    grid = np.linspace(-6.0, 6.0, 41)
    for df in (1, 3, 30):
        values = [student_t_sf(float(t), df) for t in grid]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))


def test_t_sf_validation():
    with pytest.raises(InputError):
        student_t_sf(1.0, 0)
    with pytest.raises(InputError):
        student_t_sf(float("nan"), 5)


def test_t_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 5, 10, 30, 60, 1_000, 100_000, 10_000_000):
        for t in np.linspace(-40.0, 40.0, 321):
            want = float(stats.t.sf(t, df))
            if want > 1e-12:
                assert student_t_sf(float(t), df) == pytest.approx(want, rel=1e-7), (t, df)
