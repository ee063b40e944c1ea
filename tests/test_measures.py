import datetime as dt
import warnings

import numpy as np
import pytest

from histrisk import (
    AxiomReport,
    DiscreteDistribution,
    InputError,
    Level,
    PriceSeries,
    QuantileConvention,
    ReturnSeries,
    Sample,
    axiom_report,
    convolve_independent,
    largest_alpha_quantile,
    smallest_alpha_quantile,
    tce,
    tce_discrete,
    var,
    var_discrete,
)

LARGEST = QuantileConvention.LARGEST
SMALLEST = QuantileConvention.SMALLEST

TEN = [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]


def scan_quantile(values, alpha, largest):
    # independent reference: walk the sorted sample and compare the empirical
    # CDF against 1 - alpha directly
    ordered = sorted(values)
    n = len(ordered)
    threshold = 1.0 - alpha
    for i, v in enumerate(ordered, start=1):
        cdf = i / n
        if (cdf > threshold) if largest else (cdf >= threshold):
            return v
    return ordered[-1]


def test_quantiles_ten_point_sample():
    assert largest_alpha_quantile(TEN, 0.9) == -0.02
    assert smallest_alpha_quantile(TEN, 0.9) == -0.03


def test_quantiles_two_point_sample():
    assert largest_alpha_quantile([-1.0, 1.0], 0.5) == 1.0
    assert smallest_alpha_quantile([-1.0, 1.0], 0.5) == -1.0


def test_quantiles_single_point_sample():
    for alpha in (0.01, 0.5, 0.9, 0.99):
        assert largest_alpha_quantile([0.42], alpha) == 0.42
        assert smallest_alpha_quantile([0.42], alpha) == 0.42


def test_var_ten_point_sample():
    assert var(TEN, 0.9) == 0.02
    assert var(TEN, 0.9, SMALLEST) == 0.03


def test_var_single_point():
    assert var([0.007], 0.95) == -0.007
    assert var([-0.007], 0.95) == 0.007


def test_var_translation_example():
    shifted = [v + 0.01 for v in TEN]
    assert var(shifted, 0.9) == var(TEN, 0.9) - 0.01
    assert var(shifted, 0.9) == pytest.approx(0.01, abs=1e-15)


def test_var_discrete_two_outcome():
    dist = DiscreteDistribution([2.0, -1.0], [0.95, 0.05])
    assert var_discrete(dist, 0.95) == 1.0


def test_var_discrete_single_large_loan():
    dist = DiscreteDistribution([0.0, -2.0], [0.96, 0.04])
    assert var_discrete(dist, 0.95) == 0.0


def test_var_discrete_two_small_loans():
    dist = DiscreteDistribution([0.0, -1.0, -2.0], [0.9216, 0.0768, 0.0016])
    assert var_discrete(dist, 0.95) == 1.0


def test_tce_ten_point_nonstrict():
    # tail {-0.03, -0.02}, mean -0.025
    assert tce(TEN, 0.9, LARGEST, strict=False) == pytest.approx(0.025, abs=1e-15)


def test_tce_single_point():
    assert tce([0.007], 0.5) == -0.007


def test_tce_absent_under_strict_conditioning():
    # smallest quantile sits at the sample minimum, so x < -var has no mass
    assert tce(TEN, 0.9, SMALLEST, strict=True) is None


def test_tce_discrete_concentrated_loan():
    dist = DiscreteDistribution([0.0, -2.0], [0.96, 0.04])
    assert tce_discrete(dist, 0.95) == 0.08


def test_tce_discrete_diversified_loans():
    dist = DiscreteDistribution([0.0, -1.0, -2.0], [0.9216, 0.0768, 0.0016])
    assert tce_discrete(dist, 0.95) == pytest.approx(80.0 / 78.4, rel=1e-12)


def test_tce_discrete_degenerate():
    dist = DiscreteDistribution([0.003], [1.0])
    assert tce_discrete(dist, 0.99) == -0.003


def test_tce_discrete_absent_when_strict_tail_massless():
    dist = DiscreteDistribution([2.0, -1.0], [0.95, 0.05])
    # -var = -1.0 equals the worst outcome, so the strict tail is empty
    assert tce_discrete(dist, 0.95, strict=True) is None


def test_sample_validation():
    with pytest.raises(InputError):
        Sample(np.array([]))
    with pytest.raises(InputError):
        Sample(np.array([0.1, np.nan]))
    with pytest.raises(InputError):
        Sample(np.array([[0.1, 0.2]]))


@pytest.mark.parametrize("build, field", [
    (lambda bad: Sample(bad), "sample"),
    (lambda bad: DiscreteDistribution(bad, [1.0]), "outcome values"),
    (lambda bad: DiscreteDistribution([1.0], bad), "probabilities"),
    (lambda bad: ReturnSeries("x", (dt.date(2020, 1, 1),), bad), "x: returns"),
    (lambda bad: PriceSeries("x", (dt.date(2020, 1, 1),), bad), "x: prices"),
    (lambda bad: var(bad, 0.9), "sample"),
    (lambda bad: tce(bad, 0.9), "sample"),
    (lambda bad: largest_alpha_quantile(bad, 0.9), "sample"),
    (lambda bad: axiom_report(bad, 0.9, shift=0.01, scale=2.0), "sample"),
], ids=["Sample", "DiscreteDistribution.values", "DiscreteDistribution.probabilities", "ReturnSeries",
        "PriceSeries", "var", "tce", "largest_alpha_quantile", "axiom_report"])
@pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], ["a"], [object()]], ids=["ragged", "text", "object"])
def test_non_numeric_input_names_its_field(build, field, bad):
    with pytest.raises(InputError, match=f"^{field} must be numeric and one-dimensional$"):
        build(bad)


def test_tce_finite_in_finite_out():
    # the tail {-1e308, -1e308} sums past the float range; its mean does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tce([1e308, -1e308, -1e308], 0.5) == 1e308
        assert tce([1e308, -1e308, -1.7e308, 3.0], 0.5) == pytest.approx(9e307, rel=1e-15)
        assert tce([-1.5e308, -1.5e308, 0.0], 0.5) == 1.5e308


def test_level_validation():
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(InputError):
            Level(bad)


def test_distribution_validation():
    with pytest.raises(InputError):
        DiscreteDistribution([1.0], [0.5])
    with pytest.raises(InputError):
        DiscreteDistribution([1.0, 2.0], [0.7, 0.4])
    with pytest.raises(InputError):
        DiscreteDistribution([1.0, 2.0], [-0.1, 1.1])
    with pytest.raises(InputError):
        DiscreteDistribution([np.inf, 2.0], [0.5, 0.5])


def test_quantile_matches_scan_oracle():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        if rng.random() < 0.5:
            values = rng.normal(size=n)
        else:
            # coarse grid forces duplicated values
            values = rng.integers(-3, 4, size=n) / 100.0
        alpha = float(rng.uniform(0.01, 0.99))
        assert largest_alpha_quantile(values, alpha) == scan_quantile(values, alpha, True)
        assert smallest_alpha_quantile(values, alpha) == scan_quantile(values, alpha, False)


def test_largest_quantile_at_least_smallest():
    rng = np.random.default_rng(7)
    for _ in range(300):
        values = rng.normal(size=int(rng.integers(1, 60)))
        alpha = float(rng.uniform(0.01, 0.99))
        assert largest_alpha_quantile(values, alpha) >= smallest_alpha_quantile(values, alpha)


def test_var_monotone_in_level():
    rng = np.random.default_rng(8)
    for conv in (LARGEST, SMALLEST):
        for _ in range(200):
            values = rng.normal(size=int(rng.integers(1, 80)))
            alphas = np.sort(rng.uniform(0.01, 0.99, size=5))
            vars_path = [var(values, float(a), conv) for a in alphas]
            assert all(lo <= hi for lo, hi in zip(vars_path, vars_path[1:]))


def test_var_exact_translation_and_homogeneity():
    rng = np.random.default_rng(9)
    for _ in range(300):
        values = rng.normal(size=int(rng.integers(1, 60)))
        alpha = float(rng.uniform(0.01, 0.99))
        conv = LARGEST if rng.random() < 0.5 else SMALLEST
        shift = float(rng.normal())
        scale = float(rng.uniform(0.0, 3.0))
        base = var(values, alpha, conv)
        assert var(values + shift, alpha, conv) == base - shift
        assert var(values * scale, alpha, conv) == base * scale


def test_var_nonpositive_on_nonnegative_sample():
    rng = np.random.default_rng(10)
    for _ in range(100):
        values = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 40)))
        assert var(values, float(rng.uniform(0.05, 0.99))) <= 0.0


def test_tce_at_least_var_when_defined():
    rng = np.random.default_rng(11)
    for _ in range(300):
        values = rng.normal(size=int(rng.integers(1, 60)))
        alpha = float(rng.uniform(0.01, 0.99))
        conv = LARGEST if rng.random() < 0.5 else SMALLEST
        strict = bool(rng.random() < 0.5)
        v = var(values, alpha, conv)
        t = tce(values, alpha, conv, strict=strict)
        if t is not None:
            assert t + 1e-12 >= v


def test_var_discrete_equals_var_on_equiprobable_outcomes():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        values = rng.integers(-5, 6, size=n) / 10.0
        alpha = float(rng.uniform(0.01, 0.99))
        dist = DiscreteDistribution(values, np.full(n, 1.0 / n))
        assert var_discrete(dist, alpha) == var(values, alpha, LARGEST)


def test_convolution_of_independent_loans():
    loan = DiscreteDistribution([0.0, -1.0], [0.96, 0.04])
    combined = convolve_independent(loan, loan)
    assert combined.values.tolist() == [-2.0, -1.0, 0.0]
    assert combined.probabilities == pytest.approx([0.0016, 0.0768, 0.9216], rel=1e-14)
    assert var_discrete(combined, 0.95) == 1.0


def test_var_not_subadditive_on_loan_portfolio():
    loan = DiscreteDistribution([0.0, -1.0], [0.96, 0.04])
    combined = convolve_independent(loan, loan)
    assert var_discrete(combined, 0.95) > var_discrete(loan, 0.95) + var_discrete(loan, 0.95)


def test_axiom_report_ten_point():
    report = axiom_report(TEN, 0.9, shift=0.01, scale=2.0)
    assert report == AxiomReport(True, True, True)


def test_axiom_report_single_point():
    report = axiom_report([0.004], 0.95, shift=-3.5, scale=0.0)
    assert report.translation_invariant and report.positively_homogeneous
    assert report.monotone_in_level


def test_axiom_report_validation():
    with pytest.raises(InputError):
        axiom_report(TEN, 0.9, shift=0.0, scale=-1.0)
    with pytest.raises(InputError):
        axiom_report(TEN, 0.9, shift=float("inf"), scale=1.0)
    with pytest.raises(InputError):
        axiom_report(TEN, 0.9, shift=0.0, scale=1.0, level_grid=())
