"""Checks for the log-space probability kernels."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, ndtr

from iidtest.numerics import (
    log_binomial_pmf,
    log_cn,
    log_normal_sf,
    log_poisson_pmf,
    log_ratio_poisson_binomial,
    stirling_factor,
)


def test_binomial_small_cases_match_hand_arithmetic():
    assert log_binomial_pmf(1, 2, 0.5) == pytest.approx(math.log(0.5), rel=1e-14)
    assert log_binomial_pmf(2, 4, 0.5) == pytest.approx(math.log(3 / 8), rel=1e-14)
    assert log_binomial_pmf(0, 3, 0.25) == pytest.approx(3 * math.log(0.75), rel=1e-14)


def test_binomial_central_value_against_big_integer_oracle():
    exact = float(Fraction(math.comb(1000, 500), 2**1000))
    got = math.exp(log_binomial_pmf(500, 1000, 0.5))
    assert got == pytest.approx(exact, rel=1e-11)
    assert got == pytest.approx(math.sqrt(2.0 / (math.pi * 1000.0)), rel=2e-3)


def test_binomial_degenerate_theta_uses_zero_power_zero_convention():
    assert log_binomial_pmf(0, 5, 0.0) == 0.0
    assert log_binomial_pmf(5, 5, 1.0) == 0.0
    assert log_binomial_pmf(2, 5, 0.0) == -math.inf
    assert log_binomial_pmf(3, 5, 1.0) == -math.inf


def test_binomial_symmetry_under_success_failure_swap():
    for k, n, theta in [(3, 10, 0.2), (0, 7, 0.9), (5, 5, 0.3)]:
        assert log_binomial_pmf(k, n, theta) == pytest.approx(
            log_binomial_pmf(n - k, n, 1.0 - theta), rel=1e-13
        )


def test_binomial_rejects_out_of_range_arguments():
    with pytest.raises(ValueError):
        log_binomial_pmf(3, 2, 0.5)
    with pytest.raises(ValueError):
        log_binomial_pmf(-1, 2, 0.5)
    with pytest.raises(ValueError):
        log_binomial_pmf(1, 2, 1.5)
    with pytest.raises(ValueError):
        log_binomial_pmf(0, 0, 0.5)


def test_poisson_zero_rate_is_point_mass_at_zero():
    assert log_poisson_pmf(0, 0.0) == 0.0
    assert log_poisson_pmf(3, 0.0) == -math.inf


def test_poisson_small_values():
    assert log_poisson_pmf(2, 1.0) == pytest.approx(-1.0 - math.log(2.0), rel=1e-14)
    assert log_poisson_pmf(0, 2.5) == pytest.approx(-2.5, rel=1e-14)


def test_poisson_mode_value_ties_to_stirling_factor():
    # P_k(k) = (1 - eps_k) / sqrt(2 pi k), the mode of the pmf in lambda
    for k in (1, 9, 40):
        got = math.exp(log_poisson_pmf(k, float(k)))
        assert got == pytest.approx(stirling_factor(k) / math.sqrt(2 * math.pi * k), rel=1e-12)
    value9 = math.exp(log_poisson_pmf(9, 9.0)) * math.sqrt(2 * math.pi * 9)
    assert math.exp(-1.0 / 108.0) <= value9 <= math.exp(-1.0 / 109.0)


def test_poisson_unimodal_in_rate_with_peak_at_k():
    k = 4
    grid = np.linspace(0.5, 12.0, 2301)
    values = [log_poisson_pmf(k, lam) for lam in grid]
    assert grid[int(np.argmax(values))] == pytest.approx(4.0, abs=0.006)


def test_poisson_mass_mean_and_variance():
    lam = 3.0
    ks = range(0, 80)
    mass = [math.exp(log_poisson_pmf(k, lam)) for k in ks]
    assert math.fsum(mass) == pytest.approx(1.0, abs=1e-12)
    mean = math.fsum(k * p for k, p in zip(ks, mass))
    second = math.fsum(k * k * p for k, p in zip(ks, mass))
    assert mean == pytest.approx(lam, abs=1e-8)
    assert second - mean * mean == pytest.approx(lam, abs=1e-8)


def test_poisson_rejects_negative_arguments():
    with pytest.raises(ValueError):
        log_poisson_pmf(-1, 1.0)
    with pytest.raises(ValueError):
        log_poisson_pmf(1, -0.5)


def test_stirling_factor_small_k_closed_forms():
    assert stirling_factor(1) == pytest.approx(math.sqrt(2 * math.pi) / math.e, rel=1e-13)
    assert stirling_factor(2) == pytest.approx(
        4 * math.exp(-2) * math.sqrt(4 * math.pi) / 2, rel=1e-13
    )


def test_stirling_factor_bracket_and_monotone_growth():
    ks = [1, 2, 3, 12, 20, 21, 100, 5000, 10**5]
    values = [stirling_factor(k) for k in ks]
    for k, v in zip(ks, values):
        assert math.exp(-1.0 / (12 * k)) <= v <= math.exp(-1.0 / (12 * k + 1))
    assert values == sorted(values)
    assert stirling_factor(12) >= math.exp(-1.0 / 144.0)
    assert stirling_factor(12) <= math.exp(-1.0 / 145.0)
    assert abs(stirling_factor(10**6) - 1.0) < 1e-6


def test_stirling_factor_series_route_agrees_with_log_gamma():
    # above k = 20 the factor comes from the correction series; it must
    # match the direct log-gamma evaluation to within its cancellation
    # noise, which is well under 1e-11 at these k
    for k in (21, 22, 30, 64, 200):
        direct = math.exp(
            k * math.log(k) - k + 0.5 * math.log(2 * math.pi * k) - gammaln(k + 1)
        )
        assert stirling_factor(k) == pytest.approx(direct, rel=1e-11)


def _mp_stirling_delta(mpmath, k):
    # ln k! - (k ln k - k + 0.5 ln(2 pi k)) to 60 digits: the working
    # precision covers the cancellation of the O(k ln k) terms too
    with mpmath.workdps(60 + 2 * len(str(k))):
        k = mpmath.mpf(k)
        return mpmath.loggamma(k + 1) - (k * mpmath.log(k) - k + mpmath.log(2 * mpmath.pi * k) / 2)


# past k of about 1e14 the bracket is narrower than the rounding of
# the correction; the largest float is the last k taken
_HUGE_KS = [10**15, 10**16, 10**17, 10**20, *(10**e for e in range(30, 301, 30)), 2**1023, int(sys.float_info.max)]


@pytest.mark.parametrize("k", _HUGE_KS)
def test_stirling_factor_matches_a_60_digit_oracle_where_the_bracket_is_below_an_ulp(k):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        exact = float(mpmath.exp(-_mp_stirling_delta(mpmath, k)))
    assert abs(stirling_factor(k) - exact) <= math.ulp(exact)


def test_stirling_factor_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        stirling_factor(0)


def test_log_cn_exact_at_one():
    assert log_cn(1) == 1.0


def test_log_cn_bracket_at_n_100():
    ratio = math.exp(log_cn(100)) / math.sqrt(200 * math.pi)
    assert math.exp(1.0 / 1201.0) <= ratio <= math.exp(1.0 / 1200.0)


def test_log_cn_tends_to_half_log_2_pi_n():
    n = 10**6
    assert log_cn(n) == pytest.approx(0.5 * math.log(2 * math.pi * n), abs=1e-6)


def test_log_cn_stirling_identity():
    for n in (1, 2, 10, 137, 10**4):
        assert log_cn(n) == pytest.approx(
            0.5 * math.log(2 * math.pi * n) - math.log(stirling_factor(n)), abs=1e-9
        )
    with pytest.raises(ValueError):
        log_cn(0)


# n = 10^e and 3 10^e from 1e2 to 1e30, the switch to Stirling's series
# on both sides, and the edges of doubles, int64 and uint64
_CN_NS = sorted(
    [c * 10**e for e in range(2, 31) for c in (1, 3)][:-1] + [2**20, 2**20 + 1, 2**53, 2**63, 2**64]
)


@pytest.mark.parametrize("n", _CN_NS)
def test_log_cn_matches_a_60_digit_oracle(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        exact = float(mpmath.loggamma(n + 1) - n * mpmath.log(n) + n)
    # the log-gamma form loses ulp(n ln n) to cancellation below the
    # switch; the series keeps a few ulps of the charge above it
    assert abs(log_cn(n) - exact) <= (1e-9 if n <= 2**20 else 4 * math.ulp(exact))


def _cn_edge():
    # the last float n at which 2 pi n is finite, and the next float
    x = sys.float_info.max / (2.0 * math.pi)
    while 2.0 * math.pi * math.nextafter(x, math.inf) < math.inf:
        x = math.nextafter(x, math.inf)
    while 2.0 * math.pi * x == math.inf:
        x = math.nextafter(x, 0.0)
    return [int(x), int(math.nextafter(x, math.inf))]


_CN_EDGE = _cn_edge()


@pytest.mark.parametrize("n", [10**300, *_CN_EDGE, 2**1023, int(sys.float_info.max)])
def test_log_cn_near_the_largest_float_matches_a_60_digit_oracle(n):
    # 2 pi n overflows past the largest float / (2 pi), where ln c_n is
    # still only about 355
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        exact = float(mpmath.log(2 * mpmath.pi * n) / 2 + _mp_stirling_delta(mpmath, n))
    assert abs(log_cn(n) - exact) <= 4 * math.ulp(exact)
    if 2.0 * math.pi * n < math.inf:
        # the bits of the one-log form wherever 2 pi n is finite (the
        # series' correction is below an ulp of the charge at these n)
        assert log_cn(n) == 0.5 * math.log(2.0 * math.pi * n)


@pytest.mark.parametrize("n", [2, 200, 1000, 10**5, 2**20])
def test_log_cn_keeps_the_log_gamma_form_below_the_switch(n):
    # pinned reports (c_n on at n = 200, the n = 1e5 benchmark) rest on these bits
    assert log_cn(n) == float(gammaln(n + 1) - n * math.log(n) + n)


def test_log_normal_sf_deep_tail_anchors():
    # frozen from a 40-digit complementary-error-function evaluation
    assert log_normal_sf(5.0) == pytest.approx(-15.06499839398872573608, rel=1e-10)
    assert log_normal_sf(40.0) == pytest.approx(-804.6084420137537881666, rel=1e-10)


def test_log_normal_sf_matches_cdf_in_moderate_range():
    for y in (-2.0, -0.3, 0.0, 1.0, 3.0):
        assert log_normal_sf(y) == pytest.approx(math.log(1.0 - ndtr(y)), rel=1e-12)


def test_log_normal_sf_strictly_decreasing():
    ys = np.linspace(-10.0, 45.0, 111)
    values = [log_normal_sf(y) for y in ys]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_log_ratio_is_difference_of_the_two_pmf_logs():
    got = log_ratio_poisson_binomial(2, 100, 0.02)
    assert got == pytest.approx(
        log_poisson_pmf(2, 2.0) - log_binomial_pmf(2, 100, 0.02), rel=1e-13
    )


def test_log_ratio_vanishes_in_sparse_regime():
    assert abs(math.exp(log_ratio_poisson_binomial(0, 10**6, 1e-6)) - 1.0) < 1e-5
    assert abs(math.exp(log_ratio_poisson_binomial(30, 10**6, 3e-5)) - 1.0) <= 0.01


def test_log_ratio_rejects_degenerate_theta():
    for theta in (0.0, 1.0):
        with pytest.raises(ValueError):
            log_ratio_poisson_binomial(1, 10, theta)
