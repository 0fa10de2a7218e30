"""Log-space probability kernels shared by the test statistics.

Everything works on natural logs so that sample sizes up to about 1e9
stay inside double precision. Domain edges follow the 0^0 = 1
convention, which keeps the binomial mass continuous at theta in {0, 1}
and lets the k = 1 and lambda = 0 corner cases of the bound formulas
fall out of the generic expressions.
"""

from __future__ import annotations

import math
import sys

from scipy.special import gammaln, log_ndtr

__all__ = [
    "log_binomial_pmf",
    "log_poisson_pmf",
    "log_cn",
    "log_normal_sf",
    "log_ratio_poisson_binomial",
    "stirling_factor",
]


def log_binomial_pmf(k: int, n: int, theta: float) -> float:
    """Natural log of the binomial(n, theta) mass at k.

    Parameters
    ----------
    k : int
        Number of successes, 0 <= k <= n.
    n : int
        Number of trials, n >= 1.
    theta : float
        Success probability in [0, 1].

    Returns
    -------
    float
        ln[C(n, k) theta^k (1-theta)^(n-k)], evaluated through
        log-gamma. Degenerate theta gives 0.0 at the certain outcome
        and -inf elsewhere (0^0 = 1 convention).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return 0.0 if k == 0 else -math.inf
    if theta == 1.0:
        return 0.0 if k == n else -math.inf
    return float(
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(theta)
        + (n - k) * math.log1p(-theta)
    )


def log_poisson_pmf(k: int, lam: float) -> float:
    """Natural log of the Poisson(lam) mass at k, with Poisson(0) a
    point mass at zero."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0.0:
        return 0.0 if k == 0 else -math.inf
    return float(k * math.log(lam) - lam - gammaln(k + 1))


def _stirling_delta(k: int) -> float:
    # ln k! - (k ln k - k + 0.5 ln(2 pi k)) through the alternating
    # series 1/(12k) - 1/(360k^3) + 1/(1260k^5) - 1/(1680k^7); the
    # remainder is positive and under 1/(1188 k^9), negligible for the
    # k >= 21 callers.
    ik = 1.0 / k
    ik2 = ik * ik
    return ik * (
        1.0 / 12.0 + ik2 * (-1.0 / 360.0 + ik2 * (1.0 / 1260.0 - ik2 / 1680.0))
    )


def stirling_factor(k: int) -> float:
    """The factor (1 - eps_k) = k^k e^-k sqrt(2 pi k) / k!.

    Lies in (0, 1) and increases to 1; the classical two-sided bracket
    exp(-1/(12k)) <= 1 - eps_k <= exp(-1/(12k+1)) is asserted on every
    call, to within rounding, so a violation (only possible through a
    numerics regression) fails loudly. Small k evaluates the defining
    formula through log-gamma; large k switches to the
    remainder-bounded correction series, because the bracket narrows
    like 1/(144 k^2) and the cancellation between the O(k ln k) log
    terms would otherwise drown it in rounding noise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > sys.float_info.max:
        raise ValueError(f"k is past the largest float, {sys.float_info.max:.6g}")
    if k <= 20:
        value = math.exp(
            k * math.log(k) - k + 0.5 * math.log(2.0 * math.pi * k) - gammaln(k + 1)
        )
        assert math.exp(-1.0 / (12 * k)) <= value <= math.exp(-1.0 / (12 * k + 1))
        return value
    delta = _stirling_delta(k)
    # Past k of about 1e14 the bracket, 1/(144 k^2) wide, is narrower
    # than delta's rounding: k to a float, 1/k, 1/12 and the product
    # each round by up to an ulp of delta, each side (an int quotient,
    # which cannot overflow) by half of one; so 5 ulps either side.
    slack = 5 * math.ulp(delta)
    assert 1 / (12 * k + 1) - slack <= delta <= 1 / (12 * k) + slack
    return math.exp(-delta)


# log_cn's switch from the log-gamma form to Stirling's series. Below
# it the log-gamma form is within 1e-9 and pinned outputs rest on its
# bits; above it the cancellation between ln(n!) and n ln n - n costs
# about ulp(n ln n): 2.5e-7 at n = 1e8, the whole charge of 19.3 at 1e16.
_CN_SERIES_FROM = 2**20


def log_cn(n: int) -> float:
    """ln c_n = ln(n!) - n ln n + n, the penalty for treating the n
    observed counts as independent Poisson draws.

    c_n is about sqrt(2 pi n), so the log is a mild additive charge
    against log-scale significance. Large n, Python ints past int64
    included, takes 0.5 ln(2 pi n) plus Stirling's correction series
    as `stirling_factor` does, since the log-gamma form would lose the
    charge to cancellation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"n is past the largest float, {sys.float_info.max:.6g}")
    if n > _CN_SERIES_FROM:
        # 2 pi n overflows past the largest float / (2 pi): log n apart
        scaled = 2.0 * math.pi * n
        log_scaled = math.log(scaled) if scaled < math.inf else math.log(2.0 * math.pi) + math.log(n)
        return 0.5 * log_scaled + _stirling_delta(n)
    return float(gammaln(n + 1) - n * math.log(n) + n)


def log_normal_sf(y: float) -> float:
    """ln(1 - Phi(y)), stable for large y.

    Delegates to scipy's log_ndtr, which switches to the asymptotic
    tail expansion where naive 1 - Phi(y) would underflow (y around 8
    and beyond), so log-scale significance is exact arbitrarily far
    into the tail.
    """
    return float(log_ndtr(-y))


def log_ratio_poisson_binomial(k: int, n: int, theta: float) -> float:
    """ln of Poisson(n theta) mass at k over binomial(n, theta) mass at k.

    Quantifies the poissonization error for one count; vanishes in the
    regime n theta^2 -> 0 that the sparse-support tests live in.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly in (0, 1), got {theta}")
    return log_poisson_pmf(k, n * theta) - log_binomial_pmf(k, n, theta)
