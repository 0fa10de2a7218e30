"""One-sided tests of the iid hypothesis built on count multiplicities.

Every test follows the same scheme: a functional T of the
multiplicities m_k is compared against a closed-form upper bound
tau_ub on its mean under iid sampling, the excess is standardized by a
variance upper bound, and the standardized score is turned into a
conservative p-value. Seven statistics are implemented:

====================  =====================================================
even / odd            number of items whose count is even (odd), weighted
                      by the count: sum of k*m_k over even k (odd k != 1)
count:k               m_k itself
slope:k, slopelower:k m_k - m_{k-1} and its negation
curv:k                2 m_k - m_{k-1} - m_{k+1}
logcurv:k             2 ln m_k - ln m_{k-1} - ln m_{k+1}
====================  =====================================================

Bounds come in two interchangeable modes. Poisson mode treats counts
as independent Poisson variables; its constants are n-free per item
and strict validity costs the c_n ~ sqrt(2 pi n) correction factor
(off by default, available via ``cn_correction``). Multinomial mode
derives n-specific bounds with no correction needed; it requires
k < n. The two agree to a few percent once n >> k.

Variance bounds are empirical (plug in the observed m) except for the
count family, whose default is the theoretical bound; only the linear
families of ``FAMILIES`` have a theoretical bound. The even/odd mean
bounds carry an unquantified third-moment accuracy term, so their
p-values are approximate in the extreme sparse regime; the
count/slope/curvature families do not share this caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from scipy.special import gammaln

from .counts import CountProfile, _is_int
from .numerics import log_binomial_pmf, log_cn, log_normal_sf

__all__ = [
    "Mode",
    "VarianceSource",
    "PValueMethod",
    "TestKind",
    "TestOptions",
    "TestResult",
    "CombinedResult",
    "Family",
    "FAMILIES",
    "DEFAULT_SUITE",
    "parse_kind",
    "statistic",
    "bound_mean",
    "bound_variance",
    "theoretical_variance",
    "p_value_gaussian",
    "p_value_bernstein",
    "run_test",
    "combine_bonferroni",
    "combine_weighted_infinite",
]


class Mode(str, Enum):
    POISSON = "poisson"
    MULTINOMIAL = "multinomial"


class VarianceSource(str, Enum):
    AUTO = "auto"
    EMPIRICAL = "empirical"
    THEORETICAL = "theoretical"


class PValueMethod(str, Enum):
    GAUSSIAN = "gaussian"
    BERNSTEIN = "bernstein"


@dataclass(frozen=True)
class Family:
    """The rules of one test family.

    ``min_k`` is the smallest admissible k (None for the k-free even
    and odd). A linear family also carries ``weights``, a map from the
    offset j - k to the weight of m_j in T = sum w m_j. The statistic,
    the empirical (sum w^2 m_j) and theoretical (sum w^2 mu_j) variance
    bounds, the Bernstein range max |w| and ``min_k`` all follow from
    it; a family without weights has no theoretical variance. Sums run
    in the weights' order.
    """

    min_k: int | None
    weights: dict[int, int] | None = None

    @classmethod
    def linear(cls, weights: dict[int, int]) -> Family:
        return cls(1 - min(weights), weights)


# the order is the one `iidtest bounds` prints by default
FAMILIES: dict[str, Family] = {
    "count": Family.linear({0: 1}),
    "slope": Family.linear({0: 1, -1: -1}),
    "slopelower": Family.linear({-1: 1, 0: -1}),
    "curv": Family.linear({0: 2, -1: -1, 1: -1}),
    "logcurv": Family(min_k=2),
    "even": Family(min_k=None),
    "odd": Family(min_k=None),
}

_TINY_P = math.ulp(0.0)


@dataclass(frozen=True)
class TestKind:
    """One member of the test family, e.g. ``count`` at k=2.

    ``family`` is one of even, odd, count, slope, slopelower, curv,
    logcurv; ``k`` is required for all but even/odd (count allows
    k >= 1, the rest k >= 2).
    """

    family: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown test family {self.family!r}")
        min_k = FAMILIES[self.family].min_k
        if min_k is None:
            if self.k is not None:
                raise ValueError(f"{self.family} takes no k")
        else:
            if self.k is None:
                raise ValueError(f"{self.family} needs k >= {min_k}")
            if not _is_int(self.k) or self.k < min_k:
                raise ValueError(f"{self.family} needs integer k >= {min_k}, got {self.k!r}")

    def __str__(self) -> str:
        return self.family if self.k is None else f"{self.family}:{self.k}"


def parse_kind(token: str) -> TestKind:
    """Parse a kind token such as ``even`` or ``slope:3``."""
    name, sep, tail = token.strip().partition(":")
    if not sep:
        return TestKind(name)
    try:
        k = int(tail)
    except ValueError:
        raise ValueError(f"bad k in test token {token!r}") from None
    return TestKind(name, k)


DEFAULT_SUITE: tuple[TestKind, ...] = (
    TestKind("even"),
    TestKind("odd"),
    TestKind("count", 2),
    TestKind("slope", 2),
    TestKind("curv", 2),
    TestKind("logcurv", 2),
)


@dataclass(frozen=True)
class TestOptions:
    """Evaluation knobs shared by all kinds.

    Defaults match the plain experimental configuration: Poisson-mode
    bounds, no c_n correction, per-family automatic variance source
    (theoretical for count, empirical otherwise), Gaussian tail.
    Enabling ``cn_correction`` buys strict validity of the Poisson
    bounds at the price of ~ln sqrt(2 pi n) of log-significance.
    """

    mode: Mode = Mode.POISSON
    cn_correction: bool = False
    variance_source: VarianceSource = VarianceSource.AUTO
    pvalue_method: PValueMethod = PValueMethod.GAUSSIAN

    def __post_init__(self) -> None:
        # a truthy string such as "off" must not switch the charge on
        if not isinstance(self.cn_correction, bool):
            raise ValueError(f"cn_correction must be True or False, got {self.cn_correction!r}")
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "variance_source", VarianceSource(self.variance_source))
        object.__setattr__(self, "pvalue_method", PValueMethod(self.pvalue_method))


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test on one profile.

    For the logcurv family, ``statistic`` and ``tau_ub`` live on the
    log scale while ``v_ub`` is reported on the count scale n^2 times
    the inverse-multiplicity sum; ``z`` uses the delta-method form
    n (statistic - tau_ub) / sqrt(v_ub), which is the same number as
    dividing the log-scale excess by sqrt(1/m_{k-1} + 4/m_k + 1/m_{k+1}).
    Every other family satisfies z = (statistic - tau_ub)/sqrt(v_ub)
    directly.

    ``p`` equals min(1, exp(log_p)) clamped below to the smallest
    positive float, so the exact tail mass is always recoverable from
    ``log_p``. ``applicable`` False forces p = 1; ``notes`` records
    which bounds produced the numbers.
    """

    kind: TestKind
    n: int
    statistic: float
    tau_ub: float
    v_ub: float
    z: float
    log_p: float
    p: float
    applicable: bool = True
    notes: str = ""

    def to_dict(self) -> dict:
        def scrub(x: float) -> float | None:
            return x if math.isfinite(x) else None

        return {
            "kind": self.kind.family,
            "k": self.kind.k,
            "statistic": scrub(self.statistic),
            "tau_ub": scrub(self.tau_ub),
            "v_ub": scrub(self.v_ub),
            "z": scrub(self.z),
            "log_p": scrub(self.log_p),
            "p": self.p,
            "applicable": self.applicable,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class CombinedResult:
    """A multiple-testing combination: overall p, the member that
    attained it, and the decision when a level was supplied."""

    p: float
    source: TestKind | None
    reject: bool | None = None


def _included_k(odd: bool, m: dict, n: int, mode: Mode) -> list[int]:
    # even counts all even k >= 2; odd skips k=1 because every fresh item
    # contributes there; multinomial mode also drops k=n (the all-equal
    # count is pinned by the sample size, not by repetition structure)
    out = []
    for k in m:
        if k % 2 != odd or k == 1:
            continue
        if mode is Mode.MULTINOMIAL and k == n:
            continue
        out.append(k)
    return out


def statistic(kind: TestKind, profile: CountProfile, mode: Mode = Mode.POISSON) -> float:
    """Evaluate the raw test statistic T on a profile.

    The even/odd sums are mode-aware (multinomial mode excludes k = n).
    Raises ValueError for logcurv when any of the three multiplicities
    it touches is zero; decision-level handling of those profiles lives
    in run_test.
    """
    m = profile.multiplicities
    k = kind.k
    fam = kind.family
    weights = FAMILIES[fam].weights
    if weights is not None:
        return float(sum(w * m.get(k + off, 0) for off, w in weights.items()))
    if k is None:
        return float(sum(j * m[j] for j in _included_k(fam == "odd", m, profile.n, mode)))
    # logcurv
    mk = (m.get(k - 1, 0), m.get(k, 0), m.get(k + 1, 0))
    if min(mk) == 0:
        raise ValueError(
            f"logcurv:{k} undefined: m_{k-1}, m_{k}, m_{k+1} = {mk} contain a zero"
        )
    return 2.0 * math.log(mk[1]) - math.log(mk[0]) - math.log(mk[2])


def _theta_star(k: int, n: int, sign: int) -> float:
    # stationary points of [f_k^n(theta) - f_{k-1}^n(theta)] / theta,
    # roots of an exact quadratic in theta
    disc = k * k * (5.0 - 4.0 * n) + k * (4.0 * n * n - 2.0 * n - 6.0) + (n + 1.0) ** 2
    if disc < 0.0:
        raise ValueError(f"no real stationary point for slope k={k}, n={n}")
    theta = (2.0 * k * n - k - n - 1.0 + sign * math.sqrt(disc)) / (2.0 * (n * n - 1.0))
    return theta


def _slope_envelope(k: int, n: int, theta: float, lower: bool) -> float:
    # value of |f_k^n - f_{k-1}^n| / theta at a stationary theta:
    # C(n+1, k) theta^(k-2) (1-theta)^(n-k) |theta - k/(n+1)|
    gap = (k / (n + 1.0) - theta) if lower else (theta - k / (n + 1.0))
    if not 0.0 < theta < 1.0 or gap <= 0.0:
        raise ValueError(f"stationary point out of range for k={k}, n={n}")
    log_coef = gammaln(n + 2) - gammaln(k + 1) - gammaln(n - k + 2)
    return math.exp(log_coef + (k - 2) * math.log(theta) + (n - k) * math.log1p(-theta)) * gap


def bound_mean(kind: TestKind, n: int, mode: Mode = Mode.POISSON) -> float:
    """Upper bound tau_ub on E[T] under iid sampling.

    Poisson-mode bounds are linear in n (except logcurv, whose bound
    ln((k+1)/k) sits on the statistic's own log scale) and hold for
    every n; strict validity requires the c_n correction at p-value
    time. Multinomial-mode bounds are exact for the given n and need
    k < n. count at k=1 and slopelower at k=2 return the vacuous
    bound n in both modes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    fam, k = kind.family, kind.k
    if fam in ("even", "odd"):
        return n / 2.0
    mode = Mode(mode)
    if mode is Mode.MULTINOMIAL and k >= n:
        raise ValueError(f"multinomial bounds require k < n, got k={k}, n={n}")

    if mode is Mode.POISSON:
        if fam == "count":
            if k == 1:
                return float(n)
            return n * math.exp((k - 1) * math.log(k - 1) - (k - 1) - gammaln(k + 1))
        if fam == "slope":
            lam = k - 0.5 + math.sqrt(k + 0.25)
            return n * (1.0 - k / lam) / lam * math.exp(k * math.log(lam) - lam - gammaln(k + 1))
        if fam == "slopelower":
            lam = k - 0.5 - math.sqrt(k + 0.25)
            if lam == 0.0:
                return float(n)
            return n * (k - lam) * math.exp((k - 2) * math.log(lam) - lam - gammaln(k + 1))
        if fam == "curv":
            return n * math.exp(k * math.log(k) - k - gammaln(k + 1)) / (k * (k + 1.0))
        return math.log1p(1.0 / k)

    if fam == "count":
        return n / k * math.exp(log_binomial_pmf(k - 1, n - 1, (k - 1) / (n - 1)))
    if fam == "slope":
        return _slope_envelope(k, n, _theta_star(k, n, +1), lower=False)
    if fam == "slopelower":
        if k == 2:
            # theta* degenerates to 0; the limit of the envelope is n
            return float(n)
        return _slope_envelope(k, n, _theta_star(k, n, -1), lower=True)
    if fam == "curv":
        mu = bound_mean(TestKind("count", k), n, mode)
        return mu * (2.0 - 2.0 * math.sqrt(k * (n - k) / ((k + 1.0) * (n - k + 1.0))))
    return math.log1p(1.0 / k) + math.log1p(1.0 / (n - k))


def _linear_weights(kind: TestKind) -> dict[int, int]:
    weights = FAMILIES[kind.family].weights
    if weights is None:
        raise ValueError(f"{kind.family} has no theoretical variance bound; use empirical")
    return weights


def _check_options(kind: TestKind, opts: TestOptions) -> VarianceSource:
    """The variance source run_test and bound_variance use for ``kind``.

    Raises ValueError when the family cannot take the options: a forced
    theoretical variance without weights, or a Bernstein tail without a
    theoretical variance bound.
    """
    bernstein = opts.pvalue_method is PValueMethod.BERNSTEIN
    if bernstein and FAMILIES[kind.family].weights is None:
        raise ValueError(f"bernstein tail not available for {kind.family}")
    src = opts.variance_source
    if src is VarianceSource.AUTO:
        src = VarianceSource.THEORETICAL if kind.family == "count" else VarianceSource.EMPIRICAL
    elif src is VarianceSource.THEORETICAL:
        _linear_weights(kind)  # raises for a family without weights
    if bernstein and src is not VarianceSource.THEORETICAL:
        raise ValueError("bernstein tail requires the theoretical variance bound")
    return src


def theoretical_variance(kind: TestKind, n: int, mode: Mode = Mode.POISSON) -> float:
    """Deterministic variance bound sum w^2 mu_{k+off} of a linear family.

    mu_j is the count:j mean bound, so the value depends on n alone.
    Raises ValueError for even, odd and logcurv, which have no weights,
    and wherever a count bound it needs does (multinomial k+1 >= n).
    """
    return sum(
        w * w * bound_mean(TestKind("count", kind.k + off), n, mode)
        for off, w in _linear_weights(kind).items()
    )


def bound_variance(kind: TestKind, profile: CountProfile, opts: TestOptions | None = None) -> float:
    """Upper bound V_ub on the variance of T.

    Empirical bounds plug the observed multiplicities into the
    independent-counts variance formula, sum w^2 m_{k+off} for a linear
    family; theoretical bounds substitute the count mean bounds instead
    (see theoretical_variance) and exist for the linear families only.
    For logcurv the returned value is n^2 (1/m_{k-1} + 4/m_k + 1/m_{k+1}),
    the delta-method variance expressed on the common count scale.
    """
    opts = opts or TestOptions()
    src = _check_options(kind, opts)
    m = profile.m
    n = profile.n
    k = kind.k
    if src is VarianceSource.THEORETICAL:
        return theoretical_variance(kind, n, opts.mode)
    weights = FAMILIES[kind.family].weights
    if weights is not None:
        return float(sum(w * w * m(k + off) for off, w in weights.items()))
    if k is None:
        ks = _included_k(kind.family == "odd", profile.multiplicities, n, opts.mode)
        return float(sum(j * j * profile.multiplicities[j] for j in ks))
    triple = (m(k - 1), m(k), m(k + 1))
    if min(triple) == 0:
        raise ValueError(
            f"logcurv:{k} variance undefined: multiplicities {triple} contain a zero"
        )
    return n * n * (1.0 / triple[0] + 4.0 / triple[1] + 1.0 / triple[2])


def _clamp_p(log_p: float) -> float:
    p = min(1.0, math.exp(log_p))
    return p if p > 0.0 else _TINY_P


def p_value_gaussian(
    statistic: float,
    tau_ub: float,
    v_ub: float,
    n: int | None = None,
    cn_correction: bool = False,
) -> tuple[float, float]:
    """One-sided Gaussian tail p-value for a bounded-mean statistic.

    Returns ``(log_p, p)`` with log_p = ln Phi(-z) for
    z = (statistic - tau_ub)/sqrt(v_ub); any z <= 0 yields p = 1.
    With ``cn_correction`` the log-p is charged ln c_n (capped at 0),
    which turns the Poisson-mode bound into a strictly valid p-value.
    """
    if v_ub <= 0.0:
        raise ValueError(f"v_ub must be positive, got {v_ub}")
    z = (statistic - tau_ub) / math.sqrt(v_ub)
    if z <= 0.0:
        return 0.0, 1.0
    log_p = log_normal_sf(z)
    if cn_correction:
        if n is None:
            raise ValueError("cn_correction needs the sample size n")
        log_p = min(0.0, log_p + log_cn(n))
    return log_p, _clamp_p(log_p)


def p_value_bernstein(
    statistic: float, tau_ub: float, v_ub_det: float, b: float
) -> tuple[float, float]:
    """One-sided Bernstein tail p-value, valid non-asymptotically.

    Requires a deterministic variance bound ``v_ub_det`` (theoretical,
    never empirical) and the per-item statistic range ``b`` (1 for
    count/slope, 2 for curvature). The excess statistic - tau_ub must
    be positive.
    """
    gap = statistic - tau_ub
    if gap <= 0.0:
        raise ValueError("bernstein tail needs statistic > tau_ub")
    if v_ub_det <= 0.0:
        raise ValueError(f"v_ub_det must be positive, got {v_ub_det}")
    log_p = -gap * gap / 2.0 / (v_ub_det + b * gap / 3.0)
    return log_p, _clamp_p(log_p)


def _not_applicable(kind: TestKind, n: int, tau: float, notes: str) -> TestResult:
    nan = math.nan
    return TestResult(kind, n, nan, tau, nan, nan, 0.0, 1.0, applicable=False, notes=notes)


def _describe(opts: TestOptions, src: VarianceSource) -> str:
    bits = [f"{opts.mode.value} bounds", f"{src.value} variance"]
    if opts.cn_correction:
        bits.append("c_n corrected")
    if opts.pvalue_method is PValueMethod.BERNSTEIN:
        bits.append("bernstein tail")
    return ", ".join(bits)


def _run_logcurv(kind: TestKind, profile: CountProfile, opts: TestOptions, notes: str) -> TestResult:
    k = kind.k
    n = profile.n
    tau = bound_mean(kind, n, opts.mode)
    center = profile.m(k)
    left, right = profile.m(k - 1), profile.m(k + 1)
    if center == 0:
        return _not_applicable(kind, n, tau, f"m_{k} = 0; " + notes)
    if left == 0 and right == 0:
        # both flanks empty while the center is populated: the mass is
        # concentrated on a single count, the statistic sits at its
        # upper limit and the test fires at any level. Deliberately
        # aggressive to keep power against exact duplication; on iid
        # data at the scales this library targets the event has
        # negligible probability, though at very small n it can occur
        # by chance (see README).
        return TestResult(
            kind, n, math.inf, tau, math.inf, math.inf, -math.inf, _TINY_P,
            applicable=True,
            notes=f"m_{k-1} = m_{k+1} = 0 with m_{k} > 0, statistic at upper limit; " + notes,
        )
    if left == 0 or right == 0:
        which = k - 1 if left == 0 else k + 1
        return _not_applicable(kind, n, tau, f"m_{which} = 0; " + notes)
    stat = statistic(kind, profile, opts.mode)
    var = 1.0 / left + 4.0 / center + 1.0 / right
    z = (stat - tau) / math.sqrt(var)
    log_p, p = p_value_gaussian(stat, tau, var, n, opts.cn_correction)
    return TestResult(kind, n, stat, tau, n * n * var, z, log_p, p, applicable=True, notes=notes)


def run_test(kind: TestKind, profile: CountProfile, opts: TestOptions | None = None) -> TestResult:
    """Evaluate one test on one profile.

    Composes statistic, mean bound, variance bound and tail. The
    result depends on the profile only through its multiplicities.
    Profiles with n < 2 make every test inapplicable (p = 1). A
    statistic at or below its mean bound yields p = 1 (the tests are
    one-sided; they can never certify iid-ness). See the module
    docstring for mode and variance semantics.
    """
    opts = opts or TestOptions()
    src = _check_options(kind, opts)
    n = profile.n
    if n < 2:
        return _not_applicable(kind, n, math.nan, "sample too small (n < 2)")
    notes = _describe(opts, src)
    if kind.family == "logcurv":
        return _run_logcurv(kind, profile, opts, notes)

    stat = statistic(kind, profile, opts.mode)
    tau = bound_mean(kind, n, opts.mode)
    v_ub = bound_variance(kind, profile, opts)
    if v_ub > 0.0:
        z = (stat - tau) / math.sqrt(v_ub)
    else:
        z = 0.0 if stat <= tau else math.inf
    if stat <= tau or not z > 0.0:
        log_p, p = 0.0, 1.0
    elif opts.pvalue_method is PValueMethod.BERNSTEIN:
        b = max(abs(w) for w in FAMILIES[kind.family].weights.values())
        log_p, p = p_value_bernstein(stat, tau, v_ub, b)
    else:
        log_p, p = p_value_gaussian(stat, tau, v_ub, n, opts.cn_correction)
    return TestResult(kind, n, stat, tau, v_ub, z, log_p, p, applicable=True, notes=notes)


def _combinable(results: Iterable[TestResult], alpha: float | None) -> list[TestResult]:
    results = list(results)
    if not results:
        raise ValueError("need at least one result to combine")
    # written so that NaN fails too
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return results


def combine_bonferroni(results: Iterable[TestResult], alpha: float) -> CombinedResult:
    """Union-bound combination of a finite suite.

    Combined p = min(1, |suite| * min p); rejects when it is <= alpha.
    Records the member that attained the minimum.
    """
    results = _combinable(results, alpha)
    best = min(results, key=lambda r: r.p)
    p = min(1.0, len(results) * best.p)
    return CombinedResult(p=p, source=best.kind, reject=p <= alpha)


def combine_weighted_infinite(
    results: Iterable[TestResult], alpha: float | None = None
) -> CombinedResult:
    """Combination over a k-indexed family with weights k(k+1).

    Valid for any finite subset of the a-priori enumeration k = 1, 2,
    ... of one family because the weights sum to at most 1 over it;
    evaluating only some k can only weaken the bound. Every supplied
    result must carry a k (even/odd have no enumeration position), all
    from one family and each k at most once: the weights of two
    families, or a repeated k, sum past 1 and void the bound.
    """
    results = _combinable(results, alpha)
    for r in results:
        if r.kind.k is None:
            raise ValueError(f"{r.kind} has no k; weighted combination needs k-indexed tests")
    if len({r.kind.family for r in results}) > 1 or len({r.kind.k for r in results}) < len(results):
        raise ValueError("weighted combination needs distinct k from one family")

    def weighted(r: TestResult) -> float:
        return r.kind.k * (r.kind.k + 1) * r.p

    best = min(results, key=weighted)
    p = min(1.0, weighted(best))
    reject = None if alpha is None else p <= alpha
    return CombinedResult(p=p, source=best.kind, reject=reject)
