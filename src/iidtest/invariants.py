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
import sys
from typing import Callable, Iterable

import numpy as np
from scipy.special import gammaln, log_ndtr

from .counts import CountProfile
from .definitions import (
    _MAX_K,
    DEFAULT_SUITE,
    FAMILIES,
    CombinedResult,
    Family,
    Mode,
    PValueMethod,
    TestKind,
    TestOptions,
    TestResult,
    VarianceSource,
    parse_kind,
)
from .numerics import log_binomial_pmf, log_cn

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

_TINY_P = math.ulp(0.0)


def _read_weights(kind: TestKind, mode: Mode, n: int, ks: Iterable[int]) -> list[dict[int, int]]:
    """What one test reads of a profile of size n whose present counts
    are ``ks``: one map j -> c per read, the read being sum c m_j.
    logcurv reads m_{k-1}, m_k and m_{k+1}; every other family reads its
    statistic and its empirical variance, the sums of w m_j and w^2 m_j
    over its weights from FAMILIES (w = j over the included j for even
    and odd)."""
    k = kind.k
    if kind.family == "logcurv":
        return [{k - 1: 1}, {k: 1}, {k + 1: 1}]
    if k is None:
        # even sums all even j >= 2; odd skips j = 1, where every fresh
        # item falls; multinomial mode also drops j = n (the all-equal
        # count is pinned by the sample size, not by repetition)
        odd = kind.family == "odd"
        weights = {j: j for j in ks if j % 2 == odd and j != 1 and not (mode is Mode.MULTINOMIAL and j == n)}
    else:
        weights = {k + off: w for off, w in FAMILIES[kind.family].weights.items()}
    return [weights, {j: w * w for j, w in weights.items()}]


def _reads(kind: TestKind, mode: Mode, profile: CountProfile) -> list[float]:
    """One test's reads of one profile, summed in Python ints over its
    sparse m (so exact past 2**63) and each converted to float once."""
    m = profile.multiplicities
    try:
        return [
            float(sum(c * m.get(j, 0) for j, c in read.items()))
            for read in _read_weights(kind, mode, profile.n, m)
        ]
    except OverflowError:
        raise ValueError(f"a read of {kind} is past the largest float, {sys.float_info.max:.6g}") from None


def _moments_of(kind: TestKind, profile: CountProfile, mode: Mode) -> list[float]:
    # the statistic, its empirical variance and v_ub on one profile, for
    # statistic and bound_variance: the two reads of every family but
    # logcurv, whose three reads must all be positive
    reads = _reads(kind, mode, profile)
    if kind.family != "logcurv":
        return [reads[0], reads[1], reads[1]]
    if min(reads) == 0.0:
        raise ValueError(f"{kind} undefined: m_(k-1), m_k, m_(k+1) = {reads} contain a zero")
    return [float(x[0]) for x in _log_moments(profile.n, np.array(reads)[:, None])]


def statistic(kind: TestKind, profile: CountProfile, mode: Mode = Mode.POISSON) -> float:
    """Evaluate the raw test statistic T on a profile.

    The even/odd sums are mode-aware (multinomial mode excludes k = n).
    Raises ValueError for logcurv when any of the three multiplicities
    it touches is zero; decision-level handling of those profiles lives
    in run_test.
    """
    return _moments_of(kind, profile, mode)[0]


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
    k < n and n <= 2**53. count at k=1 and slopelower at k=2 return the
    vacuous bound n in both modes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"n is past the largest float, {sys.float_info.max:.6g}")
    fam, k = kind.family, kind.k
    if fam in ("even", "odd"):
        return n / 2.0
    mode = Mode(mode)
    if mode is Mode.MULTINOMIAL and k >= n:
        raise ValueError(f"multinomial bounds require k < n, got k={k}, n={n}")
    if mode is Mode.MULTINOMIAL and n > _MAX_K:
        # the log-gamma differences in n cancel to nothing, then overflow
        raise ValueError(f"multinomial bounds require n <= 2**53, got n={n}")

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
    if _check_options(kind, opts) is VarianceSource.THEORETICAL:
        return theoretical_variance(kind, profile.n, opts.mode)
    return _moments_of(kind, profile, opts.mode)[2]


def _clamp_p(log_p: float) -> float:
    p = min(1.0, math.exp(log_p))
    return p if p > 0.0 else _TINY_P


@np.errstate(over="ignore")  # a value past the largest float is inf, as in Python
def _tail(stat, tau, var, ranges, charged, n):
    """z, log_p and p of each statistic over its bound, one row per test:
    where z > 0, row t takes the Bernstein tail of range ranges[t], or the
    Gaussian tail if that is 0, charged ln c_n (capped at 0) if
    charged[t]; elsewhere log_p = 0 and p = 1."""
    z, log_p, p = np.broadcast_to(_UNREAD[3:], (3, *stat.shape)).copy()
    np.divide(stat - tau, np.sqrt(var), out=z, where=var > 0.0)
    # a zero variance puts z at 0 for a statistic at or below its bound
    # and at inf above it; a NaN one leaves z NaN
    np.copyto(z, np.where(stat <= tau, 0.0, math.inf), where=var == 0.0)
    # z > 0 exactly when the statistic is above its bound by an excess
    # that survives the division
    tail = gaussian = z > 0.0
    if any(ranges):
        ranges = np.broadcast_to(np.array(ranges, dtype=float)[:, None], stat.shape)
        gaussian, bounded = tail & (ranges == 0.0), tail & (ranges > 0.0)
        gap, v, b = stat[bounded] - tau[bounded], var[bounded], ranges[bounded]
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = -gap * gap / 2.0 / (v + b * gap / 3.0)
            # past the largest float gap * gap is inf, and inf / inf NaN;
            # the equal form with gap divided out is finite or -inf
            log_p[bounded] = np.where(np.isfinite(exact), exact, -gap / 2.0 / (v / gap + b / 3.0))
    log_p[gaussian] = log_ndtr(-z[gaussian])
    if any(charged):
        charge = gaussian & np.array(charged)[:, None]
        if charge.any():  # ln c_n is only needed, and only taken, for a tail
            log_p[charge] = np.minimum(log_p[charge] + log_cn(n), 0.0)
    p[tail] = _per_distinct(_clamp_p, log_p[tail])
    return z, log_p, p


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
    This is the one-element case of the tail every test runs through.
    A statistic of +inf is valid; a NaN argument, an infinite tau_ub or
    an infinite v_ub raises ValueError.
    """
    if cn_correction and n is None:
        raise ValueError("cn_correction needs the sample size n")
    if math.isnan(statistic):
        raise ValueError("statistic is NaN")
    if not math.isfinite(tau_ub):
        raise ValueError(f"tau_ub must be finite, got {tau_ub}")
    if not v_ub > 0.0:
        raise ValueError(f"v_ub must be positive, got {v_ub}")
    if v_ub == math.inf:
        raise ValueError("v_ub must be finite, got inf")
    _, log_p, p = _tail(*np.array([statistic, tau_ub, v_ub], dtype=float).reshape(3, 1, 1), [0], [cn_correction], n)
    return log_p.item(), p.item()


def p_value_bernstein(
    statistic: float, tau_ub: float, v_ub_det: float, b: float
) -> tuple[float, float]:
    """One-sided Bernstein tail p-value, valid non-asymptotically.

    Requires a deterministic variance bound ``v_ub_det`` (theoretical,
    never empirical) and the per-item statistic range ``b`` (1 for
    count/slope, 2 for curvature), both finite and positive; an infinite
    v_ub_det raises ValueError. The statistic and tau_ub must be finite,
    and the excess statistic - tau_ub positive. An excess whose square,
    or whose product with b, passes the largest float still gets its
    log p, -inf only where that passes the largest float too. This is
    the one-element case of the tail every test runs through, so an
    excess that vanishes against sqrt(v_ub_det) yields p = 1, as it
    does in run_test.
    """
    if not math.isfinite(statistic):
        raise ValueError(f"bernstein tail needs a finite statistic, got {statistic}")
    if not math.isfinite(tau_ub):
        raise ValueError(f"tau_ub must be finite, got {tau_ub}")
    if not statistic > tau_ub:
        raise ValueError("bernstein tail needs statistic > tau_ub")
    if not v_ub_det > 0.0:
        raise ValueError(f"v_ub_det must be positive, got {v_ub_det}")
    if v_ub_det == math.inf:
        raise ValueError("v_ub_det must be finite, got inf")
    if not 0.0 < b < math.inf:
        raise ValueError(f"b must be finite and positive, got {b}")
    _, log_p, p = _tail(*np.array([statistic, tau_ub, v_ub_det], dtype=float).reshape(3, 1, 1), [b], [False], None)
    return log_p.item(), p.item()


# status codes of _suite_results, a result being applicable below
# _SMALL, and the note of each ahead of the bounds used, with logcurv's
# m_{k-1}, m_k and m_{k+1} as {0}, {1} and {2}
_OK, _UPPER, _SMALL, _NO_LEFT, _NO_CENTER, _NO_RIGHT = range(6)
_NOTES = ["", "m_{0} = m_{2} = 0 with m_{1} > 0, statistic at upper limit; ", "",
          "m_{0} = 0; ", "m_{1} = 0; ", "m_{2} = 0; "]
# the logcurv status of each pattern of empty reads m_{k-1}, m_k and
# m_{k+1}, indexed by the sum of their _EMPTY_BITS
_EMPTY_BITS = np.array([1, 4, 2])
_LOGCURV_STATUS = np.array([_OK, _NO_LEFT, _NO_RIGHT, _UPPER] + [_NO_CENTER] * 4, dtype=np.int8)
# the float fields of a result before any test reads the profile
_UNREAD = np.array([math.nan, math.nan, math.nan, math.nan, 0.0, 1.0])[:, None, None]


def _note(kind: TestKind, opts: TestOptions, status: int) -> str:
    if status == _SMALL:
        return "sample too small (n < 2)"
    bits = [f"{opts.mode.value} bounds", f"{_check_options(kind, opts).value} variance"]
    if opts.cn_correction:
        bits.append("c_n corrected")
    if opts.pvalue_method is PValueMethod.BERNSTEIN:
        bits.append("bernstein tail")
    k = kind.k or 0  # even and odd have no k, and no note of one
    return _NOTES[status].format(k - 1, k, k + 1) + ", ".join(bits)


def _per_distinct(func: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    # func of each entry, called once per distinct entry: for math's
    # functions, whose last bit numpy's differ from on some inputs.
    # Entries that compare equal (0.0 and -0.0) must map alike. Up to 64
    # entries are mapped one by one, which costs less than np.unique.
    flat = values.ravel()
    if flat.size <= 64:
        mapped = [func(v) for v in flat.tolist()]
    else:
        distinct, inverse = np.unique(flat, return_inverse=True)
        mapped = np.array([func(v) for v in distinct.tolist()], dtype=float)[inverse]
    return np.array(mapped, dtype=float).reshape(values.shape)


def _log_moments(n: int, reads: np.ndarray) -> tuple:
    """logcurv's statistic, the delta-method variance its z divides by
    and the v_ub it reports (that variance on the count scale), from its
    reads m_{k-1}, m_k and m_{k+1} along the first axis, none of them 0.
    A NaN read gives NaN."""
    logs = _per_distinct(math.log, reads)
    var = 1.0 / reads[0] + 4.0 / reads[1] + 1.0 / reads[2]
    return 2.0 * logs[1] - logs[0] - logs[2], var, float(n * n) * var


def _suite_reads(tests: tuple[tuple[TestKind, TestOptions], ...], n: int, mult: np.ndarray) -> np.ndarray:
    """The reads of _read_weights for each test in suite order on a
    block of multiplicity rows (m_k in column k) of profiles of size n,
    one row per profile, as exact int64 sums: one integer product of
    the m_j at the counts j present in the block, the only m_j any read
    can find nonzero. Only these integers are kept, so nothing grows
    with the largest count."""
    present = np.flatnonzero(mult.any(axis=0)).tolist()
    reads = [read for kind, opts in tests for read in _read_weights(kind, opts.mode, n, present)]
    weights = np.array([[read.get(j, 0) for read in reads] for j in present], dtype=np.int64)
    return mult[:, present] @ weights.reshape(len(present), len(reads))


def _suite_results(
    tests: tuple[tuple[TestKind, TestOptions], ...], n: int, reads
) -> tuple[np.ndarray, np.ndarray]:
    """Every TestResult field of each test on each profile of size n
    that ``reads`` summarises, one row of reads per profile: the float
    fields statistic, tau_ub, v_ub, z, log_p and p as the planes of a
    (6, tests, profiles) array, and the (tests, profiles) status codes.

    Each test's options are checked first, even when n < 2. The reads
    become floats once and each test's bounds are computed once; the
    tails run over all tests and profiles at once, in one _tail call,
    and exponentials and logarithms are math's, not numpy's.
    """
    reads = np.asarray(reads, dtype=float).T  # one row per read
    shape = (len(tests), reads.shape[1])
    values = np.empty((6, *shape))
    values[:] = _UNREAD
    stat, tau, v_ub, z, log_p, p = values
    status = np.zeros(shape, dtype=np.int8)  # _OK
    var = np.empty(shape)  # what z divides by: v_ub, on the log scale for logcurv
    charged, ranges = [], []  # per test: the c_n charge, and the Bernstein range or 0
    c = 0  # the test's first read
    for t, (kind, opts) in enumerate(tests):
        src = _check_options(kind, opts)
        if n < 2:
            status[t] = _SMALL
            continue
        tau[t] = bound_mean(kind, n, opts.mode)
        charged.append(opts.cn_correction)
        bernstein = opts.pvalue_method is PValueMethod.BERNSTEIN
        ranges.append(max(abs(w) for w in FAMILIES[kind.family].weights.values()) if bernstein else 0)
        if kind.family != "logcurv":
            stat[t], var[t] = reads[c : c + 2]
            c += 2
            if src is VarianceSource.THEORETICAL:
                var[t] = theoretical_variance(kind, n, opts.mode)
            v_ub[t] = var[t]
            continue
        block = reads[c : c + 3]
        c += 3
        empty = block == 0.0
        status[t] = _LOGCURV_STATUS[_EMPTY_BITS @ empty]
        # an empty read gives NaN moments, which no tail takes
        stat[t], var[t], v_ub[t] = _log_moments(n, np.where(empty, math.nan, block))
        # The zero rule: with both flanks empty and the center not, the
        # statistic is at its upper limit, inf with nothing to divide by,
        # so z is inf and p the smallest, a rejection at any level. It is
        # not rare on iid data: on uniform n=1000, d=100 it fires in 1 rep
        # in 10 (README "The logcurv zero rule", ROADMAP item 1).
        upper = status[t] == _UPPER
        stat[t, upper], var[t, upper], v_ub[t, upper] = math.inf, 0.0, math.inf
    if n >= 2:
        values[3:] = _tail(stat, tau, var, ranges, charged, n)
    return values, status


def _run_suite(tests: tuple[tuple[TestKind, TestOptions], ...], profile: CountProfile) -> list[TestResult]:
    """Every test of a suite on one profile, in one _suite_results call."""
    reads = [x for kind, opts in tests for x in _reads(kind, opts.mode, profile)]
    values, status = _suite_results(tests, profile.n, [reads])
    return [
        TestResult(kind, profile.n, *fields, applicable=code < _SMALL, notes=_note(kind, opts, code))
        for (kind, opts), fields, code in zip(tests, values.T[0].tolist(), status.T[0].tolist())
    ]


def run_test(kind: TestKind, profile: CountProfile, opts: TestOptions | None = None) -> TestResult:
    """Evaluate one test on one profile.

    Composes statistic, mean bound, variance bound and tail; it is the
    one-profile, one-test case of the kernel the Monte Carlo harness
    runs. The result depends on the profile only through its
    multiplicities. Profiles with n < 2 make every test inapplicable
    (p = 1). A statistic at or below its mean bound yields p = 1 (the
    tests are one-sided; they can never certify iid-ness). See the
    module docstring for mode and variance semantics.
    """
    return _run_suite(((kind, opts or TestOptions()),), profile)[0]


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
