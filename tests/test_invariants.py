"""Test statistics, p-values, run_test dispatch and combination."""

import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from iidtest.counts import CountProfile, ingest_items, profile_from_counts
from iidtest.invariants import (
    DEFAULT_SUITE,
    FAMILIES,
    Mode,
    PValueMethod,
    TestKind,
    TestOptions,
    TestResult,
    VarianceSource,
    _SMALL,
    _TINY_P,
    _clamp_p,
    _note,
    _per_distinct,
    _run_suite,
    _suite_reads,
    _suite_results,
    bound_mean,
    bound_variance,
    combine_bonferroni,
    combine_weighted_infinite,
    p_value_bernstein,
    p_value_gaussian,
    parse_kind,
    run_test,
    statistic,
)
from iidtest.numerics import log_cn

import scalar_reference as reference

TINY = math.ulp(0.0)

DOUBLED = CountProfile(1000, {2: 500})
TRIPLED = CountProfile(999, {3: 333})
LOGCURV_EXAMPLE = CountProfile(142, {1: 4, 2: 60, 3: 6})


def test_kind_tokens_round_trip():
    for token in ("even", "odd", "count:1", "slope:2", "slopelower:4", "curv:3", "logcurv:2"):
        assert str(parse_kind(token)) == token


def test_kind_validation():
    with pytest.raises(ValueError):
        TestKind("banana", 2)
    with pytest.raises(ValueError):
        TestKind("even", 2)
    with pytest.raises(ValueError):
        TestKind("count")
    with pytest.raises(ValueError):
        TestKind("count", 0)
    with pytest.raises(ValueError):
        TestKind("slope", 1)
    with pytest.raises(ValueError):
        TestKind("count", True)
    with pytest.raises(ValueError):
        TestKind("curv", 2.0)
    for bad in (True, np.True_, 1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match=f"^count needs integer k >= 1, got {re.escape(repr(bad))}$"):
            TestKind("count", bad)
    with pytest.raises(ValueError):
        parse_kind("curv:x")


def test_default_suite_composition():
    assert tuple(str(k) for k in DEFAULT_SUITE) == (
        "even",
        "odd",
        "count:2",
        "slope:2",
        "curv:2",
        "logcurv:2",
    )


def test_statistics_on_doubled_profile():
    assert statistic(TestKind("even"), DOUBLED) == 1000.0
    assert statistic(TestKind("odd"), DOUBLED) == 0.0
    assert statistic(TestKind("count", 2), DOUBLED) == 500.0
    assert statistic(TestKind("curv", 2), DOUBLED) == 1000.0
    assert statistic(TestKind("slope", 2), DOUBLED) == 500.0


def test_slope_statistics_direct_difference():
    profile = CountProfile(6, {1: 3, 3: 1})
    assert statistic(TestKind("slope", 3), profile) == 1.0
    assert statistic(TestKind("slopelower", 3), profile) == -1.0
    assert statistic(TestKind("slopelower", 2), profile) == 3.0


def test_even_odd_statistics_are_mode_aware():
    all_equal = CountProfile(4, {4: 1})
    assert statistic(TestKind("even"), all_equal, Mode.POISSON) == 4.0
    assert statistic(TestKind("even"), all_equal, Mode.MULTINOMIAL) == 0.0
    triple = CountProfile(3, {3: 1})
    assert statistic(TestKind("odd"), triple, Mode.POISSON) == 3.0
    assert statistic(TestKind("odd"), triple, Mode.MULTINOMIAL) == 0.0
    # k=1 never counts toward odd: fresh items are not repetition evidence
    singles = CountProfile(4, {1: 1, 3: 1})
    assert statistic(TestKind("odd"), singles, Mode.POISSON) == 3.0
    assert statistic(TestKind("odd"), singles, Mode.MULTINOMIAL) == 3.0


def test_logcurv_statistic_value_and_zero_rejection():
    got = statistic(TestKind("logcurv", 2), LOGCURV_EXAMPLE)
    assert got == pytest.approx(math.log(150.0), rel=1e-13)
    with pytest.raises(ValueError):
        statistic(TestKind("logcurv", 2), DOUBLED)


@given(st.integers(2, 5), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(2, 9))
def test_logcurv_statistic_is_scale_invariant(k, a, b, c, factor):
    def profile(scale):
        m = {k - 1: a * scale, k: b * scale, k + 1: c * scale}
        return CountProfile(sum(j * v for j, v in m.items()), m)

    base = statistic(TestKind("logcurv", k), profile(1))
    scaled = statistic(TestKind("logcurv", k), profile(factor))
    assert scaled == pytest.approx(base, abs=1e-12)


def test_empirical_variances_on_doubled_profile():
    assert bound_variance(TestKind("even"), DOUBLED) == 2000.0
    opts = TestOptions(variance_source="empirical")
    assert bound_variance(TestKind("slope", 2), DOUBLED, opts) == 500.0
    assert bound_variance(TestKind("count", 2), DOUBLED, opts) == 500.0
    assert bound_variance(TestKind("curv", 2), DOUBLED, opts) == 2000.0
    assert bound_variance(TestKind("odd"), TRIPLED, opts) == 2997.0


def test_logcurv_variance_is_inverse_multiplicity_sum():
    got = bound_variance(TestKind("logcurv", 2), LOGCURV_EXAMPLE)
    assert got == pytest.approx(142**2 * (1 / 4 + 4 / 60 + 1 / 6), rel=1e-13)
    with pytest.raises(ValueError):
        bound_variance(TestKind("logcurv", 2), DOUBLED)


def test_even_odd_have_no_theoretical_variance():
    opts = TestOptions(variance_source="theoretical")
    with pytest.raises(ValueError):
        bound_variance(TestKind("even"), DOUBLED, opts)
    with pytest.raises(ValueError):
        run_test(TestKind("odd"), DOUBLED, opts)
    # logcurv has no weights either: forcing the bound is an error, not a
    # silent fall back to the empirical variance
    with pytest.raises(ValueError, match="logcurv has no theoretical"):
        bound_variance(TestKind("logcurv", 2), LOGCURV_EXAMPLE, opts)
    with pytest.raises(ValueError, match="logcurv has no theoretical"):
        run_test(TestKind("logcurv", 2), LOGCURV_EXAMPLE, opts)


def test_gaussian_pvalue_boundary_and_level():
    assert p_value_gaussian(5.0, 5.0, 2.0) == (0.0, 1.0)
    assert p_value_gaussian(1.0, 5.0, 2.0) == (0.0, 1.0)
    log_p, p = p_value_gaussian(1.6448536269514727, 0.0, 1.0)
    assert p == pytest.approx(0.05, abs=1e-10)
    assert log_p == pytest.approx(math.log(0.05), abs=1e-9)
    with pytest.raises(ValueError):
        p_value_gaussian(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        p_value_gaussian(5.0, 0.0, 1.0, None, True)


def test_gaussian_pvalue_deep_tail_is_clamped_but_log_exact():
    log_p, p = p_value_gaussian(100.0, 0.0, 1.0)
    assert p == TINY
    assert log_p == pytest.approx(-5005.524, abs=0.01)


def test_cn_correction_charges_log_cn():
    plain, _ = p_value_gaussian(30.0, 0.0, 1.0, 1000, False)
    charged, _ = p_value_gaussian(30.0, 0.0, 1.0, 1000, True)
    assert charged - plain == pytest.approx(log_cn(1000), rel=1e-12)
    # the charge can never push log p above zero
    mild, p = p_value_gaussian(0.1, 0.0, 1.0, 10**6, True)
    assert mild == 0.0 and p == 1.0
    # only a bool switches the charge: the truthy "off" is refused
    for value in ("off", "false", 1, None):
        with pytest.raises(ValueError, match="cn_correction"):
            TestOptions(cn_correction=value)


def test_bernstein_pvalue_anchor_and_domain():
    tau = bound_mean(TestKind("count", 2), 1000)
    log_p, p = p_value_bernstein(500.0, tau, tau, 1.0)
    assert log_p == pytest.approx(-172.652033482, rel=1e-9)
    assert p == math.exp(log_p)
    with pytest.raises(ValueError):
        p_value_bernstein(5.0, 5.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        p_value_bernstein(6.0, 5.0, 0.0, 1.0)


def test_bernstein_log_p_roughly_linear_in_n_for_fixed_shape():
    logs = []
    for n in (1000, 2000):
        tau = bound_mean(TestKind("count", 2), n)
        logs.append(p_value_bernstein(n / 2.0, tau, tau, 1.0)[0])
    assert logs[1] / logs[0] == pytest.approx(2.0, rel=0.01)


def test_bernstein_vanishing_gap_gives_trivial_p():
    log_p, p = p_value_bernstein(5.0 + 1e-12, 5.0, 2.0, 1.0)
    assert log_p == pytest.approx(0.0, abs=1e-20)
    assert p == 1.0


@pytest.mark.parametrize(
    "func, args, message",
    [
        pytest.param(p_value_gaussian, (math.nan, 0.0, 1.0), "statistic is NaN", id="gaussian-nan-statistic"),
        pytest.param(p_value_gaussian, (1.0, math.nan, 1.0), "tau_ub must be finite, got nan", id="gaussian-nan-tau"),
        pytest.param(p_value_gaussian, (1.0, 0.0, math.nan), "v_ub must be positive, got nan", id="gaussian-nan-variance"),
        pytest.param(p_value_gaussian, (1.0, -math.inf, 1.0), "tau_ub must be finite, got -inf", id="gaussian-infinite-tau"),
        # z would be inf / inf
        pytest.param(p_value_gaussian, (math.inf, 0.0, math.inf), "v_ub must be finite, got inf",
                     id="gaussian-infinite-variance"),
        # refused before z is known, here z < 0
        pytest.param(p_value_gaussian, (1.0, 5.0, 2.0, None, True), "cn_correction needs the sample size n", id="cn-without-n"),
        pytest.param(p_value_bernstein, (math.nan, 0.0, 1.0, 1.0), "bernstein tail needs a finite statistic, got nan",
                     id="bernstein-nan-statistic"),
        pytest.param(p_value_bernstein, (1.0, math.nan, 1.0, 1.0), "tau_ub must be finite, got nan", id="bernstein-nan-tau"),
        pytest.param(p_value_bernstein, (1.0, 0.0, math.nan, 1.0), "v_ub_det must be positive, got nan",
                     id="bernstein-nan-variance"),
        pytest.param(p_value_bernstein, (1.0, -math.inf, 1.0, 1.0), "tau_ub must be finite, got -inf",
                     id="bernstein-infinite-tau"),
        pytest.param(p_value_bernstein, (1.0, 0.0, math.inf, 1.0), "v_ub_det must be finite, got inf",
                     id="bernstein-infinite-variance"),
        pytest.param(p_value_bernstein, (math.inf, 0.0, 1.0, 1.0), "bernstein tail needs a finite statistic, got inf",
                     id="bernstein-infinite-statistic"),
        pytest.param(p_value_bernstein, (1.0, 0.0, 1.0, -5.0), "b must be finite and positive, got -5.0",
                     id="bernstein-negative-range"),
        pytest.param(p_value_bernstein, (1.0, 0.0, 1.0, 0.0), "b must be finite and positive, got 0.0",
                     id="bernstein-zero-range"),
        pytest.param(p_value_bernstein, (1.0, 0.0, 1.0, math.inf), "b must be finite and positive, got inf",
                     id="bernstein-infinite-range"),
        pytest.param(p_value_bernstein, (1.0, 0.0, 1.0, math.nan), "b must be finite and positive, got nan",
                     id="bernstein-nan-range"),
    ],
)
def test_tail_helpers_refuse_bad_arguments(func, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(*args)


def test_gaussian_pvalue_takes_an_infinite_statistic():
    assert p_value_gaussian(math.inf, 0.0, 1.0) == (-math.inf, TINY)
    assert p_value_gaussian(math.inf, 0.0, 1.0, 10, True) == (-math.inf, TINY)
    assert p_value_gaussian(-math.inf, 0.0, 1.0) == (0.0, 1.0)


def test_run_test_count2_on_doubled_profile():
    res = run_test(TestKind("count", 2), DOUBLED)
    assert res.statistic == 500.0
    assert res.tau_ub == pytest.approx(183.9397205857212, rel=1e-12)
    assert res.v_ub == res.tau_ub  # auto resolves to the theoretical bound
    assert res.z == pytest.approx(23.3040905168, rel=1e-10)
    assert res.log_p == pytest.approx(-275.609717791, rel=1e-9)
    assert res.p == pytest.approx(math.exp(res.log_p), rel=1e-12)
    assert "theoretical variance" in res.notes


def test_run_test_even_on_doubled_profile():
    res = run_test(TestKind("even"), DOUBLED)
    assert res.statistic == 1000.0
    assert res.v_ub == 2000.0
    assert res.z == pytest.approx(11.1803398874989, rel=1e-12)
    assert res.log_p == pytest.approx(-65.8409413796122, rel=1e-12)
    assert "empirical variance" in res.notes
    # statistic n against n/2 with variance 2n gives z = sqrt(n/8): with the
    # c_n charge -log_p/n stays below 1/16 at every n, under acceptance
    # criterion 2's `even` window [0.085, 0.0885]
    for n in (100, 10**4, 10**6):
        res = run_test(TestKind("even"), CountProfile(n, {2: n // 2}), TestOptions(cn_correction=True))
        assert res.z == pytest.approx(math.sqrt(n / 8), rel=1e-12)
        assert res.log_p == pytest.approx(log_ndtr(-math.sqrt(n / 8)) + log_cn(n), rel=1e-12)
        assert -res.log_p / n < 1 / 16


def test_run_test_odd_on_tripled_profile():
    res = run_test(TestKind("odd"), TRIPLED)
    assert res.statistic == 999.0
    assert res.tau_ub == 499.5
    assert res.v_ub == 2997.0
    assert res.p < 1e-15


def test_run_test_logcurv_full_example():
    res = run_test(TestKind("logcurv", 2), LOGCURV_EXAMPLE)
    assert res.statistic == pytest.approx(5.01063529409625575, rel=1e-13)
    assert res.tau_ub == pytest.approx(math.log(1.5), rel=1e-13)
    assert res.z == pytest.approx(6.6240303038277324, rel=1e-12)
    assert res.log_p == pytest.approx(-24.770149521848019, rel=1e-12)
    # the reported variance and the z-score are two views of one number
    assert res.z == pytest.approx(res.n * (res.statistic - res.tau_ub) / math.sqrt(res.v_ub), rel=1e-12)


def test_run_test_logcurv_at_its_bound_has_no_power():
    profile = CountProfile(34, {1: 4, 2: 6, 3: 6})
    res = run_test(TestKind("logcurv", 2), profile)
    assert res.statistic == pytest.approx(math.log(1.5), rel=1e-13)
    assert res.z == pytest.approx(0.0, abs=1e-13)
    assert (res.log_p, res.p) == (0.0, 1.0)
    assert res.applicable


def test_run_test_logcurv_zero_patterns():
    fired = run_test(TestKind("logcurv", 2), CountProfile(10, {2: 5}))
    assert fired.applicable
    assert fired.statistic == math.inf
    assert fired.log_p == -math.inf
    assert fired.p == TINY
    assert "upper limit" in fired.notes

    one_flank = run_test(TestKind("logcurv", 2), CountProfile(12, {1: 2, 2: 5}))
    assert not one_flank.applicable
    assert one_flank.p == 1.0

    no_center = run_test(TestKind("logcurv", 2), CountProfile(12, {3: 4}))
    assert not no_center.applicable
    assert no_center.p == 1.0


def test_run_test_all_unique_profile_is_powerless():
    profile = CountProfile(50, {1: 50})
    for kind in DEFAULT_SUITE:
        res = run_test(kind, profile)
        assert res.p == 1.0, str(kind)


def test_run_test_tiny_samples_are_inapplicable():
    for profile in (CountProfile(0, {}), CountProfile(1, {1: 1})):
        for kind in DEFAULT_SUITE:
            res = run_test(kind, profile)
            assert not res.applicable
            assert res.p == 1.0


def test_run_test_rejects_invalid_profiles():
    # refused when the profile is built, so it never reaches run_test
    with pytest.raises(ValueError):
        run_test(TestKind("even"), CountProfile(5, {2: 2}))


def test_run_test_depends_on_multiplicities_only():
    with_labels = profile_from_counts([2] * 500)
    bare = CountProfile(1000, {2: 500})
    for kind in DEFAULT_SUITE:
        assert run_test(kind, with_labels) == run_test(kind, bare)


def test_bernstein_option_matrix():
    theoretical = TestOptions(variance_source="theoretical", pvalue_method="bernstein")
    res = run_test(TestKind("count", 2), DOUBLED, theoretical)
    assert res.log_p == pytest.approx(-172.652033482, rel=1e-9)
    assert "bernstein" in res.notes
    # auto resolves slope to the empirical variance, which Bernstein forbids
    with pytest.raises(ValueError):
        run_test(TestKind("slope", 2), DOUBLED, TestOptions(pvalue_method="bernstein"))
    slope = run_test(TestKind("slope", 2), DOUBLED, theoretical)
    assert slope.applicable and slope.p < 1.0
    with pytest.raises(ValueError):
        run_test(TestKind("even"), DOUBLED, TestOptions(pvalue_method="bernstein"))
    with pytest.raises(ValueError):
        run_test(TestKind("logcurv", 2), DOUBLED, TestOptions(pvalue_method="bernstein"))


def test_to_dict_scrubs_non_finite_values():
    fired = run_test(TestKind("logcurv", 2), CountProfile(10, {2: 5})).to_dict()
    assert fired["statistic"] is None
    assert fired["log_p"] is None
    assert fired["p"] == TINY
    assert fired["applicable"] is True
    normal = run_test(TestKind("count", 2), DOUBLED).to_dict()
    assert normal["kind"] == "count" and normal["k"] == 2
    assert normal["log_p"] == pytest.approx(-275.609717791, rel=1e-9)


def _result(kind: TestKind, p: float) -> TestResult:
    return TestResult(kind, 100, 1.0, 0.5, 1.0, 1.0, math.log(p) if p > 0 else 0.0, p)


def test_bonferroni_combination():
    results = [_result(TestKind("even"), 0.01), _result(TestKind("odd"), 0.5)]
    combined = combine_bonferroni(results, 0.05)
    assert combined.p == pytest.approx(0.02)
    assert combined.source == TestKind("even")
    assert combined.reject is True

    flat = combine_bonferroni([_result(TestKind("count", k), 1.0) for k in (1, 2)], 0.05)
    assert flat.p == 1.0 and flat.reject is False

    # every member exactly at alpha/K lands the combination on alpha
    boundary = combine_bonferroni(
        [_result(TestKind("count", k), 0.0125) for k in (1, 2, 3, 4)], 0.05
    )
    assert boundary.p == pytest.approx(0.05)
    assert boundary.reject is True


def test_bonferroni_rejects_degenerate_input():
    with pytest.raises(ValueError):
        combine_bonferroni([], 0.05)
    with pytest.raises(ValueError):
        combine_bonferroni([_result(TestKind("even"), 0.5)], 1.5)


def test_weighted_infinite_combination():
    alone = combine_weighted_infinite([_result(TestKind("count", 1), 0.01)])
    assert alone.p == pytest.approx(0.02)
    assert alone.reject is None

    all_ones = combine_weighted_infinite(
        [_result(TestKind("count", k), 1.0) for k in (1, 2, 3)], alpha=0.05
    )
    assert all_ones.p == 1.0 and all_ones.reject is False

    third = combine_weighted_infinite(
        [_result(TestKind("count", k), 1.0 if k != 3 else 0.001) for k in (1, 2, 3, 4)],
        alpha=0.05,
    )
    assert third.p == pytest.approx(0.012)
    assert third.source == TestKind("count", 3)
    assert third.reject is True

    with pytest.raises(ValueError):
        combine_weighted_infinite([_result(TestKind("even"), 0.01)])
    with pytest.raises(ValueError):
        combine_weighted_infinite([])
    ones = [_result(TestKind("count", 2), 1.0)]
    for alpha in (1.5, math.nan, 0.0, 1.0):
        with pytest.raises(ValueError, match="alpha"):
            combine_weighted_infinite(ones, alpha=alpha)
    # the k(k+1) weights sum to 1 over one family: count:k with curv:k
    # or a repeated k would let the combination reach 1.5 alpha
    mixed = [_result(TestKind("count", 2), 0.01), _result(TestKind("curv", 2), 0.01)]
    repeated = [_result(TestKind("count", 2), 0.01), _result(TestKind("count", 2), 0.02)]
    for results in (mixed, repeated):
        with pytest.raises(ValueError, match="distinct k from one family"):
            combine_weighted_infinite(results, alpha=0.05)


PROFILES = st.lists(st.integers(1, 9), min_size=2, max_size=30).map(profile_from_counts)
KINDS = st.sampled_from(
    [
        TestKind("even"),
        TestKind("odd"),
        TestKind("count", 1),
        TestKind("count", 2),
        TestKind("count", 3),
        TestKind("slope", 2),
        TestKind("slope", 3),
        TestKind("slopelower", 2),
        TestKind("curv", 2),
        TestKind("curv", 3),
        TestKind("logcurv", 2),
    ]
)


@given(PROFILES, KINDS, st.sampled_from(list(Mode)))
def test_one_sidedness_property(profile, kind, mode):
    if mode is Mode.MULTINOMIAL and kind.k is not None and kind.k >= profile.n:
        with pytest.raises(ValueError):
            run_test(kind, profile, TestOptions(mode=mode))
        return
    res = run_test(kind, profile, TestOptions(mode=mode))
    assert 0.0 < res.p <= 1.0
    assert res.log_p <= 0.0
    if res.applicable and res.statistic <= res.tau_ub:
        assert res.p == 1.0
    if res.p < 1.0:
        assert res.statistic > res.tau_ub


@given(
    st.lists(st.integers(0, 12), max_size=80),
    st.randoms(use_true_random=False),
    st.lists(st.text(max_size=3), min_size=13, max_size=13, unique=True),
)
def test_results_are_label_and_order_invariant(labels, shuffler, names):
    # any injective relabelling of a shuffled sample gives the same profile
    # and the same results on the default suite
    items = [str(x) for x in labels]
    renamed = [names[x] for x in labels]
    shuffler.shuffle(renamed)
    original, relabelled = ingest_items(items), ingest_items(renamed)
    assert original == relabelled
    for kind in DEFAULT_SUITE:
        assert repr(run_test(kind, original)) == repr(run_test(kind, relabelled))


@given(st.lists(st.floats(0.1, 50.0), min_size=2, max_size=8))
def test_gaussian_p_monotone_in_statistic(stats):
    ps = [p_value_gaussian(t, 2.0, 3.0)[1] for t in sorted(stats)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def _suite_members(kinds):
    # every kind under every option set it can take
    members = []
    for kind, mode, cn, src, tail in itertools.product(
        kinds, Mode, (False, True), VarianceSource, PValueMethod
    ):
        opts = TestOptions(mode, cn, src, tail)
        try:
            reference.check_options(kind, opts)
        except ValueError:
            continue
        members.append((kind, opts))
    return members


# every family at small k
_MEMBERS = _suite_members(
    [TestKind(f, k) for f, fam in FAMILIES.items() if fam.min_k for k in range(fam.min_k, 5)]
    + [TestKind("even"), TestKind("odd")]
)


@functools.cache
def _far_members(n):
    # every k-indexed family at k = n, n + 1 and 2**53, whose k + 1 is
    # past every count of a profile of size n, under every option set
    # the reference can evaluate at that n
    ks = sorted({n, n + 1, 2**53})
    members = _suite_members([TestKind(f, k) for f, fam in FAMILIES.items() if fam.min_k for k in ks if k >= fam.min_k])
    profile = CountProfile(n, {1: n} if n else {})
    far = []
    for kind, opts in members:
        try:
            reference.run_test(kind, profile, opts)
        except ValueError:
            continue
        far.append((kind, opts))
    return far


@st.composite
def _profile_rows(draw, n):
    # m_k for k >= 2 within n, the rest either singletons or one item
    m = {}
    left = n
    for k in draw(st.lists(st.integers(2, 7), max_size=6)):
        m[k] = m.get(k, 0) + draw(st.integers(0, left // k))
        left = n - sum(j * c for j, c in m.items())
    if left:
        one = draw(st.booleans())
        m[left if one else 1] = m.get(left if one else 1, 0) + (1 if one else left)
    return {k: c for k, c in m.items() if c}


def _fixed_rows(n):
    # all unique (every variance 0), all doubled and tripled (z far past 8,
    # in log_ndtr's asymptotic branch), one item (k = n drops out of
    # even/odd in multinomial mode), and every logcurv zero pattern at k <= 3
    rows = [{1: n}, {n: 1}, {2: n // 2, 1: n % 2}, {3: n // 3, 1: n % 3}]
    for pattern in itertools.product((0, 1), repeat=4):
        # m_1..m_4 in {0, 1}, the rest of n on one item
        m = {k + 1: c for k, c in enumerate(pattern)}
        rest = n - sum(k * c for k, c in m.items())
        if rest >= 0:
            m[rest] = m.get(rest, 0) + 1
            rows.append(m)
    if n == 100_000:
        # 19143 and 9170 are integers whose np.log differs from math.log;
        # logcurv:3 lands in a tail here (z near 9.4)
        rows.append({1: 19143, 2: 7000, 3: 9170, 4: 7000, 11347: 1})
    rows = [{k: c for k, c in row.items() if k and c} for row in rows]
    return [row for row in rows if sum(k * c for k, c in row.items()) == n]


def _dense(rows):
    width = max((max(row, default=0) for row in rows), default=0) + 1
    mult = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, c in row.items():
            mult[i, k] = c
    return mult


_FIELDS = ("statistic", "tau_ub", "v_ub", "z", "log_p", "p")


def _result_bits(results):
    # every TestResult field, its floats as bit patterns
    return [(r.kind, r.n, _bits([getattr(r, f) for f in _FIELDS]), r.applicable, r.notes) for r in results]


def _assert_kernel_matches_reference(suite, n, rows):
    profiles = [CountProfile(n, row) for row in rows]
    try:
        expected = [[reference.run_test(kind, prof, opts) for prof in profiles] for kind, opts in suite]
    except ValueError as exc:
        # a bound beyond reach raises whatever the profile
        message = re.escape(str(exc).split(",")[0])
        with pytest.raises(ValueError, match=message):
            _suite_results(suite, n, _suite_reads(suite, n, _dense(rows)))
        with pytest.raises(ValueError, match=message):
            _run_suite(suite, profiles[0])
        return
    want = np.array([[[getattr(r, f) for r in results] for results in expected] for f in _FIELDS])
    applicable = [[r.applicable for r in results] for results in expected]
    notes = [[r.notes for r in results] for results in expected]
    # one block for all rows, and one block per row, each as wide as it needs
    blocks = [_suite_reads(suite, n, _dense(rows))]
    blocks.append(np.concatenate([_suite_reads(suite, n, _dense([row])) for row in rows]))
    for reads in blocks:
        values, status = _suite_results(suite, n, reads)
        assert values.tobytes() == want.tobytes()
        assert (status < _SMALL).tolist() == applicable
        assert [[_note(kind, opts, code) for code in codes] for (kind, opts), codes in zip(suite, status.tolist())] == notes
    # the one-profile path, from the profile's sparse reads
    for i, prof in enumerate(profiles):
        assert _result_bits(_run_suite(suite, prof)) == _result_bits([results[i] for results in expected])


_SIZES = [0, 1, 2, 3, 4, 9, 40, 200, 5000, 100_000]


@pytest.mark.parametrize("n", _SIZES)
def test_suite_kernel_matches_run_test_for_every_member(n):
    for member in _MEMBERS + _far_members(n):
        _assert_kernel_matches_reference((member,), n, _fixed_rows(n))


def test_suite_kernel_matches_run_test_on_random_tails():
    # m_1..m_6 up to 300 each put many logcurv and linear tests in a
    # tail at moderate z, where a reordered float operation shows
    rng = np.random.Generator(np.random.Philox(key=5))
    n = 10_000
    rows = []
    for counts in rng.integers(0, 300, size=(150, 6)).tolist():
        row = {k + 1: c for k, c in enumerate(counts) if c}
        rest = n - sum(k * c for k, c in row.items())
        row[rest] = row.get(rest, 0) + 1
        rows.append(row)
    for member in _MEMBERS:
        _assert_kernel_matches_reference((member,), n, rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_suite_kernel_matches_run_test_bit_for_bit(data):
    n = data.draw(st.sampled_from(_SIZES))
    rows = data.draw(st.lists(_profile_rows(n), min_size=1, max_size=8)) + _fixed_rows(n)
    picks = data.draw(st.lists(st.sampled_from(_MEMBERS + _far_members(n)), min_size=1, max_size=8))
    suite = tuple({str(kind): (kind, opts) for kind, opts in picks}.values())
    _assert_kernel_matches_reference(suite, n, rows)


# sparse profiles whose j^2 m_j passes 2**63, out of int64's reach
_HUGE = [
    {10**30: 1},
    {1: 2 * 10**21, 2: 10**21},
    {1: 2**62, 2: 2**62, 3: 2**62},
    {1: 5, 2: 7, 2**32: 2**3},
    {1: 10**20, 2: 10**21, 3: 10**20, 4: 3},
]


def _outcome(func, *args):
    # the bits of what func returns, or its error's type and first word
    # (log_cn cannot take an n past int64: a TypeError on both sides)
    try:
        result = func(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc).split()[0]
    return _result_bits([result]) if isinstance(result, TestResult) else _bits([result])


@pytest.mark.parametrize("m", _HUGE)
def test_one_profile_path_matches_the_reference_past_2_63(m):
    profile = CountProfile(sum(k * c for k, c in m.items()), m)
    for kind, opts in _MEMBERS:
        assert _outcome(run_test, kind, profile, opts) == _outcome(reference.run_test, kind, profile, opts)
        assert _outcome(bound_variance, kind, profile, opts) == _outcome(reference.bound_variance, kind, profile, opts)
        assert _outcome(statistic, kind, profile, opts.mode) == _outcome(reference.statistic, kind, profile, opts.mode)
    suite = tuple((kind, TestOptions()) for kind in DEFAULT_SUITE)
    assert _result_bits(_run_suite(suite, profile)) == _result_bits([reference.run_test(k, profile, o) for k, o in suite])


def test_one_profile_moments_match_the_reference_where_run_test_has_none():
    # statistic and bound_variance return values where run_test has none
    # (n < 2 leaves its fields NaN, k >= n has no multinomial bound), so
    # they cannot be read off the kernel's results without changing them
    one, triple = CountProfile(1, {1: 1}), CountProfile(3, {3: 1})
    assert math.isnan(run_test(TestKind("count", 2), one).statistic)
    assert statistic(TestKind("count", 2), one) == 0.0
    assert bound_variance(TestKind("count", 2), one) == pytest.approx(0.18394, abs=1e-5)
    assert statistic(TestKind("count", 5), triple, Mode.MULTINOMIAL) == 0.0
    with pytest.raises(ValueError, match="multinomial bounds require k < n"):
        run_test(TestKind("count", 5), triple, TestOptions(mode=Mode.MULTINOMIAL))
    for profile in (CountProfile(0, {}), one, triple):
        for kind, opts in _MEMBERS + _suite_members([TestKind("count", 5)]):
            assert _outcome(bound_variance, kind, profile, opts) == _outcome(reference.bound_variance, kind, profile, opts)
            assert _outcome(statistic, kind, profile, opts.mode) == _outcome(reference.statistic, kind, profile, opts.mode)


def _reference_tail(tail, stat, tau, var, *rest):
    # the reference's tail behind run_test's own rule: no tail unless z > 0
    if not (stat - tau) / math.sqrt(var) > 0.0:
        return 0.0, 1.0
    return tail(stat, tau, var, *rest)


# finite floats, with subnormal excesses between the small ones
_LOCATIONS = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-300, 1e-300)
_VARIANCES = st.floats(0.0, 1e300, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(_LOCATIONS, _LOCATIONS, _VARIANCES, st.integers(1, 2**70), st.booleans())
@example(5e-324, 0.0, 5e-324, 1, False)
@example(1.7e308, -1.7e308, 1e300, 2**70, True)
@example(30.0, 0.0, 1.0, 10**6, True)
def test_p_value_gaussian_matches_the_reference_bit_for_bit(stat, tau, var, n, cn):
    want = _reference_tail(reference.gaussian, stat, tau, var, n, cn)
    assert _bits(p_value_gaussian(stat, tau, var, n, cn)) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(_LOCATIONS, _LOCATIONS, _VARIANCES, st.floats(0.0, 1e6, exclude_min=True))
# z underflows to 0, so p = 1 with log_p = 0.0 where the formula alone gives -0.0
@example(0.0, 1e-300, 1e300, 1.0)
@example(0.0, 5e-324, 5e-324, 2.0)
@example(-1e300, 1e300, 1.0, 1e6)
# the excess, its square or b times it past the largest float
@example(-1e308, 1e308, 1.0, 1.0)
@example(0.0, 1e308, 1e308, 10.0)
@example(0.0, 1e200, 1.0, 1.0)
def test_p_value_bernstein_matches_the_reference_bit_for_bit(x, y, var, b):
    assume(x != y)
    tau, stat = sorted((x, y))
    want = _reference_tail(reference.bernstein, stat, tau, var, b)
    assert _bits(p_value_bernstein(stat, tau, var, b)) == _bits(want)


@pytest.mark.parametrize("n", [0, 1])
def test_kernel_checks_options_before_the_small_sample_return(n):
    # every test of the suite gets its options checked on any profile
    suite = ((TestKind("count", 2), TestOptions()), (TestKind("even"), TestOptions(variance_source="theoretical")))
    reads = _suite_reads(suite, n, _dense([{1: n} if n else {}]))
    with pytest.raises(ValueError, match="even has no theoretical variance bound; use empirical"):
        _suite_results(suite, n, reads)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_LOG_PS = [-0.0, 0.0, -math.inf, math.log(5e-324) - 1.0, -745.2, -3.5, -1e-300, -3.5, -0.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_LOG_PS) | st.floats(max_value=0.0), max_size=200))
@example(_LOG_PS)
@example(_LOG_PS * 10)
def test_per_distinct_clamp_matches_clamp_p_entry_by_entry(log_ps):
    values = np.array(log_ps, dtype=float)
    assert _bits(_per_distinct(_clamp_p, values)) == _bits([_clamp_p(x) for x in log_ps])


def test_per_distinct_matches_math_entry_by_entry():
    # a few entries are mapped one by one, many through np.unique
    for times in (1, 20):
        clamped = _per_distinct(_clamp_p, np.array(_LOG_PS * times))
        # below ln(5e-324) the p-value underflows to the smallest positive one
        assert clamped[2] == clamped[3] == _TINY_P and clamped[0] == clamped[1] == 1.0
        for entries in ([1, 2, 3, 2, 7, 1, 10**6, 3], [0.5, 1e-300, 5e-324, 2.0, 0.5, 3.0]):
            values = np.array(entries * times)
            assert _bits(_per_distinct(math.log, values)) == _bits([math.log(v) for v in entries * times])
        # 0.0 and -0.0 compare equal; math.log refuses both, and so does the helper
        with pytest.raises(ValueError):
            _per_distinct(math.log, np.array([1.0, -0.0, 0.0] * 3 * times))
    assert _per_distinct(math.log, np.array([], dtype=np.int64)).size == 0
