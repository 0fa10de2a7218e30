"""Test statistics, p-values, run_test dispatch and combination."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import log_ndtr

from iidtest.counts import CountProfile, ingest_items, profile_from_counts
from iidtest.invariants import (
    DEFAULT_SUITE,
    Mode,
    TestKind,
    TestOptions,
    TestResult,
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
