"""Mean and variance bounds: frozen constants, envelope suprema,
cross-mode agreement, and dominance of exact expectations."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from iidtest.counts import CountProfile
from iidtest.generators import expected_mk
from iidtest.invariants import (
    FAMILIES,
    Family,
    Mode,
    TestKind,
    TestOptions,
    bound_mean,
    bound_variance,
)
from iidtest.verify import run_checks

# per-unit-n Poisson-mode bounds, frozen from an independent
# high-precision evaluation of the defining formulas
COUNT_PER_N = {
    1: 1.0,
    2: 0.1839397205857211608,
    3: 0.090223522157741794596,
    4: 0.056010451913846935852,
    5: 0.03907336296263291796,
    6: 0.029244561627975117607,
}
SLOPE_PER_N = {
    2: 0.02489353418393197149,
    3: 0.012641405509902174755,
    4: 0.0077336741421383254282,
    5: 0.0052531730960785477995,
    6: 0.0038168192330241346995,
}
SLOPELOWER_PER_N = {
    2: 1.0,
    3: 0.13325153982695094627,
    4: 0.052404700034041863405,
    5: 0.027530192041841516555,
    6: 0.016803135574154080756,
}
CURV_PER_N = {
    2: 0.045111761078870897298,
    3: 0.018670150637948978617,
    4: 0.00976834074065822949,
    5: 0.0058489123255950235214,
    6: 0.003824360501142381567,
}


def test_poisson_bounds_match_frozen_table():
    for table, family in [
        (COUNT_PER_N, "count"),
        (SLOPE_PER_N, "slope"),
        (SLOPELOWER_PER_N, "slopelower"),
        (CURV_PER_N, "curv"),
    ]:
        for k, per_n in table.items():
            for n in (1, 1000):
                assert bound_mean(TestKind(family, k), n) == pytest.approx(
                    n * per_n, rel=1e-12
                ), (family, k, n)


def test_poisson_bounds_closed_form_constants():
    assert bound_mean(TestKind("count", 2), 1) == pytest.approx(1 / (2 * math.e), abs=1e-12)
    assert bound_mean(TestKind("slope", 2), 1) == pytest.approx(1 / (2 * math.e**3), abs=1e-12)
    assert bound_mean(TestKind("curv", 2), 1) == pytest.approx(1 / (3 * math.e**2), abs=1e-12)
    assert bound_mean(TestKind("logcurv", 2), 1) == pytest.approx(math.log(1.5), abs=1e-12)
    assert bound_mean(TestKind("even"), 1) == 0.5
    assert bound_mean(TestKind("odd"), 1) == 0.5


def test_logcurv_bound_sits_on_the_statistic_scale():
    # the log-curvature bound does not grow with n
    for k in (2, 3, 9):
        for n in (10, 10**6):
            assert bound_mean(TestKind("logcurv", k), n) == pytest.approx(
                math.log((k + 1) / k), rel=1e-13
            )
    assert bound_mean(TestKind("logcurv", 2), 100, Mode.MULTINOMIAL) == pytest.approx(
        math.log(3 / 2) + math.log(99 / 98), rel=1e-13
    )


def test_even_odd_bounds_are_half_n_in_both_modes():
    for fam in ("even", "odd"):
        for mode in Mode:
            assert bound_mean(TestKind(fam), 840, mode) == 420.0


def test_vacuous_bounds():
    # count at k=1 and slopelower at k=2 cannot beat the trivial bound n
    for mode in Mode:
        assert bound_mean(TestKind("count", 1), 50, mode) == pytest.approx(50.0, rel=1e-12)
        assert bound_mean(TestKind("slopelower", 2), 50, mode) == 50.0


def test_bound_mean_rejects_bad_ranges():
    with pytest.raises(ValueError):
        bound_mean(TestKind("count", 2), 0)
    with pytest.raises(ValueError):
        bound_mean(TestKind("count", 8), 8, Mode.MULTINOMIAL)
    with pytest.raises(ValueError):
        bound_mean(TestKind("curv", 9), 8, Mode.MULTINOMIAL)


def _binom(k: int, n: int, theta: np.ndarray) -> np.ndarray:
    return np.exp(
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * np.log(theta)
        + (n - k) * np.log1p(-theta)
    )


def _sup(f, lo=1e-9, hi=1.0 - 1e-9):
    grid = np.linspace(lo, hi, 200001)
    values = f(grid)
    i = int(np.argmax(values))
    fine = np.linspace(grid[max(i - 2, 0)], grid[min(i + 2, grid.size - 1)], 20001)
    return float(np.max(f(fine)))


def test_multinomial_bounds_are_envelope_suprema():
    k, n = 3, 40
    count_sup = _sup(lambda th: _binom(k, n, th) / th)
    assert bound_mean(TestKind("count", k), n, Mode.MULTINOMIAL) == pytest.approx(
        count_sup, rel=1e-6
    )
    slope_sup = _sup(lambda th: (_binom(k, n, th) - _binom(k - 1, n, th)) / th)
    assert bound_mean(TestKind("slope", k), n, Mode.MULTINOMIAL) == pytest.approx(
        slope_sup, rel=1e-6
    )
    lower_sup = _sup(lambda th: (_binom(k - 1, n, th) - _binom(k, n, th)) / th)
    assert bound_mean(TestKind("slopelower", k), n, Mode.MULTINOMIAL) == pytest.approx(
        lower_sup, rel=1e-6
    )


def test_multinomial_curvature_bound_dominates_envelope():
    # the curvature bound is a dominating product form, not the exact
    # supremum; it must sit above the envelope but within a factor ~2
    for k, n in [(2, 8), (3, 40), (7, 8)]:
        sup = _sup(
            lambda th, k=k, n=n: (
                2 * _binom(k, n, th) - _binom(k - 1, n, th) - _binom(k + 1, n, th)
            )
            / th
        )
        closed = bound_mean(TestKind("curv", k), n, Mode.MULTINOMIAL)
        assert sup <= closed * (1.0 + 1e-9)
        assert closed <= 2.0 * sup


def test_verify_envelope_suites_read_the_family_table(monkeypatch):
    # the envelopes take their weights from FAMILIES, so a wrong weight
    # no longer matches the closed-form bound of its family
    suites = ["poisson-envelopes", "multinomial-envelopes"]
    assert [r.ok for r in run_checks(suites)] == [True, True]
    monkeypatch.setitem(FAMILIES, "slope", Family.linear({0: 1, -1: -2}))
    results = run_checks(suites)
    assert [r.ok for r in results] == [False, False]
    assert all(r.detail.startswith("slope:2 n=") for r in results)


def test_modes_agree_to_five_percent_for_large_n():
    n = 10**4
    for family in ("count", "slope", "logcurv"):
        for k in (2, 3, 10, 30):
            pois = bound_mean(TestKind(family, k), n, Mode.POISSON)
            mult = bound_mean(TestKind(family, k), n, Mode.MULTINOMIAL)
            assert abs(pois - mult) / pois <= 0.05, (family, k)


def test_curvature_modes_converge_from_above():
    # the closed-form curvature bound is dominating rather than tight,
    # so the multinomial value sits strictly above the poisson one and
    # the excess shrinks as k grows
    n = 10**4
    ratios = []
    for k in (2, 3, 10, 30):
        pois = bound_mean(TestKind("curv", k), n, Mode.POISSON)
        mult = bound_mean(TestKind("curv", k), n, Mode.MULTINOMIAL)
        ratios.append(mult / pois)
    assert all(r > 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[0] <= 1.51


def test_bounds_dominate_exact_expectations_on_random_simplexes():
    rng = np.random.default_rng(7)
    for d in (3, 17, 50):
        for n in (60, 1000):
            theta = rng.dirichlet(np.ones(d))
            e = expected_mk(theta, n, n)
            slack = 1e-9
            for k in range(2, 9):
                count = bound_mean(TestKind("count", k), n, Mode.MULTINOMIAL)
                assert e[k] <= count * (1 + slack)
                slope = bound_mean(TestKind("slope", k), n, Mode.MULTINOMIAL)
                assert e[k] - e[k - 1] <= slope * (1 + slack) + 1e-12
                lower = bound_mean(TestKind("slopelower", k), n, Mode.MULTINOMIAL)
                assert e[k - 1] - e[k] <= lower * (1 + slack) + 1e-12
                curv = bound_mean(TestKind("curv", k), n, Mode.MULTINOMIAL)
                assert 2 * e[k] - e[k - 1] - e[k + 1] <= curv * (1 + slack) + 1e-12
            even = sum(k * e[k] for k in range(2, n) if k % 2 == 0)
            odd = sum(k * e[k] for k in range(3, n) if k % 2 == 1)
            assert even <= n / 2 + 1e-9
            assert odd <= n / 2 + 1e-9


def test_theoretical_variance_composes_count_bounds():
    profile = CountProfile(1000, {2: 500})
    opts = TestOptions(variance_source="theoretical")
    assert bound_variance(TestKind("count", 2), profile, opts) == pytest.approx(
        1000 * COUNT_PER_N[2], rel=1e-12
    )
    assert bound_variance(TestKind("slope", 2), profile, opts) == pytest.approx(
        1000 * (COUNT_PER_N[2] + COUNT_PER_N[1]), rel=1e-12
    )
    curv = bound_variance(TestKind("curv", 2), profile, opts)
    assert curv == pytest.approx(1000 * (4 * COUNT_PER_N[2] + COUNT_PER_N[1] + COUNT_PER_N[3]), rel=1e-12)
    assert curv == pytest.approx(1825.98, abs=0.01)


# squared weights of each linear family, written out by hand so the check
# below does not read the family table it is checking
SQUARED_WEIGHTS = {
    "count": {0: 1},
    "slope": {0: 1, -1: 1},
    "slopelower": {0: 1, -1: 1},
    "curv": {0: 4, -1: 1, 1: 1},
}


def test_theoretical_variance_matches_hand_written_weights(capsys):
    from iidtest.cli import main

    for n in (100, 1000):
        profile = CountProfile(n, {1: n})
        for mode in Mode:
            opts = TestOptions(mode=mode, variance_source="theoretical")
            for family, squared in SQUARED_WEIGHTS.items():
                ks = range(1 if family == "count" else 2, 6)
                assert main(["bounds", "--kind", family, "--k", ",".join(map(str, ks)),
                             "--n", str(n), "--mode", mode.value]) == 0
                rows = capsys.readouterr().out.splitlines()[1:]
                assert [int(row.split(",")[1]) for row in rows] == list(ks)
                for k, row in zip(ks, rows):
                    expected = sum(
                        w * bound_mean(TestKind("count", k + off), n, mode)
                        for off, w in squared.items()
                    )
                    kind = TestKind(family, k)
                    assert bound_variance(kind, profile, opts) == pytest.approx(expected, rel=1e-14)
                    assert float(row.split(",")[5]) == pytest.approx(expected, rel=1e-14)
