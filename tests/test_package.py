"""The package's public surface."""

import iidtest

PUBLIC = [
    "CombinedResult", "CountProfile", "DEFAULT_SUITE", "ExperimentConfig", "ExperimentReport",
    "FAMILIES", "Family", "GeneratorSpec", "Mode", "PValueMethod", "TestKind", "TestOptions",
    "TestResult", "VarianceSource", "__version__", "bound_mean", "bound_variance",
    "combine_bonferroni", "combine_weighted_infinite", "config_from_json", "config_to_json",
    "emit_report", "expected_mk", "ingest_items", "ingest_lines", "log_binomial_pmf", "log_cn",
    "log_normal_sf", "log_poisson_pmf", "log_ratio_poisson_binomial", "make_theta",
    "p_value_bernstein", "p_value_gaussian", "parse_kind",
    "profile_from_counts", "profile_from_json", "profile_to_json", "reference_theta",
    "rejection_curve", "run_checks", "run_experiment", "run_test", "sample", "sample_items",
    "statistic", "stirling_factor", "theoretical_variance",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(iidtest.__all__) == PUBLIC
    for name in iidtest.__all__:
        assert getattr(iidtest, name) is not None
