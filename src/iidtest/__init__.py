"""Invariant tests of the iid hypothesis from count multiplicities.

The library reduces a sample to its multiplicity profile (how many
distinct items occur exactly k times), evaluates one-sided tests whose
mean bounds hold under any iid law on any discrete space, and wraps
synthetic generators plus a reproducible Monte Carlo harness around
them. See the README for the command-line surface.
"""

from .counts import (
    CountProfile,
    ingest_items,
    ingest_lines,
    profile_from_counts,
    profile_from_json,
    profile_to_json,
)
from .generators import (
    GeneratorSpec,
    expected_mk,
    make_theta,
    reference_theta,
    sample,
    sample_items,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    config_from_json,
    config_to_json,
    emit_report,
    rejection_curve,
    run_experiment,
)
from .invariants import (
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
    bound_mean,
    bound_variance,
    combine_bonferroni,
    combine_weighted_infinite,
    p_value_bernstein,
    p_value_gaussian,
    parse_kind,
    run_test,
    statistic,
    theoretical_variance,
)
from .numerics import (
    log_binomial_pmf,
    log_cn,
    log_normal_sf,
    log_poisson_pmf,
    log_ratio_poisson_binomial,
    normal_cdf,
    normal_quantile,
    stirling_factor,
)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "CountProfile",
    "ingest_items",
    "ingest_lines",
    "profile_from_counts",
    "profile_from_json",
    "profile_to_json",
    "GeneratorSpec",
    "expected_mk",
    "make_theta",
    "reference_theta",
    "sample",
    "sample_items",
    "ExperimentConfig",
    "ExperimentReport",
    "config_from_json",
    "config_to_json",
    "emit_report",
    "rejection_curve",
    "run_experiment",
    "DEFAULT_SUITE",
    "FAMILIES",
    "CombinedResult",
    "Family",
    "Mode",
    "PValueMethod",
    "TestKind",
    "TestOptions",
    "TestResult",
    "VarianceSource",
    "bound_mean",
    "bound_variance",
    "combine_bonferroni",
    "combine_weighted_infinite",
    "p_value_bernstein",
    "p_value_gaussian",
    "parse_kind",
    "run_test",
    "statistic",
    "theoretical_variance",
    "log_binomial_pmf",
    "log_cn",
    "log_normal_sf",
    "log_poisson_pmf",
    "log_ratio_poisson_binomial",
    "normal_cdf",
    "normal_quantile",
    "stirling_factor",
    "run_checks",
    "__version__",
]
