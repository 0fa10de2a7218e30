"""Monte Carlo harness: repeat a generator, run a test suite on every
draw, and aggregate p-value curves and multiplicity summaries.

Reproducibility discipline: repetition r uses the Philox key
``seed XOR r``, so results are a pure function of the config and in
particular independent of how repetitions are distributed over
workers. A uniform control p-value ("u") is recorded per repetition;
its rejection curve should hug the diagonal, which catches harness
bugs rather than test failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counts import _is_int
from .generators import GeneratorSpec, reference_theta, expected_mk, sample
from .invariants import (
    Mode,
    PValueMethod,
    TestKind,
    TestOptions,
    VarianceSource,
    _check_options,
    parse_kind,
    run_test,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "rejection_curve",
    "emit_report",
    "config_to_json",
    "config_from_json",
]

_MASK64 = (1 << 64) - 1

_DEFAULT_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a generator, a test suite, and repetition knobs.

    ``tests`` pairs each kind with its options. ``alpha_star`` is the
    headline level reported with a binomial standard error;
    ``alpha_grid`` drives the rejection curves. ``assert_validity``
    asks consumers (the CLI) to fail when any test rejects more often
    than alpha_star allows at three standard errors; it is meant for
    iid configs only.

    Construction checks every field and raises ValueError on the first
    violation, including a test whose family cannot take its options.
    """

    generator: GeneratorSpec
    tests: tuple[tuple[TestKind, TestOptions], ...]
    reps: int = 2000
    alpha_grid: tuple[float, ...] = _DEFAULT_GRID
    alpha_star: float = 0.05
    seed: int = 0
    assert_validity: bool = False

    def __post_init__(self) -> None:
        for name in ("reps", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.assert_validity, bool):
            raise ValueError(f"assert_validity must be true or false, got {self.assert_validity!r}")
        if not _is_number(self.alpha_star):
            raise ValueError(f"alpha_star must be a number, got {self.alpha_star!r}")
        grid = self.alpha_grid
        if not isinstance(grid, (list, tuple)) or not all(map(_is_number, grid)):
            raise ValueError(f"alpha_grid must be a list of numbers, got {grid!r}")
        object.__setattr__(self, "tests", tuple((k, o) for k, o in self.tests))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in grid))
        if not self.tests:
            raise ValueError("need at least one test")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = self.alpha_grid
        if not grid or any(not 0.0 < a < 1.0 for a in grid):
            raise ValueError("alpha_grid entries must lie in (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("alpha_grid must be strictly ascending")
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError(f"alpha_star must lie in (0, 1), got {self.alpha_star}")
        kinds = [str(kind) for kind, _ in self.tests]
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate test kinds in suite")
        for kind, opts in self.tests:
            try:
                _check_options(kind, opts)
            except ValueError as exc:
                raise ValueError(f"{kind}: {exc}") from None

    @property
    def labels(self) -> tuple[str, ...]:
        """Column labels: one per configured test, then the control."""
        return tuple(str(kind) for kind, _ in self.tests) + ("u",)


@dataclass
class ExperimentReport:
    """Aggregated outcome of run_experiment.

    ``pvalues`` maps each label to the per-repetition p-values in
    repetition order. ``curves`` maps labels to (alpha, fraction,
    stderr) rows over the config's grid; ``headline`` holds the pair
    (rejection rate, stderr) at alpha_star. The multiplicity summary
    keeps the first repetition's profile, the Monte Carlo average, and
    the exact iid expectation under the uncorrupted weights.
    """

    config: ExperimentConfig
    pvalues: dict[str, tuple[float, ...]]
    curves: dict[str, tuple[tuple[float, float, float], ...]]
    headline: dict[str, tuple[float, float]]
    sample_m: dict[int, int]
    avg_m: dict[int, float]
    expected_m: dict[int, float]

    def validity_failures(self) -> list[str]:
        """Labels rejecting more often than alpha_star plus 3 stderr."""
        out = []
        for label, (rate, stderr) in self.headline.items():
            if label != "u" and rate > self.config.alpha_star + 3.0 * stderr:
                out.append(label)
        return out


def rejection_curve(pvalues: Sequence[float], alpha_grid: Iterable[float]) -> list[float]:
    """Fraction of p-values at or below each grid point."""
    pvalues = list(pvalues)
    if not pvalues:
        raise ValueError("need at least one p-value")
    reps = len(pvalues)
    return [sum(p <= alpha for p in pvalues) / reps for alpha in alpha_grid]


def _run_range(cfg: ExperimentConfig, start: int, stop: int):
    rows = []
    for rep in range(start, stop):
        rng = np.random.Generator(np.random.Philox(key=(cfg.seed ^ rep) & _MASK64))
        profile = sample(cfg.generator, rng=rng)
        u = float(rng.random())
        ps = tuple(run_test(kind, profile, opts).p for kind, opts in cfg.tests)
        rows.append((rep, ps, profile.multiplicities, u))
    return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the experiment; the report is identical for any worker count.

    Repetitions are split into contiguous chunks, one per worker, and
    merged back in repetition order before any aggregation, so every
    floating-point reduction happens in a fixed order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or cfg.reps == 1:
        rows = _run_range(cfg, 0, cfg.reps)
    else:
        workers = min(workers, cfg.reps)
        chunk = -(-cfg.reps // workers)
        spans = [(lo, min(lo + chunk, cfg.reps)) for lo in range(0, cfg.reps, chunk)]
        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_range, *zip(*((cfg, lo, hi) for lo, hi in spans))):
                rows.extend(part)
    rows.sort(key=lambda r: r[0])

    labels = cfg.labels
    per_label: dict[str, list[float]] = {label: [] for label in labels}
    m_totals: dict[int, int] = {}
    for _, ps, m, u in rows:
        for label, p in zip(labels, ps + (u,)):
            per_label[label].append(p)
        for k, mk in m.items():
            m_totals[k] = m_totals.get(k, 0) + mk

    pvalues = {label: tuple(ps) for label, ps in per_label.items()}
    curves = {}
    headline = {}
    for label in labels:
        ps = pvalues[label]
        fractions = rejection_curve(ps, cfg.alpha_grid)
        curve = []
        for alpha, frac in zip(cfg.alpha_grid, fractions):
            curve.append((alpha, frac, math.sqrt(frac * (1.0 - frac) / cfg.reps)))
        curves[label] = tuple(curve)
        rate = sum(p <= cfg.alpha_star for p in ps) / cfg.reps
        headline[label] = (rate, math.sqrt(rate * (1.0 - rate) / cfg.reps))

    sample_m = dict(rows[0][2])
    avg_m = {k: total / cfg.reps for k, total in sorted(m_totals.items())}
    k_max = max(m_totals, default=1)
    expectation = expected_mk(reference_theta(cfg.generator), cfg.generator.n, k_max)
    expected = {k: float(expectation[k]) for k in range(1, k_max + 1)}
    return ExperimentReport(cfg, pvalues, curves, headline, sample_m, avg_m, expected)


def _label_parts(label: str) -> tuple[str, str]:
    name, sep, k = label.partition(":")
    return name, k if sep else ""


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_report(report: ExperimentReport) -> dict[str, bytes]:
    """Serialize a report to three named CSV tables.

    pvalues.csv holds one row per repetition and test (columns
    rep,test,k,p; k empty for the k-free tests and the control).
    curves.csv holds the rejection curves (header exactly
    ``test,k,alpha,fraction,stderr``). mk.csv compares the first
    sampled profile, the Monte Carlo average and the exact iid
    expectation per k.
    """
    cfg = report.config
    pbuf = io.StringIO()
    writer = csv.writer(pbuf, lineterminator="\n")
    writer.writerow(["rep", "test", "k", "p"])
    labels = cfg.labels
    for rep in range(cfg.reps):
        for label in labels:
            name, k = _label_parts(label)
            writer.writerow([rep, name, k, _fmt(report.pvalues[label][rep])])

    cbuf = io.StringIO()
    writer = csv.writer(cbuf, lineterminator="\n")
    writer.writerow(["test", "k", "alpha", "fraction", "stderr"])
    for label in labels:
        name, k = _label_parts(label)
        for alpha, frac, stderr in report.curves[label]:
            writer.writerow([name, k, _fmt(alpha), _fmt(frac), _fmt(stderr)])

    mbuf = io.StringIO()
    writer = csv.writer(mbuf, lineterminator="\n")
    writer.writerow(["k", "sample_m", "avg_m", "expected_m"])
    k_max = max(report.expected_m, default=1)
    for k in range(1, k_max + 1):
        writer.writerow(
            [
                k,
                report.sample_m.get(k, 0),
                _fmt(report.avg_m.get(k, 0.0)),
                _fmt(report.expected_m.get(k, 0.0)),
            ]
        )
    return {
        "pvalues.csv": pbuf.getvalue().encode(),
        "curves.csv": cbuf.getvalue().encode(),
        "mk.csv": mbuf.getvalue().encode(),
    }


_GENERATOR_KEYS = {"kind", "n", "d", "corruption", "decks", "seed"}
# passed to ExperimentConfig as they are; it checks them
_PLAIN_KEYS = ("reps", "alpha_grid", "alpha_star", "seed", "assert_validity")
_CONFIG_KEYS = {"generator", "tests", "options", *_PLAIN_KEYS}
_OPTION_KEYS = {"mode", "cn", "variance", "pvalue"}


def _options_from(doc: dict, base: TestOptions) -> TestOptions:
    extra = set(doc) - _OPTION_KEYS
    if extra:
        raise ValueError(f"unknown option fields: {sorted(extra)}")
    return TestOptions(
        mode=Mode(doc.get("mode", base.mode)),
        cn_correction=doc.get("cn", base.cn_correction),
        variance_source=VarianceSource(doc.get("variance", base.variance_source)),
        pvalue_method=PValueMethod(doc.get("pvalue", base.pvalue_method)),
    )


def config_from_json(text: str) -> ExperimentConfig:
    """Parse an experiment config document.

    Shape: ``{"generator": {...}, "tests": [...], ...}`` where each
    tests entry is either a kind token like ``"count:2"`` (inheriting
    the document-level ``options`` object, if any) or an object
    ``{"kind": ..., "mode": ..., "cn": ..., "variance": ...,
    "pvalue": ...}``. Raises ValueError with a description on any
    malformed field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    if "generator" not in doc or "tests" not in doc:
        raise ValueError("config needs 'generator' and 'tests'")
    gen = doc["generator"]
    if not isinstance(gen, dict):
        raise ValueError("'generator' must be an object")
    extra = set(gen) - _GENERATOR_KEYS
    if extra:
        raise ValueError(f"unknown generator fields: {sorted(extra)}")
    if "kind" not in gen or "n" not in gen:
        raise ValueError("generator needs 'kind' and 'n'")
    spec = GeneratorSpec(
        kind=gen["kind"],
        n=gen["n"],
        d=gen.get("d", 0),
        corruption=gen.get("corruption", "none"),
        decks=gen.get("decks", 1),
        seed=gen.get("seed", 0),
    )
    base = TestOptions()
    if "options" in doc:
        if not isinstance(doc["options"], dict):
            raise ValueError("'options' must be an object")
        base = _options_from(doc["options"], base)
    if not isinstance(doc["tests"], list) or not doc["tests"]:
        raise ValueError("'tests' must be a non-empty list")
    tests = []
    for entry in doc["tests"]:
        if isinstance(entry, str):
            tests.append((parse_kind(entry), base))
        elif isinstance(entry, dict):
            if "kind" not in entry:
                raise ValueError(f"test entry needs 'kind': {entry!r}")
            opts = _options_from({k: v for k, v in entry.items() if k != "kind"}, base)
            tests.append((parse_kind(entry["kind"]), opts))
        else:
            raise ValueError(f"bad test entry {entry!r}")
    kwargs = {name: doc[name] for name in _PLAIN_KEYS if name in doc}
    return ExperimentConfig(generator=spec, tests=tuple(tests), **kwargs)


def config_to_json(cfg: ExperimentConfig) -> dict:
    """Config as a JSON-ready dict; inverse of config_from_json."""
    return {
        "generator": {
            "kind": cfg.generator.kind,
            "n": cfg.generator.n,
            "d": cfg.generator.d,
            "corruption": cfg.generator.corruption,
            "decks": cfg.generator.decks,
            "seed": cfg.generator.seed,
        },
        "tests": [
            {
                "kind": str(kind),
                "mode": opts.mode.value,
                "cn": opts.cn_correction,
                "variance": opts.variance_source.value,
                "pvalue": opts.pvalue_method.value,
            }
            for kind, opts in cfg.tests
        ],
        "reps": cfg.reps,
        "alpha_grid": list(cfg.alpha_grid),
        "alpha_star": cfg.alpha_star,
        "seed": cfg.seed,
        "assert_validity": cfg.assert_validity,
    }
