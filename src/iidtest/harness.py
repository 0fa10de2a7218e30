"""Monte Carlo harness: repeat a generator, run a test suite on every
draw, and aggregate p-value curves and multiplicity summaries.

Reproducibility discipline: repetition r draws exactly the stream of
a fresh ``Philox(key=(seed XOR r) mod 2**64)``, so results are a pure
function of the config and in particular independent of how
repetitions are distributed over workers. They are cut once into
chunks; the parent runs every workers-th chunk from the first and a
pool of the other workers runs the rest, and the parent fills one
table, allocated first, in repetition order. Each chunk's sampler keys
every repetition itself, re-keying one Philox rather than building one
per repetition, and stacks their multiplicity rows. A uniform control
p-value ("u") is recorded per repetition; its rejection curve should
hug the diagonal, which catches harness bugs rather than test failures.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .counts import _integer
from .definitions import _check_suite
from .generators import GeneratorSpec, _sample_multiplicities, expected_mk, reference_theta
from .invariants import (
    TestKind,
    TestOptions,
    _check_options,
    _per_distinct,
    _suite_reads,
    _suite_results,
    parse_kind,
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

_DEFAULT_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_test_pair(entry) -> bool:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        return False
    return isinstance(entry[0], TestKind) and isinstance(entry[1], TestOptions)


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
        if not isinstance(self.generator, GeneratorSpec):
            raise ValueError(f"generator must be a GeneratorSpec, got {self.generator!r}")
        if not isinstance(self.tests, (list, tuple)) or not all(map(_is_test_pair, self.tests)):
            raise ValueError(f"tests must be a list of (TestKind, TestOptions) pairs, got {self.tests!r}")
        for name in ("reps", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not isinstance(self.assert_validity, bool):
            raise ValueError(f"assert_validity must be true or false, got {self.assert_validity!r}")
        if not _is_number(self.alpha_star):
            raise ValueError(f"alpha_star must be a number, got {self.alpha_star!r}")
        grid = self.alpha_grid
        if not isinstance(grid, (list, tuple)) or not all(map(_is_number, grid)):
            raise ValueError(f"alpha_grid must be a list of numbers, got {grid!r}")
        object.__setattr__(self, "tests", tuple((k, o) for k, o in self.tests))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in grid))
        _check_suite([kind for kind, _ in self.tests])
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = self.alpha_grid
        if not grid or any(not 0.0 < a < 1.0 for a in grid):
            raise ValueError("alpha_grid entries must lie in (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("alpha_grid must be strictly ascending")
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError(f"alpha_star must lie in (0, 1), got {self.alpha_star}")
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
    ps = np.sort(np.asarray(pvalues, dtype=float))
    if not ps.size:
        raise ValueError("need at least one p-value")
    grid = np.asarray(list(alpha_grid), dtype=float)
    return (np.searchsorted(ps, grid, side="right") / ps.size).tolist()


# reps per vectorised pass: bounds the per-pass arrays, not the results;
# within a pass, the sampler's stacks of multiplicity rows are read
_CHUNK = 1024


def _add_counts(totals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """totals + counts (m_k at index k), widened to the longer; in place if it can."""
    if counts.size > totals.size:
        totals = np.pad(totals, (0, counts.size - totals.size))
    totals[: counts.size] += counts
    return totals


def _run_chunk(cfg: ExperimentConfig, lo: int, hi: int):
    """Repetitions lo..hi-1, at most _CHUNK: their p-values (one row per
    label, the control last), the sum of their multiplicity vectors
    (m_k at index k) and the multiplicity vector of repetition lo."""
    spec = cfg.generator
    reads, controls, totals, first = [], [], np.zeros(1, dtype=np.int64), None
    for mult, control in _sample_multiplicities(spec, cfg.seed, range(lo, hi)):
        reads.append(_suite_reads(cfg.tests, spec.n, mult))
        controls.append(control)
        totals = _add_counts(totals, mult.sum(axis=0))
        first = mult[0] if first is None else first
    # p is the last plane of the results
    pvalues = _suite_results(cfg.tests, spec.n, np.concatenate(reads))[0][-1]
    return np.vstack((pvalues, np.concatenate(controls))), totals, first


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the experiment; the report is identical for any worker count.

    The p-value table is allocated before any chunk runs, so a run too
    large to hold fails first. Chunks arrive in repetition order, so
    every floating-point reduction happens in a fixed order. At most one
    worker per repetition and per CPU the process may use runs, the
    calling process counted as one: chunk j runs in it when
    j % workers == 0, and in a pool of workers - 1 processes otherwise.
    """
    workers = min(_integer("workers", workers, 1), cfg.reps, _usable_cpus())
    table = np.empty((len(cfg.labels), cfg.reps))
    step = min(_CHUNK, -(-cfg.reps // workers))
    spans = [(lo, min(lo + step, cfg.reps)) for lo in range(0, cfg.reps, step)]
    totals = np.zeros(1, dtype=np.int64)
    with ProcessPoolExecutor(max_workers=workers - 1) if workers > 1 else nullcontext() as pool:
        # chunk j runs here when j % workers == 0 and in the pool otherwise;
        # map submits every pooled chunk before this process runs chunk 0
        handed = [span for j, span in enumerate(spans) if j % workers]
        pooled = pool.map(_run_chunk, [cfg] * len(handed), *zip(*handed)) if pool else None
        for j, (lo, hi) in enumerate(spans):
            ps, counts, head = next(pooled) if j % workers else _run_chunk(cfg, lo, hi)
            table[:, lo:hi] = ps
            totals = _add_counts(totals, counts)
            if lo == 0:
                first = head
    pvalues = {label: tuple(ps) for label, ps in zip(cfg.labels, table.tolist())}
    curves, headline = {}, {}
    alphas = cfg.alpha_grid + (cfg.alpha_star,)
    for label, ps in zip(cfg.labels, table):
        # (alpha, rejection rate, its binomial standard error), alpha_star last
        *curve, (_, rate, stderr) = [
            (alpha, frac, math.sqrt(frac * (1.0 - frac) / cfg.reps))
            for alpha, frac in zip(alphas, rejection_curve(ps, alphas))
        ]
        curves[label] = tuple(curve)
        headline[label] = (rate, stderr)

    sample_m = {int(k): int(first[k]) for k in np.flatnonzero(first)}
    present = np.flatnonzero(totals)
    avg_m = {int(k): int(totals[k]) / cfg.reps for k in present}
    k_max = int(present[-1]) if present.size else 1
    expectation = expected_mk(reference_theta(cfg.generator), cfg.generator.n, k_max)
    expected = {k: float(expectation[k]) for k in range(1, k_max + 1)}
    return ExperimentReport(cfg, pvalues, curves, headline, sample_m, avg_m, expected)


def emit_report(report: ExperimentReport) -> dict[str, bytes]:
    """Serialize a report to three named CSV tables.

    pvalues.csv holds one row per repetition and test (columns
    rep,test,k,p; k empty for the k-free tests and the control).
    curves.csv holds the rejection curves (header exactly
    ``test,k,alpha,fraction,stderr``). mk.csv compares the first
    sampled profile, the Monte Carlo average and the exact iid
    expectation per k. Floats are written with repr.
    """
    # the "test,k" cells of each label, the control's last
    keys = [f"{kind.family},{'' if kind.k is None else kind.k}" for kind, _ in report.config.tests]
    keyed = list(zip(keys + ["u,"], report.config.labels))
    # the ",test,k,p" cells of each label, p printed by repr once per
    # distinct bit pattern: 0.0 and -0.0 print apart
    columns = [
        _per_distinct(lambda p, key=key: f",{key},{p!r}\n", report.pvalues[label], dtype=object).tolist()
        for key, label in keyed
    ]
    # a rep's rows run label by label: its text, then each label's cell
    reps = list(map(str, range(len(columns[0]))))
    rows = zip(*[text for cells in columns for text in (reps, cells)])
    pvalues_csv = "rep,test,k,p\n" + "".join(chain.from_iterable(rows))
    curves_csv = "test,k,alpha,fraction,stderr\n" + "".join(
        f"{key},{alpha!r},{frac!r},{stderr!r}\n"
        for key, label in keyed
        for alpha, frac, stderr in report.curves[label]
    )
    sample_m, avg_m, expected_m = report.sample_m, report.avg_m, report.expected_m
    mk_csv = "k,sample_m,avg_m,expected_m\n" + "".join(
        f"{k},{sample_m.get(k, 0)},{avg_m.get(k, 0.0)!r},{expected_m.get(k, 0.0)!r}\n"
        for k in range(1, max(expected_m, default=1) + 1)
    )
    return {
        "pvalues.csv": pvalues_csv.encode(),
        "curves.csv": curves_csv.encode(),
        "mk.csv": mk_csv.encode(),
    }


# passed to ExperimentConfig as they are; it checks them
_PLAIN_KEYS = ("reps", "alpha_grid", "alpha_star", "seed", "assert_validity")
_CONFIG_KEYS = {"generator", "tests", "options", *_PLAIN_KEYS}
# JSON key of each TestOptions field, in document order
_OPTION_FIELDS = {
    "mode": "mode",
    "cn": "cn_correction",
    "variance": "variance_source",
    "pvalue": "pvalue_method",
}


def _record(value, name: str, keys, required=()) -> dict:
    """``value`` checked as a JSON object with keys from ``keys``, ``required`` among them."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    extra = set(value) - set(keys)
    if extra:
        raise ValueError(f"unknown {name} fields: {sorted(extra)}")
    missing = [repr(key) for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} needs {' and '.join(missing)}")
    return value


def _options_from(doc: dict, base: TestOptions) -> TestOptions:
    # every key but a test entry's "kind" names an option
    return replace(base, **{_OPTION_FIELDS[key]: v for key, v in doc.items() if key != "kind"})


def _options_to(opts: TestOptions) -> dict:
    values = {key: getattr(opts, name) for key, name in _OPTION_FIELDS.items()}
    return {key: v.value if isinstance(v, Enum) else v for key, v in values.items()}


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
    _record(doc, "config", _CONFIG_KEYS, ("generator", "tests"))
    spec_fields = fields(GeneratorSpec)
    required = [f.name for f in spec_fields if f.default is MISSING]
    gen = _record(doc["generator"], "generator", [f.name for f in spec_fields], required)
    spec = GeneratorSpec(**gen)
    base = _options_from(_record(doc.get("options", {}), "options", _OPTION_FIELDS), TestOptions())
    if not isinstance(doc["tests"], list):
        raise ValueError("'tests' must be a list")
    tests = []
    for entry in doc["tests"]:
        # a kind token is short for the entry that names only its kind
        if isinstance(entry, str):
            entry = {"kind": entry}
        _record(entry, "test entry", ["kind", *_OPTION_FIELDS], ["kind"])
        tests.append((parse_kind(entry["kind"]), _options_from(entry, base)))
    kwargs = {name: doc[name] for name in _PLAIN_KEYS if name in doc}
    return ExperimentConfig(generator=spec, tests=tuple(tests), **kwargs)


def config_to_json(cfg: ExperimentConfig) -> dict:
    """Config as a JSON-ready dict; inverse of config_from_json."""
    doc = {
        "generator": asdict(cfg.generator),
        "tests": [{"kind": str(kind), **_options_to(opts)} for kind, opts in cfg.tests],
    }
    doc.update((name, getattr(cfg, name)) for name in _PLAIN_KEYS)
    doc["alpha_grid"] = list(cfg.alpha_grid)
    return doc
