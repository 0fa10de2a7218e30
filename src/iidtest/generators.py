"""Synthetic data sources: iid baselines, exchangeable corruptions of
them, and card draws without replacement, plus exact expected
multiplicities.

All sampling is driven by a counter-based Philox generator keyed by
the spec's 64-bit seed, so a spec determines its profile exactly and
independent streams come from distinct keys rather than from stream
splitting. Corrupted sources are exchangeable but not iid; they are
what the tests are supposed to catch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .counts import CountProfile

__all__ = [
    "GeneratorSpec",
    "make_theta",
    "reference_theta",
    "sample",
    "sample_items",
    "expected_mk",
]

_MASK64 = (1 << 64) - 1

_KINDS = ("uniform", "linear", "cards")
_CORRUPTIONS = ("none", "even_n", "even_m", "no_empty", "no_unique")


@dataclass(frozen=True)
class GeneratorSpec:
    """Description of one synthetic data source.

    ``kind`` selects the base source: ``uniform`` and ``linear`` draw n
    iid items from d categories (flat or triangular weights), ``cards``
    draws n cards without replacement from ``decks`` shuffled-together
    52-card decks (face value is the item). Corruptions apply to the
    iid kinds only:

    even_n
        draw n/2 items, duplicate each (needs even n)
    even_m
        draw n/2 items, append a copy relabeled into fresh categories
        d+1..2d, making every multiplicity even (needs even n)
    no_empty
        draw n-d items, append each category once (needs n >= d)
    no_unique
        draw n-2d items, append each category twice (needs n >= 2d)
    """

    kind: str
    n: int
    d: int = 0
    corruption: str = "none"
    decks: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "d", "decks", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.corruption not in _CORRUPTIONS:
            raise ValueError(f"unknown corruption {self.corruption!r}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.kind == "cards":
            if self.decks < 1:
                raise ValueError(f"decks must be >= 1, got {self.decks}")
            if self.corruption != "none":
                raise ValueError("cards supports no corruption")
            if self.n > 52 * self.decks:
                raise ValueError(
                    f"cannot draw {self.n} cards from {52 * self.decks}"
                )
            return
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.corruption in ("even_n", "even_m") and self.n % 2:
            raise ValueError(f"{self.corruption} needs even n, got {self.n}")
        if self.corruption == "no_empty" and self.n < self.d:
            raise ValueError("no_empty needs n >= d")
        if self.corruption == "no_unique" and self.n < 2 * self.d:
            raise ValueError("no_unique needs n >= 2d")


def make_theta(kind: str, d: int) -> np.ndarray:
    """Category weights for the iid base sources.

    uniform: theta_x = 1/d. linear: theta_x = 2x/(d(d+1)) for x = 1..d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if kind == "uniform":
        return np.full(d, 1.0 / d)
    if kind == "linear":
        x = np.arange(1, d + 1, dtype=float)
        return 2.0 * x / (d * (d + 1.0))
    raise ValueError(f"no theta for generator kind {kind!r}")


def reference_theta(spec: GeneratorSpec) -> np.ndarray:
    """The uncorrupted iid weights a spec's data is compared against.

    For cards this is the uniform law on the 52 faces, the null a
    card-counting test would assume.
    """
    if spec.kind == "cards":
        return np.full(52, 1.0 / 52)
    return make_theta(spec.kind, spec.d)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def _draw_iid(theta: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(theta)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right") + 1


def _draw_cards(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    pool = np.repeat(np.arange(1, 53), spec.decks)
    total = pool.size
    # partial Fisher-Yates: only the first n swaps are needed
    offsets = rng.random(spec.n)
    for i in range(spec.n):
        j = i + int(offsets[i] * (total - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: spec.n].copy()


def sample_items(spec: GeneratorSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """The raw item sequence (integer labels) a spec generates.

    Mostly useful for emitting data streams; the tests only ever see
    the profile. Passing an explicit generator bypasses the spec seed
    (the Monte Carlo harness does this with per-repetition keys).
    """
    if rng is None:
        rng = _rng(spec.seed)
    if spec.kind == "cards":
        return _draw_cards(spec, rng)
    d = spec.d
    if spec.corruption == "none":
        return _draw_iid(make_theta(spec.kind, d), spec.n, rng)
    theta = make_theta(spec.kind, d)
    if spec.corruption == "even_n":
        return np.repeat(_draw_iid(theta, spec.n // 2, rng), 2)
    if spec.corruption == "even_m":
        half = _draw_iid(theta, spec.n // 2, rng)
        return np.concatenate([half, half + d])
    ladder = np.arange(1, d + 1)
    if spec.corruption == "no_empty":
        return np.concatenate([_draw_iid(theta, spec.n - d, rng), ladder])
    return np.concatenate([_draw_iid(theta, spec.n - 2 * d, rng), np.repeat(ladder, 2)])


def _count_iid(theta: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    # Per-category counts of the labels _draw_iid would return from the
    # same uniforms: label j+1 owns [cum[j-1], cum[j]), so counting the
    # sorted uniforms below each edge replaces one binary search per
    # item with one per category, and leaves the generator in the same
    # state.
    cum = np.cumsum(theta)
    cum[-1] = 1.0
    u = rng.random(size)
    u.sort()
    return np.diff(np.searchsorted(u, cum, side="left"), prepend=0)


def _sample_counts(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Counts of labels 1..d (1..2d for even_m) of an iid-kind spec,
    equal to the bincount of sample_items with the same generator."""
    d = spec.d
    theta = make_theta(spec.kind, d)
    if spec.corruption == "none":
        return _count_iid(theta, spec.n, rng)
    if spec.corruption == "even_n":
        return 2 * _count_iid(theta, spec.n // 2, rng)
    if spec.corruption == "even_m":
        half = _count_iid(theta, spec.n // 2, rng)
        return np.concatenate([half, half])
    if spec.corruption == "no_empty":
        return _count_iid(theta, spec.n - d, rng) + 1
    return _count_iid(theta, spec.n - 2 * d, rng) + 2


def _profile_from_counts(n: int, counts: np.ndarray) -> CountProfile:
    # counts[i] is the count of label i + 1
    mult = np.bincount(counts[np.flatnonzero(counts)])
    return CountProfile(n, {int(k): int(mult[k]) for k in np.flatnonzero(mult)})


def sample(
    spec: GeneratorSpec,
    rng: np.random.Generator | None = None,
    *,
    keep_first_order: bool = False,
) -> CountProfile:
    """Draw one profile from the spec, deterministically in its seed.

    The profile, and the generator state afterwards, equal those of
    ``sample_items`` with the same generator; iid kinds are counted
    per category without labelling each item.

    ``keep_first_order`` must be False: profiles carry no per-label
    counts. It stays only while the benchmark's traced replay passes
    it, and goes after a benchmark-only change drops that argument.
    """
    if keep_first_order:
        raise ValueError("profiles keep no first-order counts; keep_first_order must be False")
    if spec.kind == "cards":
        labels = sample_items(spec, rng)
        return _profile_from_counts(labels.size, np.bincount(labels)[1:])
    if rng is None:
        rng = _rng(spec.seed)
    return _profile_from_counts(spec.n, _sample_counts(spec, rng))


def expected_mk(theta: np.ndarray, n: int, k_max: int) -> np.ndarray:
    """Exact E[M_k] under iid draws from theta, for k = 1..k_max.

    Returns an array indexed by k (entry 0 is NaN: the number of
    never-seen categories is not a represented quantity). Each entry is
    sum_x C(n, k) theta_x^k (1 - theta_x)^(n-k), accumulated in log
    space so tiny per-category masses survive.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a non-empty vector")
    if np.any(theta < 0.0) or abs(float(theta.sum()) - 1.0) > 1e-12:
        raise ValueError("theta must be non-negative and sum to 1")
    if n < 0 or k_max < 1:
        raise ValueError(f"need n >= 0 and k_max >= 1, got n={n}, k_max={k_max}")
    out = np.zeros(k_max + 1)
    out[0] = np.nan
    inner = (theta > 0.0) & (theta < 1.0)
    log_t = np.log(theta[inner])
    log_1mt = np.log1p(-theta[inner])
    ones = int(np.count_nonzero(theta == 1.0))
    for k in range(1, min(k_max, n) + 1):
        log_coef = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        if inner.any():
            out[k] = math.exp(logsumexp(log_coef + k * log_t + (n - k) * log_1mt))
        if k == n and ones:
            out[k] += ones
    return out
