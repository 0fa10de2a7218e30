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
from typing import Iterable, Iterator

import numpy as np
from scipy.special import gammaln, logsumexp

from .counts import CountProfile
from .definitions import GeneratorSpec

__all__ = [
    "GeneratorSpec",
    "make_theta",
    "reference_theta",
    "sample",
    "sample_items",
    "expected_mk",
]

_MASK64 = (1 << 64) - 1


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


def _listed(state: dict) -> dict:
    """A bit generator's state with every array in it made a list of
    Python ints, which its state setter reads faster than numpy
    scalars."""
    listed = {}
    for name, value in state.items():
        if isinstance(value, dict):
            value = _listed(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        listed[name] = value
    return listed


def _rekeyed(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield one generator once per seed, re-keyed in place each time so
    that it draws exactly what a fresh ``_rng(seed)`` would, whatever
    was drawn from it before; it is stale once the next one is taken.

    Assigning a fresh generator's state, listed, with only the key
    changed (counter 0, empty buffer, no pending 32-bit half) costs
    about a twentieth of building a generator."""
    bitgen = np.random.Philox(key=0)
    fresh = _listed(bitgen.state)
    rng = np.random.Generator(bitgen)
    for seed in seeds:
        fresh["state"]["key"][0] = seed & _MASK64
        bitgen.state = fresh
        yield rng


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
    the profile. Passing an explicit generator bypasses the spec seed.
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
    """Counts of faces 1..52 of a cards spec, or of labels 1..d (1..2d
    for even_m) of an iid-kind spec, equal to the bincount of
    sample_items with the same generator."""
    if spec.kind == "cards":
        return _deal_counts(spec, rng.random((1, spec.n)))[0]
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


def _deal_counts(spec: GeneratorSpec, offsets: np.ndarray) -> np.ndarray:
    """Face counts of the hands _draw_cards deals from each row of the
    (hands x n) matrix of the n offsets it draws, one row per hand and
    faces 1..52 in columns 0..51.

    Every swap target is computed up front with the same float product
    and truncation as _draw_cards, as a flat index into one int8 pool
    of faces 0..51 held position-major (position p of hand h at
    p * hands + h). Step i then swaps across all hands at once: gather
    the targets, scatter row i onto them, and copy the gathered faces
    into row i, which no later step touches."""
    n, total = spec.n, 52 * spec.decks
    hands = len(offsets)
    steps, hand = np.arange(n)[:, None], np.arange(hands)
    targets = np.empty((n, hands), dtype=np.intp)
    np.multiply(offsets.T, total - steps, out=targets, dtype=float, casting="unsafe")
    targets += steps
    targets *= hands
    targets += hand
    pool = np.repeat(np.arange(52, dtype=np.int8), spec.decks * hands)
    for i, flat in enumerate(targets):
        row = pool[i * hands : (i + 1) * hands]
        drawn = pool[flat]
        pool[flat] = row
        row[:] = drawn
    # the spent targets take each dealt face's bin, face + 52 * hand
    dealt = np.add(pool[: n * hands].reshape(n, hands), 52 * hand, out=targets)
    return np.bincount(dealt.ravel(), minlength=52 * hands).reshape(hands, 52)


def _multiplicity_rows(counts: np.ndarray) -> np.ndarray:
    # m_k of each row of per-category counts, in column k (column 0 zero)
    width = int(counts.max(initial=0)) + 1
    flat = counts + width * np.arange(len(counts))[:, None]
    mult = np.bincount(flat.ravel(), minlength=width * len(counts)).reshape(len(counts), width)
    mult[:, 0] = 0
    return mult


def _sample_multiplicities(spec: GeneratorSpec, seed: int, reps: range):
    """Yield the multiplicity rows (m_k in column k) of the profiles of
    repetitions ``reps``, rep r drawn from a fresh Philox keyed by
    (seed XOR r) mod 2**64, with the uniform each draws right after its
    profile (the harness's control), in blocks: one block for all the
    card deals, one row at a time for the iid kinds so that no block is
    wider than one profile's largest count. One generator is re-keyed
    for every rep."""
    rngs = _rekeyed(seed ^ rep for rep in reps)
    if spec.kind == "cards":
        # a hand's n offsets and then its control, in one call into its
        # row: the same doubles as random(n) followed by random()
        draws = np.empty((len(reps), spec.n + 1))
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        yield _multiplicity_rows(_deal_counts(spec, draws[:, :-1])), draws[:, -1]
        return
    for rng in rngs:
        # held across the yield: freed there, malloc trims the rep's
        # uniforms off the heap top each rep, a quarter slower at n = 1e5
        counts = _sample_counts(spec, rng)
        yield _multiplicity_rows(counts[None, :]), np.array([rng.random()])


def sample(
    spec: GeneratorSpec,
    rng: np.random.Generator | None = None,
    *,
    keep_first_order: bool = False,
) -> CountProfile:
    """Draw one profile from the spec, deterministically in its seed.

    The profile, and the generator state afterwards, equal those of
    ``sample_items`` with the same generator. It takes the Monte Carlo
    harness's path: iid kinds are counted per category without
    labelling each item, and cards are dealt by the chunk dealer.

    ``keep_first_order`` must be False: profiles carry no per-label
    counts. It stays only while the benchmark's traced replay passes
    it, and goes after a benchmark-only change drops that argument.
    """
    if keep_first_order:
        raise ValueError("profiles keep no first-order counts; keep_first_order must be False")
    if rng is None:
        rng = _rng(spec.seed)
    [mult] = _multiplicity_rows(_sample_counts(spec, rng)[None, :])
    return CountProfile(spec.n, {int(k): int(mult[k]) for k in np.flatnonzero(mult)})


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
    if inner.any():
        for k in range(1, min(k_max, n) + 1):
            log_coef = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            out[k] = math.exp(logsumexp(log_coef + k * log_t + (n - k) * log_1mt))
    if 1 <= n <= k_max:
        # a category of mass 1 holds all n draws
        out[n] += np.count_nonzero(theta == 1.0)
    return out
