"""Synthetic data sources: iid baselines, exchangeable corruptions of
them, and card draws without replacement, plus exact expected
multiplicities.

All sampling is driven by a counter-based Philox generator keyed by
the spec's 64-bit seed, so a spec determines its profile exactly and
independent streams come from distinct keys rather than from stream
splitting. Corrupted sources are exchangeable but not iid; they are
what the tests are supposed to catch.

A spec's items take a fixed number of uniforms, drawn in one call;
labels, per-category counts and card deals are maps of them, so every
path to a spec's items or profile leaves its generator in one state.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.special import gammaln, logsumexp

from .counts import CountProfile
from .definitions import _FILL, GeneratorSpec

__all__ = [
    "GeneratorSpec",
    "make_theta",
    "reference_theta",
    "sample",
    "sample_items",
    "expected_mk",
]

_MASK64 = (1 << 64) - 1
# cells per block of reps (a rep's widest count, multiplicity row or
# card pool, see _sample_multiplicities) and per stack of rows
_BUDGET = 2**17


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


def _draw_count(spec: GeneratorSpec) -> int:
    """How many uniforms the items of a spec are drawn from: one per
    card or iid item, before a corruption copies the draw or appends
    its fill of every category."""
    if spec.corruption in ("even_n", "even_m"):
        return spec.n // 2
    return spec.n - _FILL[spec.corruption] * spec.d


def _edges(spec: GeneratorSpec) -> np.ndarray:
    # label j+1 of an iid kind owns [edges[j-1], edges[j])
    edges = np.cumsum(make_theta(spec.kind, spec.d))
    edges[-1] = 1.0
    return edges


def _labeller(spec: GeneratorSpec, shape: int | tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The label map of an iid-kind spec for arrays of uniforms of
    ``shape``, or of fewer rows: ``label(u)`` is
    ``np.searchsorted(_edges(spec), u, "right")``, the 0-based labels,
    exactly. A label is guessed by the closed-form inverse CDF of theta,
    truncated, and the guess L stands if ``lower[L] <= u < upper[L]``,
    where ``lower`` and ``upper`` are views of the one table
    ``bounds = [0, edges, inf]`` one slot apart, which with edges that
    never decrease makes it the search's answer. Label d, which rounding
    can guess for a uniform just below 1, has ``lower[d] = 1`` and so
    fails the check. Only the misses, uniforms next to an edge, are
    searched. The temporaries are buffers made here once, for a chunk's
    repetitions to share; each call overwrites the last labels.
    """
    d, bounds = spec.d, np.concatenate(([0.0], _edges(spec), [np.inf]))
    lower, upper = bounds[:-1], bounds[1:]
    buffers = [np.empty(shape, dtype=dtype) for dtype in (float, np.intp, bool, bool)]

    def label(u: np.ndarray) -> np.ndarray:
        guess, labels, hit, below = (buffer[: len(u)] for buffer in buffers)
        if spec.kind == "uniform":
            np.multiply(u, d, out=guess)
        else:
            # x(x+1) / (d(d+1)) is the mass of labels 1..x
            np.multiply(u, 4.0 * d * (d + 1), out=guess)
            np.add(guess, 1.0, out=guess)
            np.sqrt(guess, out=guess)
            np.subtract(guess, 1.0, out=guess)
            np.multiply(guess, 0.5, out=guess)
        np.copyto(labels, guess, casting="unsafe")
        # "clip" takes a guess past d as d, which fails the check; it
        # spares the copy that np.take makes of out= under "raise"
        np.take(lower, labels, out=guess, mode="clip")
        np.less_equal(guess, u, out=hit)
        np.take(upper, labels, out=guess, mode="clip")
        np.less(u, guess, out=below)
        np.logical_and(hit, below, out=hit)
        if not hit.all():
            miss = np.nonzero(np.logical_not(hit, out=hit))
            # u < 1, the last edge, so no search returns d
            labels[miss] = np.searchsorted(upper, u[miss], "right")
        return labels

    return label


def sample_items(spec: GeneratorSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """The raw item sequence (integer labels) a spec generates.

    Mostly useful for emitting data streams; the tests only ever see
    the profile. Passing an explicit generator bypasses the spec seed.
    """
    if rng is None:
        rng = _rng(spec.seed)
    u = rng.random(_draw_count(spec))
    if spec.kind == "cards":
        return np.add(_deal(spec, u[None, :])[:, 0], 1, dtype=np.int64)
    labels = _labeller(spec, u.size)(u) + 1
    if spec.corruption == "even_n":
        return np.repeat(labels, 2)
    if spec.corruption == "even_m":
        return np.concatenate([labels, labels + spec.d])
    return np.concatenate([labels, np.repeat(np.arange(1, spec.d + 1), _FILL[spec.corruption])])


def _deal(spec: GeneratorSpec, offsets: np.ndarray) -> np.ndarray:
    """The faces 0..51 a partial Fisher-Yates shuffle of the pool of
    52 * decks cards deals from each row of the (hands x n) matrix of
    offsets, one column per hand: swap step i exchanges position i with
    position i + int(offset_i * (52 * decks - i)).

    Every swap target is computed up front, as a flat index into one
    int8 pool of faces 0..51 held position-major (position p of hand h
    at p * hands + h). Step i then swaps across all hands at once:
    gather the targets, scatter row i onto them, and copy the gathered
    faces into row i, which no later step touches."""
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
    return pool[: n * hands].reshape(n, hands)


def _row_counts(values: np.ndarray, width: int) -> np.ndarray:
    # counts of 0..width-1 in each row of values, by one bincount: row r
    # is offset by r * width, in place but for int8 faces, which the add
    # widens, and a lone row is not; values are read in memory order
    rows = len(values)
    if rows > 1:
        offsets = width * np.arange(rows)[:, None]
        values = np.add(values, offsets, out=values if values.dtype == offsets.dtype else None)
    return np.bincount(values.ravel("K"), minlength=width * rows).reshape(rows, width)


def _counter(spec: GeneratorSpec, shape: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
    """The count map of a spec for blocks of uniforms of ``shape``, or of
    fewer rows: row r of ``count(u)`` counts faces 1..52, or labels 1..d
    (1..2d for even_m), in the items sample_items makes of row r of u,
    by one _row_counts of the faces _deal deals or of the labels."""
    if spec.kind == "cards":
        return lambda u: _row_counts(_deal(spec, u).T, 52)
    label = _labeller(spec, shape)

    def count(u: np.ndarray) -> np.ndarray:
        counts = _row_counts(label(u), spec.d)
        if spec.corruption == "even_m":
            return np.concatenate([counts, counts], axis=1)
        if spec.corruption == "even_n":
            counts *= 2
        elif _FILL[spec.corruption]:
            counts += _FILL[spec.corruption]
        return counts

    return count


def _multiplicity_rows(counts: np.ndarray) -> np.ndarray:
    # m_k of each row of per-category counts, offset in place, in column k
    mult = _row_counts(counts, int(counts.max(initial=0)) + 1)
    mult[:, 0] = 0
    return mult


def _stacked(blocks: list[np.ndarray]) -> np.ndarray:
    # blocks of multiplicity rows as one, zero-padded to the widest
    stack = np.zeros((sum(map(len, blocks)), max(block.shape[1] for block in blocks)), dtype=np.int64)
    row = 0
    for block in blocks:
        stack[row : row + len(block), : block.shape[1]] = block
        row += len(block)
    return stack


def _sample_multiplicities(spec: GeneratorSpec, seed: int, reps: range):
    """Yield the multiplicity rows (m_k in column k) of the profiles of
    repetitions ``reps``, rep r drawn from a fresh Philox keyed by
    (seed XOR r) mod 2**64, with the uniform each draws right after its
    profile (the harness's control), in stacks of consecutive reps.
    Reps are counted in blocks of as many as keep a rep's widest array
    times the block within _BUDGET cells: its draws and multiplicity
    row (n + 1), its counts (52, d, or 2d for even_m), or its int8 pool
    of 52 * decks cards at 8 a cell. Blocks are stacked, zero-padded,
    while rows x width stays within _BUDGET; a wider block is a stack of
    its own. One generator is re-keyed for every rep, and the buffers
    are made once."""
    rngs = _rekeyed(seed ^ rep for rep in reps)
    if spec.kind == "cards":
        cells = max(52, spec.n + 1, 52 * spec.decks // 8)
    else:
        cells = max(spec.d * (2 if spec.corruption == "even_m" else 1), spec.n + 1)
    block, draw = max(1, min(len(reps), _BUDGET // cells)), _draw_count(spec)
    count = _counter(spec, (block, draw))
    # a rep's draws and then its control, in one call into its row: the
    # same doubles as random(draw) followed by random()
    draws, controls = np.empty((block, draw + 1)), np.empty(len(reps))
    stack, start, width = [], 0, 0
    for lo in range(0, len(reps), block):
        rows = draws[: len(reps) - lo]
        # zip takes a row first, so no generator is pulled past the block
        for row, rng in zip(rows, rngs):
            rng.random(out=row)
        controls[lo : lo + len(rows)] = rows[:, -1]
        mult = _multiplicity_rows(count(rows[:, :-1]))
        width = max(width, mult.shape[1])
        if stack and (lo + len(mult) - start) * width > _BUDGET:
            yield _stacked(stack), controls[start:lo]
            stack, start, width = [], lo, mult.shape[1]
        stack.append(mult)
    if stack:
        yield _stacked(stack), controls[start:]


def sample(
    spec: GeneratorSpec,
    rng: np.random.Generator | None = None,
    *,
    keep_first_order: bool = False,
) -> CountProfile:
    """Draw one profile from the spec, deterministically in its seed.

    The profile, and the generator state afterwards, equal those of
    ``sample_items`` with the same generator. It takes the Monte Carlo
    harness's path: it draws its uniforms as a block of one row and
    counts that row with the harness's count map, which labels iid
    kinds by the label map ``sample_items`` uses and deals cards by the
    chunk dealer.

    ``keep_first_order`` must be False: profiles carry no per-label
    counts. It stays only while the benchmark's traced replay passes
    it, and goes after a benchmark-only change drops that argument.
    """
    if keep_first_order:
        raise ValueError("profiles keep no first-order counts; keep_first_order must be False")
    if rng is None:
        rng = _rng(spec.seed)
    u = rng.random((1, _draw_count(spec)))
    [mult] = _multiplicity_rows(_counter(spec, u.shape)(u))
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
    inner = theta[(theta > 0.0) & (theta < 1.0)]
    # logsumexp of d equal terms adds numpy's log of d, the count of
    # maxima, to the term (scipy 1.10 to 1.17), so d equal weights take
    # one category's term and keep the sum's bits
    tied = inner.size > 1 and bool((inner == inner[0]).all())
    if tied:
        log_d, inner = np.log(float(inner.size)), inner[:1]
    log_t = np.log(inner)
    log_1mt = np.log1p(-inner)
    if inner.size:
        for k in range(1, min(k_max, n) + 1):
            log_coef = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            terms = log_coef + k * log_t + (n - k) * log_1mt
            out[k] = math.exp(log_d + terms[0] if tied else logsumexp(terms))
    if 1 <= n <= k_max:
        # a category of mass 1 holds all n draws
        out[n] += np.count_nonzero(theta == 1.0)
    return out
