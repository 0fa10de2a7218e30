"""Self-contained numeric verification suites.

Each check re-derives a quantity the library computes in closed form
through an independent route (dense-grid maximization, partial sums,
exhaustive enumeration, cross-module identities) and compares. The
suites back the ``verify`` CLI subcommand and double as oracles for
the acceptance tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .counts import CountProfile
from .definitions import _CORRUPTIONS, _FILL, SUITE_NAMES
from .generators import (
    GeneratorSpec,
    _counter,
    _deal,
    _draw_count,
    _edges,
    _labeller,
    _rekeyed,
    _sample_multiplicities,
    expected_mk,
    sample,
    sample_items,
)
from .invariants import FAMILIES, Mode, TestKind, bound_mean, p_value_gaussian, parse_kind, statistic
from .numerics import (
    log_binomial_pmf,
    log_cn,
    log_normal_sf,
    log_poisson_pmf,
    log_ratio_poisson_binomial,
    stirling_factor,
)

__all__ = ["CheckResult", "SUITES", "run_checks", "exact_d2_moments"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def exact_d2_moments(theta1: float, n: int) -> tuple[np.ndarray, dict[str, float]]:
    """Exhaustive two-category moments: enumerate all 2^n sequences.

    Returns exact E[M_k] (array indexed by k, entry 0 unused) and the
    exact expectation in multinomial mode of every family of FAMILIES
    with weights at every k from its min_k below n, and of even and odd.
    Pure enumeration; shares nothing with the closed-form bound code it
    is used to cross-check.
    """
    if not 0.0 < theta1 < 1.0:
        raise ValueError("theta1 must lie strictly in (0, 1)")
    if not 1 <= n <= 16:
        raise ValueError("enumeration is meant for small n")
    linear = [(name, fam.min_k) for name, fam in FAMILIES.items() if fam.weights]
    kinds = [TestKind(name, k) for name, min_k in linear for k in range(min_k, n)]
    kinds += [TestKind("even"), TestKind("odd")]
    e_mk = np.zeros(n + 1)
    e_t = {str(kind): 0.0 for kind in kinds}
    for seq in itertools.product((1, 2), repeat=n):
        c1 = seq.count(1)
        weight = theta1**c1 * (1.0 - theta1) ** (n - c1)
        counts = [c for c in (c1, n - c1) if c > 0]
        mult: dict[int, int] = {}
        for c in counts:
            mult[c] = mult.get(c, 0) + 1
        profile = CountProfile(n, mult)
        for k, mk in mult.items():
            e_mk[k] += weight * mk
        for kind in kinds:
            e_t[str(kind)] += weight * statistic(kind, profile, Mode.MULTINOMIAL)
    return e_mk, e_t


def _check_stirling() -> tuple[bool, str]:
    prev = 0.0
    for k in range(1, 100001):
        value = stirling_factor(k)  # bracket asserted inside
        if not prev < value < 1.0:
            return False, f"not increasing toward 1 at k={k}"
        prev = value
    return True, "bracket and monotonicity hold for k=1..1e5"


def _check_pmf_normalization() -> tuple[bool, str]:
    # each term exponentiates a log with O(scale ln scale) cancellation,
    # so the mass can only sum to 1 within eps * scale, not to 1e-12 flat
    worst = 0.0
    for n in (1, 2, 7, 100, 1500):
        for theta in (0.0, 1e-6, 0.2, 0.5, 0.9, 1.0):
            total = math.fsum(
                math.exp(log_binomial_pmf(k, n, theta)) for k in range(n + 1)
            )
            gap = abs(total - 1.0)
            worst = max(worst, gap)
            if gap > 1e-12 + 5e-15 * n:
                return False, f"binomial mass at n={n}, theta={theta} sums to {total}"
    for lam in (0.0, 1e-9, 0.4, 3.0, 80.0, 1e4):
        top = int(lam + 40.0 * math.sqrt(lam) + 50.0)
        total = math.fsum(math.exp(log_poisson_pmf(k, lam)) for k in range(top))
        gap = abs(total - 1.0)
        worst = max(worst, gap)
        if gap > 1e-12 + 5e-15 * lam:
            return False, f"poisson mass at lam={lam} sums to {total}"
    return True, f"binomial and poisson masses sum to 1 (worst gap {worst:.1e})"


def _check_normal_tail() -> tuple[bool, str]:
    # log_normal_sf, and p_value_gaussian's log p at z = y: the tail every
    # test runs through, which takes no tail at y <= 0
    grid = np.linspace(-6.0, 6.0, 61)
    tails = [
        ("log_normal_sf", log_normal_sf, grid),
        ("p_value_gaussian", lambda y: p_value_gaussian(y, 0.0, 1.0)[0], grid[grid > 0.0]),
    ]
    # deep-tail anchors frozen from a 40-digit erfc evaluation
    anchors = {5.0: -15.06499839398872573608, 40.0: -804.6084420137537881666}
    for name, tail, ys in tails:
        for y, expect in anchors.items():
            got = tail(y)
            if abs(got - expect) > 1e-10 * abs(expect):
                return False, f"{name} at y={y}: {got} vs {expect}"
        # against the complementary error function on a moderate grid, where
        # 0.5 erfc(y / sqrt 2) keeps its relative precision
        for y in ys:
            want = math.log(0.5 * math.erfc(y / math.sqrt(2.0)))
            if abs(tail(y) - want) > 1e-13 * max(1.0, abs(want)):
                return False, f"{name} at y={y}: {tail(y)} vs ln(erfc/2) {want}"
    return True, "tail anchors hold; log_normal_sf on [-6, 6] and p_value_gaussian on (0, 6] match ln(erfc(y/sqrt 2)/2)"


def _check_cn_factor() -> tuple[bool, str]:
    if log_cn(1) != 1.0:
        return False, f"log c_1 = {log_cn(1)} != 1"
    # c_n = sqrt(2 pi n) / stirling_factor(n): two independent formulas
    for n in (1, 2, 10, 137, 10**4, 10**6):
        lhs = log_cn(n)
        rhs = 0.5 * math.log(2.0 * math.pi * n) - math.log(stirling_factor(n))
        if abs(lhs - rhs) > 1e-9:
            return False, f"c_n identity off at n={n}: {lhs} vs {rhs}"
    return True, "log c_1 = 1 and c_n matches sqrt(2 pi n)/(1 - eps_n)"


def _check_poisson_binomial_regime() -> tuple[bool, str]:
    n = 10**6
    worst = 0.0
    for theta in (1e-7, 1e-6, 3e-6, 1e-5, 3e-5):
        for k in range(0, 31):
            gap = abs(math.exp(log_ratio_poisson_binomial(k, n, theta)) - 1.0)
            worst = max(worst, gap)
    ok = worst <= 0.01
    return ok, f"max |poisson/binomial - 1| = {worst:.3e} over k<=30, theta<=3e-5"


def _check_central_binomial() -> tuple[bool, str]:
    exact = math.exp(log_binomial_pmf(500, 1000, 0.5))
    approx = math.sqrt(2.0 / (math.pi * 1000.0))
    gap = abs(exact - approx) / approx
    return gap < 0.002, f"central mass {exact:.8f} vs sqrt(2/(pi n)) {approx:.8f} ({gap:.2e})"


def _grid_sup(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    # two-stage dense grid; plenty for the smooth unimodal envelopes here
    grid = np.linspace(lo, hi, 200001)
    values = f(grid)
    i = int(np.argmax(values))
    lo2, hi2 = grid[max(i - 2, 0)], grid[min(i + 2, grid.size - 1)]
    fine = np.linspace(lo2, hi2, 20001)
    return float(np.max(f(fine)))


def _pois(k: int, lam: np.ndarray) -> np.ndarray:
    return np.exp(k * np.log(lam) - lam - gammaln(k + 1))


def _fbin(n: int, k: int, th: np.ndarray) -> np.ndarray:
    return np.exp(
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        + k * np.log(th) + (n - k) * np.log1p(-th)
    )


def _check_envelopes(
    mode: Mode, cases: list[tuple[Callable, int, int, float]], tight: set[str], loose: float, detail: str
) -> tuple[bool, str]:
    """At each (mass, n, k, hi) of ``cases``, hold bound_mean at k and n
    of every family in FAMILIES with weights to the grid supremum over x
    in (0, hi] of its per-item envelope sum w mass(k + off, x) / x: the
    bound must dominate it, and for the families in ``tight`` equal it
    to within the relative ``loose``."""
    problems = []
    for mass, n, k, hi in cases:
        for name, fam in FAMILIES.items():
            if fam.weights is None:
                continue
            kind = TestKind(name, k)
            closed = bound_mean(kind, n, mode)
            envelope = lambda x: sum(w * mass(k + off, x) for off, w in fam.weights.items()) / x
            sup = _grid_sup(envelope, 1e-9, hi)
            if sup > closed * (1.0 + 1e-9):
                problems.append(f"{kind} n={n}: sup {sup} exceeds bound {closed}")
            elif name in tight and closed > sup * (1.0 + loose):
                problems.append(f"{kind} n={n}: bound {closed} loose vs sup {sup}")
    if problems:
        return False, "; ".join(problems[:3])
    return True, detail


def _check_poisson_envelopes() -> tuple[bool, str]:
    cases = [(_pois, 1, k, 8.0 * k) for k in range(2, 9)]
    detail = "per-item poisson bounds equal their envelope suprema (k=2..8)"
    return _check_envelopes(Mode.POISSON, cases, set(FAMILIES), 1e-6, detail)


def _check_multinomial_envelopes() -> tuple[bool, str]:
    cases = [
        (functools.partial(_fbin, n), n, k, 1.0 - 1e-9)
        for n in (8, 30, 200)
        for k in sorted({2, 3, 5, n - 1})
    ]
    # the curvature bound dominates its envelope without being tight
    tight = set(FAMILIES) - {"curv"}
    detail = "multinomial bounds match (count/slope) or dominate (curv) envelope suprema"
    return _check_envelopes(Mode.MULTINOMIAL, cases, tight, 1e-5, detail)


def _check_even_odd_envelopes() -> tuple[bool, str]:
    # closed tail sums: sum over even k>=2 of k pois(k) = (lam/2)(1 - e^(-2 lam)),
    # odd k>=3: (lam/2)(1 - e^(-lam))^2; both over lam stay below lam/2
    for lam in (1e-3, 0.3, 1.0, 3.0, 7.0, 30.0):
        even_direct = sum(
            k * math.exp(log_poisson_pmf(k, lam)) for k in range(2, int(lam + 40 * lam**0.5) + 60, 2)
        )
        odd_direct = sum(
            k * math.exp(log_poisson_pmf(k, lam)) for k in range(3, int(lam + 40 * lam**0.5) + 61, 2)
        )
        even_closed = 0.5 * lam * (1.0 - math.exp(-2.0 * lam))
        odd_closed = 0.5 * lam * (1.0 - math.exp(-lam)) ** 2
        if abs(even_direct - even_closed) > 1e-12 * max(1.0, lam):
            return False, f"even tail sum mismatch at lam={lam}"
        if abs(odd_direct - odd_closed) > 1e-12 * max(1.0, lam):
            return False, f"odd tail sum mismatch at lam={lam}"
        if even_closed > 0.5 * lam or odd_closed > 0.5 * lam:
            return False, f"half-bound violated at lam={lam}"
    return True, "even/odd tail sums match closed forms and stay below lam/2"


def _check_brute_force_d2() -> tuple[bool, str]:
    worst_gap = 0.0
    for n in range(2, 9):
        for theta1 in np.arange(0.1, 0.95, 0.1):
            e_mk, e_t = exact_d2_moments(float(theta1), n)
            expect = expected_mk(np.array([theta1, 1.0 - theta1]), n, n)
            gap = float(np.max(np.abs(e_mk[1:] - expect[1:])))
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                return False, f"expected_mk off by {gap:.2e} at n={n}, theta={theta1:.1f}"
            for token, value in e_t.items():
                kind = parse_kind(token)
                tau = bound_mean(kind, n, Mode.MULTINOMIAL)
                if value > tau + 1e-12:
                    return False, f"E[{token}] = {value} exceeds tau_ub = {tau} at n={n}"
    return True, f"enumeration matches expected_mk (max gap {worst_gap:.1e}) and respects bounds"


def _draw_cards(spec: GeneratorSpec, offsets: np.ndarray) -> np.ndarray:
    """One deal of the spec's n cards, faces 1..52, by the plain partial
    Fisher-Yates shuffle of the pool of 52 * decks cards, one swap and
    one offset at a time: the oracle of the chunk dealer."""
    pool = np.repeat(np.arange(1, 53), spec.decks)
    total = pool.size
    # partial Fisher-Yates: only the first n swaps are needed
    for i in range(spec.n):
        j = i + int(offsets[i] * (total - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: spec.n].copy()


def _check_sampler_determinism() -> tuple[bool, str]:
    spec = GeneratorSpec(kind="linear", n=500, d=40, corruption="no_empty", seed=905)
    a, b = sample(spec), sample(spec)
    if a != b:
        return False, "same spec gave different profiles"
    c = sample(GeneratorSpec(kind="linear", n=500, d=40, corruption="no_empty", seed=906))
    if a == c:
        return False, "distinct seeds collided"
    # the count map on one row, and the items drawn from the same
    # generator, corrupted as items, must give the same counts; every
    # path must leave it where drawing the spec's uniforms leaves one
    cases = 0
    sizes = ((0, 1), (0, 250), (600, 1), (600, 250), (100_000, 33_333))
    specs = [GeneratorSpec(kind="cards", n=n, decks=decks) for n, decks in ((0, 1), (65, 2), (104, 2), (65, 1000))]
    for kind, corruption, (n, d) in itertools.product(("uniform", "linear"), _CORRUPTIONS, sizes):
        # n = 0 takes the fill floor, n = d for no_empty and 2d for no_unique
        specs.append(GeneratorSpec(kind=kind, n=max(n, _FILL[corruption] * d), d=d, corruption=corruption))
    for spec in specs:
        # the harness's sampler draws reps in blocks, each rep r keyed by
        # key XOR r: 230 reps cross a block of 2**17 // 601 = 218 at
        # n = 600 and eleven blocks of 2**17 // (52 000 // 8) = 20 hands
        # from 1000 decks, and at n = 1e5 every rep is a block of its own
        reps, draw = range(3, 5 if spec.n > 10**4 else 233), _draw_count(spec)
        for key in (907, 2**64 - 1):
            rngs = [np.random.Generator(np.random.Philox(key=key)) for _ in range(4)]
            profile = sample(spec, rng=rngs[0])
            [counts] = _counter(spec, (1, draw))(rngs[1].random((1, draw)))
            labelled = np.bincount(sample_items(spec, rng=rngs[2]), minlength=counts.size + 1)[1:]
            rngs[3].random(draw)
            mult = Counter(labelled[labelled > 0].tolist())
            if not np.array_equal(counts, labelled) or profile.multiplicities != mult:
                return False, f"sample differs from its items for {spec} at key {key}"
            if len({rng.random() for rng in rngs}) != 1:
                return False, f"a path to {spec} drew other than {draw} uniforms at key {key}"
            stacks = _sample_multiplicities(spec, key, reps)
            drawn = [pair for rows, controls in stacks for pair in zip(rows, controls)]
            if len(drawn) != len(reps):
                return False, f"block sampler drew {len(drawn)} of {len(reps)} reps of {spec} at key {key}"
            for rep, (row, control) in zip(reps, drawn):
                rng = np.random.Generator(np.random.Philox(key=key ^ rep))
                want = np.bincount(np.bincount(sample_items(spec, rng=rng), minlength=1))
                want[0] = 0
                if not np.array_equal(np.trim_zeros(row, "b"), np.trim_zeros(want, "b")) or control != rng.random():
                    return False, f"block sampler differs from one draw for {spec} at key {key}, rep {rep}"
            cases += 1
    # the iid label map against its oracle, a binary search of the
    # edges, on draws, on every edge and on both neighbours of each
    for kind, d in itertools.product(("uniform", "linear"), (1, 2, 250, 33_333, 10**6)):
        spec = GeneratorSpec(kind=kind, n=0, d=d)
        edges, draws = _edges(spec), np.random.Generator(np.random.Philox(key=907)).random(10_000)
        u = np.concatenate([draws, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0), [0.0]])
        u = u[u < 1.0]
        if not np.array_equal(_labeller(spec, u.size)(u), np.searchsorted(edges, u, "right")):
            return False, f"label map differs from searchsorted for {kind} d={d}"
        cases += 1
    # one generator re-keyed per rep draws what a fresh one keyed alike
    # does, whatever the rep before left buffered: part of a block of
    # four words, and the unused half of a word after a 32-bit draw
    lengths = [*range(10), 65, 66]
    seeds = [907, 2**64 - 1, -907, 2**64 + 907, *range(2 * len(lengths))]
    for i, (seed, rng) in enumerate(zip(seeds, _rekeyed(seeds))):
        ref = np.random.Generator(np.random.Philox(key=seed % 2**64))
        n = lengths[i % len(lengths)]
        draws = [np.append(g.random(n), g.integers(2**32, dtype=np.uint32)) for g in (rng, ref)]
        if not np.array_equal(*draws):
            return False, f"re-keyed generator differs from a fresh one at seed {seed} after {n} draws"
        cases += 1
    # cards dealt a chunk at a time from a matrix of offsets, and the
    # items of one deal: each hand must be the one-deal shuffle's, card
    # for card
    keys = [907, 2**64 - 1, *range(20)]
    for decks in (1, 2, 3):
        for n in (0, 1, 26 * decks + 1, 52 * decks):
            spec = GeneratorSpec(kind="cards", n=n, decks=decks)
            offsets = np.reshape([rng.random(n) for rng in _rekeyed(keys)], (len(keys), n))
            for key, hand in zip(keys, _deal(spec, offsets).T):
                want = _draw_cards(spec, np.random.Generator(np.random.Philox(key=key)).random(n))
                if not np.array_equal(hand + 1, want):
                    return False, f"chunk deal differs from one deal for {spec} at key {key}"
                items = sample_items(spec, rng=np.random.Generator(np.random.Philox(key=key)))
                if items.dtype != np.int64 or not np.array_equal(items, want):
                    return False, f"sample_items differs from one deal for {spec} at key {key}"
            cases += 1
    return True, (
        "profiles are a pure function of the spec and match their items, labels "
        f"match a search of the edges, and re-keyed generators match fresh ones ({cases} cases)"
    )


# the names are written once, in SUITE_NAMES, which the command-line
# parser reads without importing this module
SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    name: globals()[f"_check_{name.replace('-', '_')}"] for name in SUITE_NAMES
}


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all when names is None)."""
    selected = list(SUITES) if names is None else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; options: {', '.join(SUITES)}")
        ok, detail = SUITES[name]()
        results.append(CheckResult(name, ok, detail))
    return results
