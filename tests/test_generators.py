"""Synthetic sources: theta construction, corruption rules, expected counts."""

import math
import re
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from iidtest import generators
from iidtest.definitions import _FILL
from iidtest.generators import (
    _BUDGET,
    GeneratorSpec,
    _counter,
    _deal,
    _edges,
    _labeller,
    _listed,
    _rekeyed,
    _sample_multiplicities,
    expected_mk,
    make_theta,
    reference_theta,
    sample,
    sample_items,
)
from iidtest.harness import _CHUNK
from iidtest.verify import _draw_cards


def test_make_theta_shapes_and_values():
    assert make_theta("uniform", 4) == pytest.approx([0.25] * 4)
    assert make_theta("linear", 3) == pytest.approx([1 / 6, 2 / 6, 3 / 6])
    assert make_theta("uniform", 1) == pytest.approx([1.0])
    for kind in ("uniform", "linear"):
        assert math.fsum(make_theta(kind, 137)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        make_theta("uniform", 0)
    with pytest.raises(ValueError):
        make_theta("cards", 4)


def test_reference_theta_for_cards_is_uniform_over_ranks():
    spec = GeneratorSpec("cards", n=30, decks=2)
    assert reference_theta(spec) == pytest.approx([1 / 52] * 52)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=-1, d=5)
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=10, d=0)
    with pytest.raises(ValueError):
        GeneratorSpec("pareto", n=10, d=5)
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=11, d=5, corruption="even_n")
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=11, d=5, corruption="even_m")
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=4, d=5, corruption="no_empty")
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=9, d=5, corruption="no_unique")
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=10, d=5, corruption="dedupe")
    with pytest.raises(ValueError):
        GeneratorSpec("cards", n=10, corruption="even_n")
    with pytest.raises(ValueError):
        GeneratorSpec("cards", n=105, decks=2)
    with pytest.raises(ValueError):
        GeneratorSpec("cards", n=10, decks=0)
    # sizes up to where a double counts exactly, 2**53 categories or cards
    GeneratorSpec("uniform", n=0, d=2**53)
    GeneratorSpec("cards", n=0, decks=2**53 // 52)
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", n=0, d=2**53 + 1)
    with pytest.raises(ValueError):
        GeneratorSpec("cards", n=0, decks=2**53 // 52 + 1)
    for name in ("n", "d", "decks", "seed"):
        for bad in (True, np.True_, 1.0, np.float64(1.0)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
                GeneratorSpec("uniform", **{"n": 10, "d": 5, name: bad})
    # so the chunk dealer's pool, every card of every hand, has an int64 size
    assert 52 * (2**53 // 52) * _CHUNK < 2**63


def test_even_n_corruption_doubles_every_count():
    profile = sample(GeneratorSpec("uniform", n=60, d=12, corruption="even_n", seed=3))
    assert profile.n == 60
    assert all(k % 2 == 0 for k in profile.multiplicities)


def test_even_m_corruption_makes_multiplicities_even():
    profile = sample(GeneratorSpec("uniform", n=40, d=10, corruption="even_m", seed=3))
    assert profile.n == 40
    assert all(m % 2 == 0 for m in profile.multiplicities.values())


def test_no_empty_corruption_touches_every_category():
    profile = sample(GeneratorSpec("uniform", n=20, d=5, corruption="no_empty", seed=3))
    assert profile.n == 20
    assert profile.m_plus == 5


def test_no_unique_corruption_removes_singletons():
    profile = sample(GeneratorSpec("linear", n=30, d=6, corruption="no_unique", seed=3))
    assert profile.n == 30
    assert profile.m(1) == 0
    assert all(k >= 2 for k in profile.multiplicities)


def test_cards_draws_without_replacement():
    full = sample(GeneratorSpec("cards", n=104, decks=2, seed=9))
    assert full.multiplicities == {2: 52}
    partial = sample(GeneratorSpec("cards", n=30, decks=2, seed=9))
    assert max(partial.multiplicities) <= 2
    items = sample_items(GeneratorSpec("cards", n=30, decks=3, seed=9))
    assert len(items) == 30
    assert all(1 <= x <= 52 for x in items)


def test_sampling_is_reproducible_and_seed_sensitive():
    spec = GeneratorSpec("uniform", n=50, d=8, seed=21)
    assert sample(spec) == sample(spec)
    assert np.array_equal(sample_items(spec), sample_items(spec))
    other = GeneratorSpec("uniform", n=50, d=8, seed=22)
    assert not np.array_equal(sample_items(spec), sample_items(other))


def test_sample_items_ranges():
    plain = sample_items(GeneratorSpec("linear", n=80, d=7, seed=4))
    assert len(plain) == 80
    assert all(1 <= x <= 7 for x in plain)
    # relabeling the duplicated half mints fresh labels beyond d
    doubled = sample_items(GeneratorSpec("uniform", n=40, d=10, corruption="even_m", seed=4))
    assert len(doubled) == 40
    assert all(1 <= x <= 20 for x in doubled)
    assert max(doubled) > 10


def test_sample_keeps_or_drops_first_order():
    # profiles carry no per-label counts; only False is still accepted
    spec = GeneratorSpec("uniform", n=12, d=4, seed=1)
    with pytest.raises(ValueError, match="keep_first_order"):
        sample(spec, keep_first_order=True)
    with pytest.raises(TypeError):
        sample(spec, None, False)
    rng = np.random.Generator(np.random.Philox(key=1))
    assert sample(spec, rng=rng, keep_first_order=False).n == 12
    assert sample(spec, keep_first_order=False) == sample(spec)


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _count_row(spec, u):
    # the count map on one row of uniforms, as sample counts its draw
    return _counter(spec, (1, len(u)))(np.reshape(u, (1, -1)))[0]


# the uniforms a spec's items take, as GeneratorSpec documents each corruption
_UNIFORMS = {
    "none": lambda n, d: n,
    "even_n": lambda n, d: n // 2,
    "even_m": lambda n, d: n // 2,
    "no_empty": lambda n, d: n - d,
    "no_unique": lambda n, d: n - 2 * d,
}


def _assert_sample_matches_labels(spec, key, **sample_kwargs):
    # sample counts per category; sample_items labels every item from
    # the same uniforms, so the counts and the profiles must agree, and
    # each path must leave its generator where a fresh one stands after
    # drawing exactly the spec's uniforms
    fast_rng, count_rng, slow_rng, drawn = (_philox(key) for _ in range(4))
    items = sample_items(spec, rng=slow_rng)
    profile = sample(spec, rng=fast_rng, **sample_kwargs)
    assert profile.n == items.size == spec.n
    assert profile.multiplicities == Counter(Counter(items.tolist()).values())
    uniforms = _UNIFORMS[spec.corruption](spec.n, spec.d)
    counts = _count_row(spec, count_rng.random(uniforms))
    assert np.array_equal(counts, np.bincount(items, minlength=counts.size + 1)[1:])
    drawn.random(uniforms)
    for rng in (fast_rng, count_rng, slow_rng):
        assert _listed(rng.bit_generator.state) == _listed(drawn.bit_generator.state)


_CORRUPTION_NAMES = ["none", "even_n", "even_m", "no_empty", "no_unique"]


@st.composite
def _iid_specs(draw):
    kind = draw(st.sampled_from(["uniform", "linear"]))
    corruption = draw(st.sampled_from(_CORRUPTION_NAMES))
    d = draw(st.integers(1, 60))
    floor = {"no_empty": d, "no_unique": 2 * d}.get(corruption, 0)
    n = floor + draw(st.integers(0, 300))
    if corruption in ("even_n", "even_m"):
        n -= n % 2
    return GeneratorSpec(kind, n=n, d=d, corruption=corruption)


@settings(max_examples=200, deadline=None)
@given(_iid_specs(), st.integers(0, 2**64 - 1))
def test_sample_equals_profile_of_sample_items(spec, key):
    _assert_sample_matches_labels(spec, key)


@pytest.mark.parametrize("kind", ["uniform", "linear"])
@pytest.mark.parametrize("corruption", _CORRUPTION_NAMES)
def test_sample_equals_profile_of_sample_items_at_scale(kind, corruption):
    spec = GeneratorSpec(kind, n=100_000, d=33_333, corruption=corruption)
    for key in (0, 301, 2**63 + 5):
        _assert_sample_matches_labels(spec, key)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("uniform", n=0, d=5),
        GeneratorSpec("linear", n=0, d=3, corruption="even_m"),
        GeneratorSpec("uniform", n=3, d=50),
        GeneratorSpec("linear", n=7, d=1),
        GeneratorSpec("uniform", n=2, d=1, corruption="no_unique"),
        GeneratorSpec("uniform", n=5, d=5, corruption="no_empty"),
        GeneratorSpec("cards", n=30, decks=2),
        GeneratorSpec("cards", n=0),
        GeneratorSpec("cards", n=1, decks=3),
        GeneratorSpec("cards", n=104, decks=2),
        # every iid kind and corruption at n = 0, or at its fill floor
        # n = d (no_empty) or n = 2d (no_unique)
        *(
            GeneratorSpec(kind, n={"no_empty": 4, "no_unique": 8}.get(corruption, 0), d=4, corruption=corruption)
            for kind in ("uniform", "linear")
            for corruption in _CORRUPTION_NAMES
        ),
    ],
)
@pytest.mark.parametrize("keep_first_order", [True, False])
def test_sample_equals_profile_of_sample_items_edge_cases(spec, keep_first_order):
    if not keep_first_order:
        _assert_sample_matches_labels(spec, 17, keep_first_order=False)
        return
    # refused before anything is drawn, whatever the spec
    rng = _philox(17)
    with pytest.raises(ValueError, match="keep_first_order"):
        sample(spec, rng=rng, keep_first_order=True)
    assert rng.random() == _philox(17).random()


_KEYS = [0, 1, 2**63, 2**64 - 1, *range(100, 140)]


def _assert_deals_like_draw_cards(spec, offsets):
    # each row dealt by the chunk dealer, against the one-deal shuffle
    # drawing exactly that row: card for card, and counted
    faces = _deal(spec, offsets)
    counts = _counter(spec, offsets.shape)(offsets)
    assert faces.shape == (spec.n, len(offsets))
    assert counts.shape == (len(offsets), 52)
    for row, hand, got in zip(offsets, faces.T, counts.tolist()):
        want = _draw_cards(spec, row)
        assert (hand + 1).tolist() == want.tolist()
        assert got == np.bincount(want, minlength=53)[1:].tolist()


@pytest.mark.parametrize("decks", [1, 2, 3, 200])
def test_chunk_deal_matches_draw_cards_rep_by_rep(decks):
    total = 52 * decks
    for n in (0, 1, 13, 26 * decks + 1, total - 1, total):
        spec = GeneratorSpec("cards", n=n, decks=decks)
        rows = [_philox(key).random(n) for key in _KEYS]
        # the extreme offsets: no step moves a card, every step takes the last
        rows += [np.zeros(n), np.full(n, np.nextafter(1.0, 0.0))]
        _assert_deals_like_draw_cards(spec, np.reshape(rows, (len(rows), n)))
    # one hand, two, and one more than a harness chunk
    spec = GeneratorSpec("cards", n=52, decks=decks)
    for hands in (1, 2, _CHUNK + 1):
        offsets = np.reshape([_philox(key).random(52) for key in range(hands)], (hands, 52))
        _assert_deals_like_draw_cards(spec, offsets)


def _assert_chunk_deal_within_budget(n, decks):
    # 1024 hands dealt in blocks of 2**17 // (52 * decks // 8) hands: a
    # block's draws, its swap targets (or its widened faces) and its int8
    # pool each fit in _BUDGET 8-byte cells
    spec = GeneratorSpec("cards", n=n, decks=decks)
    tracemalloc.start()
    try:
        [(rows, controls)] = _sample_multiplicities(spec, 0, range(1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * _BUDGET
    assert rows.shape[0] == controls.size == 1024
    assert (rows * np.arange(rows.shape[1])).sum(axis=1).tolist() == [n] * 1024


def test_chunk_deal_holds_one_byte_per_card():
    # 100 hands a block from 200 decks: an int8 pool of the whole chunk
    # takes 10.6 MB, and an int64 pool tiled per hand 85 MB
    _assert_chunk_deal_within_budget(52, 200)


def test_chunk_deal_from_many_decks_keeps_within_budget():
    # 2 hands a block from 10**4 decks: an int8 pool of the whole chunk
    # takes 532 MB, and an int64 pool tiled per hand 4.3 GB
    _assert_chunk_deal_within_budget(65, 10**4)


def test_sample_items_deals_with_one_byte_per_card():
    # 3 cards from 100000 decks: the int8 pool of 5.2 MB, where an int64
    # pool of the same 5.2 million cards would take 41.6 MB
    spec = GeneratorSpec("cards", n=3, decks=100_000, seed=5)
    tracemalloc.start()
    try:
        items = sample_items(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert items.dtype == np.int64
    assert items.tolist() == _draw_cards(spec, _philox(spec.seed).random(3)).tolist()


def test_sample_multiplicities_deals_2049_reps_from_a_nonzero_rep():
    # two chunks' worth of hands and one more, keyed from rep 1000 on:
    # every row is the rep's own fresh Philox(seed XOR rep)
    spec = GeneratorSpec("cards", n=13)
    seed, reps = 2**63 + 5, range(1000, 1000 + 2 * _CHUNK + 1)
    [(rows, controls)] = _sample_multiplicities(spec, seed, reps)
    assert len(rows) == controls.size == len(reps)
    for rep, row, control in zip(reps, rows, controls):
        ref = _philox(seed ^ rep)
        assert {int(k): int(row[k]) for k in np.flatnonzero(row)} == sample(spec, rng=ref).multiplicities
        assert control == ref.random()


# iid specs with the reps of a block of each size: one, since the
# d = 200 000 categories alone pass the budget; 2**17 // 1001 = 130,
# which the 300 reps below cross twice; and every rep of the range,
# where a block of 2**17 // 101 = 1297 would be more. At n = 20 000 and
# d = 1 a block holds 2**17 // 20 001 = 6 reps, each row 20 001 wide,
# so no two blocks fit in one stack
_BLOCK_SPECS = [
    (GeneratorSpec("uniform", n=300 + _FILL[c] * 200_000, d=200_000, corruption=c), 1, 44)
    for c in _CORRUPTION_NAMES
] + [(GeneratorSpec("uniform", n=1000, d=100, corruption=c), 130, 300) for c in _CORRUPTION_NAMES] + [
    (GeneratorSpec("linear", n=100, d=10, corruption=c), None, 300) for c in _CORRUPTION_NAMES
] + [(GeneratorSpec("uniform", n=20_000, d=1), 6, 44)]


@pytest.mark.parametrize(
    "spec, block, length",
    [
        (GeneratorSpec("cards", n=65, decks=2), None, 44),
        (GeneratorSpec("cards", n=0), None, 44),
        (GeneratorSpec("uniform", n=300, d=40), None, 44),
        (GeneratorSpec("linear", n=0, d=3, corruption="even_m"), None, 44),
        (GeneratorSpec("uniform", n=500, d=1), None, 44),
        (GeneratorSpec("linear", n=90, d=30, corruption="no_empty"), None, 44),
        *_BLOCK_SPECS,
        # 2**17 // (520 000 // 8) = 2 hands a block
        (GeneratorSpec("cards", n=65, decks=10**4), 2, 44),
    ],
)
def test_sample_multiplicities_match_sample(spec, block, length, monkeypatch):
    # rep r is keyed by (seed XOR r) mod 2**64: keys 0 up, keys with the
    # top bit set, and seeds of either sign past 64 bits; every block
    # counted but the last holds `block` reps (all of them when None),
    # and a stack of more than one block keeps within the budget
    sizes, counter = [], generators._counter

    def recording(spec, shape):
        count = counter(spec, shape)

        def recorded(u):
            sizes.append(len(u))
            return count(u)

        return recorded

    monkeypatch.setattr(generators, "_counter", recording)
    for seed, start in [(0, 0), (2**63 + 100, 2**63 - 3), (-(2**40) - 3, 7), (2**64 + 2**63 + 11, 100)]:
        reps = range(start, start + length)
        sizes.clear()
        stacks = list(_sample_multiplicities(spec, seed, reps))
        whole, rest = divmod(length, block or length)
        assert sizes == [block or length] * whole + [rest] * (rest > 0)
        for mult, _ in stacks:
            assert len(mult) * mult.shape[1] <= _BUDGET or len(mult) <= (block or length)
        rows = [row for mult, _ in stacks for row in mult]
        follow = np.concatenate([draws for _, draws in stacks])
        assert len(rows) == follow.size == len(reps)
        for rep, row, draw in zip(reps, rows, follow):
            ref = _philox((seed ^ rep) % 2**64)
            profile = sample(spec, rng=ref)
            assert row[0] == 0
            assert {int(k): int(row[k]) for k in np.flatnonzero(row)} == profile.multiplicities
            assert draw == ref.random()


_LENGTHS = [*range(10), 65, 66]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), -1), st.integers(2**64, 2**70)),
            st.sampled_from(_LENGTHS),
            st.sampled_from(["none", "uint32"]),
        ),
        min_size=1,
        max_size=8,
    )
)
# the top bit of the key word set, and every bit of it
@example([(2**63, 65, "uint32"), (2**64 - 1, 66, "uint32"), (2**63, 3, "none"), (2**64 - 1, 0, "none")])
def test_rekeyed_generator_draws_what_a_fresh_one_does(reps):
    # a rep's draws may end inside a block of four words, or leave half
    # of one pending after a 32-bit draw: the next rep must not see it
    seeds = [seed for seed, _, _ in reps]
    for (seed, length, then), rng in zip(reps, _rekeyed(seeds)):
        ref = _philox(seed % 2**64)
        assert _listed(rng.bit_generator.state) == _listed(ref.bit_generator.state)
        assert np.array_equal(rng.random(length), ref.random(length))
        assert rng.random() == ref.random()
        if then == "uint32":
            assert rng.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)


def test_rekey_template_is_a_fresh_state_listed():
    # the re-key assigns a listed copy of a fresh generator's state: a
    # field numpy adds to that state must show up here, not be dropped
    fresh = np.random.Philox(key=0).state
    listed = _listed(fresh)
    assert listed.keys() == fresh.keys() and listed["state"].keys() == fresh["state"].keys()
    for got, want in [(listed, fresh), (listed["state"], fresh["state"])]:
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[name] == value.tolist() and all(type(word) is int for word in got[name])
            elif not isinstance(value, dict):
                assert got[name] == value


@pytest.mark.parametrize("length", _LENGTHS)
def test_rekeyed_generator_draws_what_a_fresh_one_does_at_each_length(length):
    # every rep leaves the next part of a block of four words, or the
    # unused half of a word after its 32-bit draw, or both
    seeds = [5, -5, 2**64 + 5, 2**70 - 1, 5]
    for seed, rng in zip(seeds, _rekeyed(seeds)):
        ref = _philox(seed % 2**64)
        assert np.array_equal(rng.random(length), ref.random(length))
        assert rng.random() == ref.random()
        assert rng.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)


@pytest.mark.parametrize("kind", ["uniform", "linear"])
def test_edge_uniforms_go_up_a_label_in_items_and_counts(kind):
    # label j+1 owns [edges[j-1], edges[j]): a uniform on an edge goes up,
    # in the labels sample_items draws and in the counts _counter takes
    e0, e1, e2, _ = _edges(GeneratorSpec(kind, n=0, d=4))
    u = [np.nextafter(1.0, 0.0), e0, 0.0, e2, e1, np.nextafter(e1, 0.0), e0]
    drawn = np.array([1, 3, 1, 2])  # labels 4, 2, 1, 4, 3, 2, 2
    edge_draw = types.SimpleNamespace(random=lambda size: np.array(u))
    assert sample_items(GeneratorSpec(kind, n=7, d=4), rng=edge_draw).tolist() == [4, 2, 1, 4, 3, 2, 2]
    for corruption, n, want in [
        ("none", 7, drawn),
        ("even_n", 14, 2 * drawn),
        ("even_m", 14, [*drawn, *drawn]),
        ("no_empty", 11, drawn + 1),
        ("no_unique", 15, drawn + 2),
    ]:
        spec = GeneratorSpec(kind, n=n, d=4, corruption=corruption)
        assert _count_row(spec, u).tolist() == list(want)
        assert np.bincount(sample_items(spec, rng=edge_draw), minlength=len(want) + 1)[1:].tolist() == list(want)


# the items each corruption makes of the 1-based labels of its draws
_CORRUPTED = {
    "none": lambda labels, d: labels,
    "even_n": lambda labels, d: np.repeat(labels, 2),
    "even_m": lambda labels, d: np.concatenate([labels, labels + d]),
    "no_empty": lambda labels, d: np.append(labels, np.arange(1, d + 1)),
    "no_unique": lambda labels, d: np.append(labels, np.repeat(np.arange(1, d + 1), 2)),
}


@pytest.mark.parametrize("d", [1, 2, 3, 10, 1000, 33_333, 10**6])
@pytest.mark.parametrize("kind", ["uniform", "linear"])
@settings(max_examples=2, deadline=None)
@given(key=st.integers(0, 2**64 - 1))
def test_labeller_matches_searchsorted_on_draws_and_every_edge(kind, d, key):
    # searchsorted(edges, u, "right") is the label map's oracle; uniforms
    # on and beside an edge often miss the closed-form guess, so they
    # take the fallback search
    edges = _edges(GeneratorSpec(kind, n=0, d=d))
    u = np.concatenate([_philox(key).random(1000), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    u = np.append(u[u < 1.0], [0.0, np.nextafter(1.0, 0.0)])
    want = np.searchsorted(edges, u, "right")
    assert np.array_equal(_labeller(GeneratorSpec(kind, n=0, d=d), u.size)(u), want)
    # two rows of a block matrix beside their controls, fewer rows than
    # the buffers hold
    block = np.zeros((2, u.size + 1))
    block[:, :-1] = u, u[::-1]
    labelled = _labeller(GeneratorSpec(kind, n=0, d=d), (3, u.size))(block[:, :-1])
    assert np.array_equal(labelled, [want, want[::-1]])
    draw = types.SimpleNamespace(random=lambda size: u.copy())
    for corruption, corrupted in _CORRUPTED.items():
        items = corrupted(want + 1, d)
        spec = GeneratorSpec(kind, n=items.size, d=d, corruption=corruption)
        assert np.array_equal(sample_items(spec, rng=draw), items)
        assert np.array_equal(_count_row(spec, u), np.bincount(items)[1:])


def test_labeller_holds_one_bounds_table():
    # lower and upper are views of one table of d + 2 bounds, where two
    # tables of d + 1 would hold 16 (d + 1) bytes
    d = 10**6
    tracemalloc.start()
    try:
        label = _labeller(GeneratorSpec("uniform", n=0, d=d), (1, 1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 12 * (d + 2)
    assert label(np.array([[0.5]])).tolist() == [[d // 2]]


def test_sample_first_order_of_even_m_spans_fresh_labels():
    spec = GeneratorSpec("uniform", n=40, d=10, corruption="even_m", seed=4)
    counts = _count_row(spec, _philox(spec.seed).random(20))
    labels = sample_items(spec)
    observed = {x + 1: c for x, c in enumerate(counts.tolist()) if c}
    assert observed == {int(x): int(c) for x, c in zip(*np.unique(labels, return_counts=True))}
    assert counts.size == 20 and max(observed) > 10


def test_expected_mk_closed_cases():
    fair_pair = expected_mk(np.array([0.5, 0.5]), 2, 2)
    assert math.isnan(fair_pair[0])
    assert fair_pair[1] == pytest.approx(1.0, rel=1e-14)
    assert fair_pair[2] == pytest.approx(0.5, rel=1e-14)

    point = expected_mk(np.array([1.0]), 5, 5)
    assert point[5] == pytest.approx(1.0, rel=1e-14)
    assert point[1:5] == pytest.approx([0.0] * 4, abs=1e-300)

    with_hole = expected_mk(np.array([0.5, 0.0, 0.5]), 3, 3)
    assert np.nansum(with_hole * np.arange(4)) == pytest.approx(3.0, rel=1e-12)


def _expected_mk_loop(theta, n, k_max):
    # the loop expected_mk ran before it skipped a theta with no mass in (0, 1)
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


def test_expected_mk_point_mass_is_direct():
    n = 100_000
    point = expected_mk(np.array([1.0]), n, n)
    assert np.isnan(point[0])
    assert not point[1:n].any() and point[n] == 1.0
    for theta, n, k_max in [
        ([1.0], 30, 40),
        ([1.0], 30, 20),
        ([0.0, 1.0, 0.0], 7, 9),
        ([0.0, 0.25, 0.0, 0.5, 0.25], 40, 50),
        ([0.0, 0.25, 0.0, 0.5, 0.25], 40, 10),
        # within the sum tolerance: a zero, an interior mass and a one together
        ([1.0, 1e-13, 0.0], 30, 40),
        ([0.3, 0.7], 0, 3),
    ]:
        theta = np.array(theta)
        assert expected_mk(theta, n, k_max).tobytes() == _expected_mk_loop(theta, n, k_max).tobytes()


@pytest.mark.parametrize("d", [1, 2, 52, 33_333, 10**6])
def test_expected_mk_of_equal_weights_keeps_the_bits_of_the_sum(d):
    # equal weights take one category's term plus log(d), in place of
    # the logsumexp of d equal terms, and must give that sum's bits
    theta = make_theta("uniform", d)
    for n, k_max in [(0, 3), (1, 2), (65, 4), (1000, 40), (100_000, 16), (10**9, 6)]:
        assert expected_mk(theta, n, k_max).tobytes() == _expected_mk_loop(theta, n, k_max).tobytes()


def _tied_loop(d, n, k_max):
    # equal weights term by term: one category's term plus log(d) per k
    out = np.zeros(k_max + 1)
    out[0] = np.nan
    theta = np.full(1, 1.0 / d)
    log_d, [log_t], [log_1mt] = np.log(float(d)), np.log(theta), np.log1p(-theta)
    for k in range(1, min(k_max, n) + 1):
        log_coef = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        out[k] = math.exp(log_d + (log_coef + k * log_t + (n - k) * log_1mt))
    return out


@pytest.mark.parametrize(
    "d, n, k_max",
    [(2, 10**4, 5200), (2, 1000, 1000), (52, 65, 3), (33_333, 10**5, 15), (100, 1000, 40), (7, 50, 60), (3, 1, 5)],
)
def test_expected_mk_of_equal_weights_matches_a_scalar_loop(d, n, k_max):
    # the equal-weights sum runs over every k at once, with the loop's bits
    got = expected_mk(make_theta("uniform", d), n, k_max)
    assert got.tobytes() == _tied_loop(d, n, k_max).tobytes()


def test_expected_mk_validation():
    with pytest.raises(ValueError):
        expected_mk(np.array([0.5, 0.4]), 3, 2)
    with pytest.raises(ValueError):
        expected_mk(np.array([0.5, 0.5]), 3, 0)
    with pytest.raises(ValueError):
        expected_mk(np.array([-0.5, 1.5]), 3, 2)
    # an empty sample has no observed counts at any k
    empty = expected_mk(np.array([0.5, 0.5]), 0, 3)
    assert empty[1:] == pytest.approx([0.0] * 3, abs=1e-300)


def test_expected_mk_vanishes_beyond_n():
    vals = expected_mk(np.array([0.5, 0.5]), 3, 6)
    assert vals[4:] == pytest.approx([0.0] * 3, abs=1e-300)


def test_expected_mk_matches_monte_carlo():
    spec = GeneratorSpec("uniform", n=60, d=20, seed=77)
    reps = 400
    k_max = 12
    totals = np.zeros(k_max + 1)
    for rep in range(reps):
        profile = sample(GeneratorSpec("uniform", n=60, d=20, seed=77 + rep))
        for k, m in profile.multiplicities.items():
            if k <= k_max:
                totals[k] += m
    expected = expected_mk(np.array(reference_theta(spec)), 60, k_max)
    for k in range(1, k_max + 1):
        se = 4.0 * math.sqrt(max(expected[k], 1e-12) / reps)
        assert abs(totals[k] / reps - expected[k]) <= se + 1e-9, f"k={k}"
