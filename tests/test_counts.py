"""Profile construction, validation and serialization."""

import io
import json
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iidtest.counts import (
    _BATCH,
    _CHUNK,
    CountProfile,
    ingest_items,
    ingest_lines,
    profile_from_counts,
    profile_from_json,
    profile_to_json,
)


def test_ingest_basic_example():
    profile = ingest_items(["a", "b", "a", "c"])
    assert profile.n == 4
    assert profile.multiplicities == {1: 2, 2: 1}
    assert profile.m_plus == 3
    assert profile.m(2) == 1
    assert profile.m(7) == 0


def test_ingest_empty_stream():
    profile = ingest_items([])
    assert profile.n == 0
    assert profile.multiplicities == {}
    assert profile.m_plus == 0


def test_ingest_two_heavy_labels():
    items = ["x"] * 500 + ["y"] * 500
    profile = ingest_items(items)
    assert profile.n == 1000
    assert profile.multiplicities == {500: 2}


def test_ingest_treats_strings_as_their_bytes():
    assert ingest_items(["a", b"a", "b"]).multiplicities == {1: 1, 2: 1}
    assert ingest_items([bytearray(b"a"), memoryview(b"a"), "a"]).multiplicities == {3: 1}


@pytest.mark.parametrize("item", [3, np.int64(3), 0, -1, 1.5, None])
def test_ingest_refuses_items_that_are_neither_text_nor_bytes(item):
    # bytes(3) would count three zero bytes, bytes(-1) raise another error
    with pytest.raises(ValueError, match=f"^items must be str or bytes-like, got {type(item).__name__}$"):
        ingest_items([b"a", item])


def _as_type(i: int, data: bytes):
    return (bytes, bytes.decode, bytearray, lambda b: memoryview(bytearray(b)))[i % 4](data)


@pytest.mark.parametrize("hashed", [False, True])
def test_ingest_batches_mix_bytes_with_other_item_types(hashed):
    # one batch of bytes only, one of all four types (bytearray and a
    # writable memoryview are unhashable, so must not reach the counter
    # as they are), one of bytes again, and a short last one
    labels = [b"%d" % (i % 1000) for i in range(3 * _BATCH + 5)]
    items = labels[:_BATCH] + [_as_type(i, x) for i, x in enumerate(labels[_BATCH:2 * _BATCH])]
    items += labels[2 * _BATCH:-5] + [_as_type(i, x) for i, x in enumerate(labels[-5:])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = ingest_items(iter(items), hashed=hashed)
    assert profile == profile_from_counts(Counter(labels).values())


def test_ingest_refuses_a_bad_item_beyond_the_first_batch():
    with pytest.raises(ValueError, match="^items must be str or bytes-like, got int$"):
        ingest_items([b"a"] * _BATCH + [b"b", "c", 3])


def test_ingest_hashed_mode_warns_and_preserves_multiplicities():
    items = [f"item-{i}" for i in range(50)] * 2
    with pytest.warns(UserWarning):
        hashed = ingest_items(items, hashed=True)
    assert hashed.multiplicities == ingest_items(items).multiplicities


@given(st.lists(st.text(alphabet="abcdef", max_size=2), max_size=60), st.integers(0, 2**32))
def test_ingest_is_order_free(items, seed):
    shuffled = items[:]
    random.Random(seed).shuffle(shuffled)
    assert ingest_items(shuffled).multiplicities == ingest_items(items).multiplicities


@given(st.lists(st.integers(0, 30), max_size=60))
def test_ingest_is_relabeling_invariant(labels):
    renamed = [f"renamed/{x}" for x in labels]
    original = [str(x) for x in labels]
    assert ingest_items(renamed).multiplicities == ingest_items(original).multiplicities


class _Trickle(io.RawIOBase):
    """A binary stream whose reads return 1 to 7 bytes, whatever was
    asked for, so that items straddle chunk boundaries."""

    def __init__(self, data: bytes, seed: int):
        self._data = memoryview(data)
        self._rng = random.Random(seed)

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        piece = self._data[: self._rng.randint(1, 7)].tobytes()
        self._data = self._data[len(piece):]
        return piece


def _split_lines(data: bytes) -> list[bytes]:
    items = data.split(b"\n")
    if items[-1] == b"":
        items.pop()
    return items


_LINE_BYTES = st.lists(st.sampled_from([b"a", b"b", b" ", b"\r", b"\x00", b"\xff"]), max_size=3)


@given(
    st.lists(_LINE_BYTES.map(b"".join), max_size=40),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_ingest_lines_matches_the_split_list(lines, final_newline, seed):
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    expected = ingest_items(_split_lines(data))
    assert ingest_lines(_Trickle(data, seed)) == expected
    with pytest.warns(UserWarning):
        assert ingest_lines(_Trickle(data, seed), hashed=True) == expected


def test_ingest_lines_item_semantics():
    cases = [
        (b"", (0, {})),
        (b"\n", (1, {1: 1})),
        (b"\n\n", (2, {2: 1})),
        (b"a\nb\na", (3, {1: 1, 2: 1})),
        (b"a\r\na\n a\n", (3, {1: 3})),
        (b"a\r\na\r\n", (2, {2: 1})),
        (b"\xff\n\xff\n\n", (3, {1: 1, 2: 1})),
    ]
    for data, (n, multiplicities) in cases:
        assert ingest_lines(io.BytesIO(data)) == CountProfile(n, multiplicities)


def test_ingest_lines_joins_a_line_longer_than_a_chunk():
    long = b"x" * (2 * _CHUNK + 3)
    data = b"a\n" + long + b"\na\n" + long
    profile = ingest_lines(io.BytesIO(data))
    assert profile == CountProfile(4, {2: 2})
    assert profile == ingest_items(_split_lines(data))


def test_profile_from_counts_examples():
    assert profile_from_counts([2, 2]).multiplicities == {2: 2}
    assert profile_from_counts([2, 2]).n == 4
    p = profile_from_counts([3, 1, 1, 1])
    assert (p.n, p.multiplicities) == (6, {1: 3, 3: 1})
    assert profile_from_counts([5]).multiplicities == {5: 1}


def test_profile_from_counts_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        profile_from_counts([2, 0])
    with pytest.raises(ValueError):
        profile_from_counts([-1])
    with pytest.raises(ValueError):
        profile_from_counts([True])


@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_counts_round_trip_through_item_expansion(counts):
    expanded = [f"label{i}" for i, c in enumerate(counts) for _ in range(c)]
    assert ingest_items(expanded).multiplicities == profile_from_counts(counts).multiplicities


def test_validate_accepts_consistent_profiles():
    assert CountProfile(4, {2: 2}).m(2) == 2
    assert CountProfile(0, {}).m_plus == 0


def test_validate_reports_sum_mismatch():
    with pytest.raises(ValueError, match="does not match n"):
        CountProfile(5, {2: 2})


def test_validate_reports_first_order_inconsistency():
    # per-item counts in a profile document must reproduce its n and m
    for counts in ([2, 1, 1], [2, 2, 2], [3, 1]):
        doc = json.dumps({"n": 4, "m": {"2": 2}, "counts": counts})
        with pytest.raises(ValueError, match="'counts' do not reproduce"):
            profile_from_json(doc)


def test_validate_rejects_malformed_fields():
    cases = [
        ((-1, {}), "n must be"),
        ((True, {1: 1}), "n must be"),
        ((2.0, {1: 2}), "n must be"),
        ((2, {0: 2}), "key must be"),
        ((2, {1: 2.0}), "m_1 must be"),
        ((2, {2: True}), "m_2 must be"),
        # unsortable keys are refused before the sort, not by a TypeError from it
        ((2, {"a": 1, 1: 1}), "key must be"),
        ((2, [(1, 2)]), "multiplicities must"),
    ]
    for args, match in cases:
        with pytest.raises(ValueError, match=match):
            CountProfile(*args)


def test_multiplicities_are_stored_sorted():
    profile = CountProfile(10, {5: 1, 1: 3, 2: 1})
    assert list(profile.multiplicities) == [1, 2, 5]


def test_json_round_trip():
    profile = ingest_items(["a", "b", "a", "c"])
    doc = json.loads(profile_to_json(profile))
    assert doc == {"n": 4, "m": {"1": 2, "2": 1}}
    back = profile_from_json(profile_to_json(profile))
    assert back.n == profile.n
    assert back.multiplicities == profile.multiplicities


def test_json_with_counts_included():
    # a counts list is checked against n and m, then discarded
    back = profile_from_json('{"n": 4, "m": {"1": 2, "2": 1}, "counts": [1, 2, 1]}')
    assert back == ingest_items(["a", "b", "a", "c"])
    assert json.loads(profile_to_json(back)) == {"n": 4, "m": {"1": 2, "2": 1}}


def test_json_parse_rejects_malformed_documents():
    bad = [
        "{",
        "[1, 2]",
        '{"n": 4}',
        '{"n": 4, "m": [1]}',
        '{"n": 4, "m": {"x": 2}}',
        '{"n": 5, "m": {"2": 2}}',
        '{"n": 4, "m": {"2": 2}, "counts": [2, 1, 1]}',
        '{"n": 4, "m": {"2": 2}, "counts": "22"}',
        '{"n": 4, "m": {"2": 2}, "counts": [2, 0, 2]}',
        # keys other than the canonical decimal form, which could merge with it
        '{"n": 1, "m": {"1": 1, "01": 1}}',
        '{"n": 1, "m": {"01": 1}}',
        '{"n": 1, "m": {"+1": 1}}',
        '{"n": 1, "m": {" 1 ": 1}}',
        '{"n": 10, "m": {"1_0": 1}}',
        '{"n": 1, "m": {"\u0661": 1}}',
        # repeated keys, which json.loads would silently collapse
        '{"n": 1, "m": {"1": 5, "1": 1}}',
        '{"n": 1, "n": 1, "m": {"1": 1}}',
    ]
    for text in bad:
        with pytest.raises(ValueError):
            profile_from_json(text)
