"""Count profiles: the multiplicity summary that every test consumes.

A profile records the sample size n and the sparse map k -> m_k, where
m_k is the number of distinct items that occur exactly k times. Tests
depend on the sample only through this map, so ingestion is the single
place raw data is touched. The number of never-seen items is not
representable (the item space is treated as unbounded), hence no m_0.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO

__all__ = [
    "CountProfile",
    "ingest_items",
    "ingest_lines",
    "profile_from_counts",
    "profile_to_json",
    "profile_from_json",
]


def _is_int(value) -> bool:
    # the library's one integer rule: any integral type, numpy's too, but no bool
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int if it passes the integer rule and is at
    least ``least``, when given; else a ValueError that names it."""
    if _is_int(value) and (least is None or value >= least):
        return int(value)
    floor = "" if least is None else f" >= {least}"
    raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


@dataclass(frozen=True)
class CountProfile:
    """Immutable second-order summary of a sample.

    Attributes
    ----------
    n : int
        Total number of items.
    multiplicities : dict[int, int]
        Sparse map k -> m_k over k >= 1; zero entries are never stored.

    Construction checks the invariants and raises ValueError on the
    first violation: integral n >= 0, integral k >= 1 and m_k >= 1
    entries, and the identity sum k*m_k = n. Any integral type passes
    but bool; n, k and m_k are stored as Python ints.
    """

    n: int
    multiplicities: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n, 0))
        if not isinstance(self.multiplicities, Mapping):
            raise ValueError("multiplicities must map k to m_k")
        # as Python ints first, so that no numpy product can wrap
        ordered = dict(sorted((_integer("multiplicity key", k, 1), _integer(f"m_{k}", m, 1))
                              for k, m in self.multiplicities.items()))
        total = sum(k * m for k, m in ordered.items())
        if total != self.n:
            raise ValueError(f"sum k*m_k = {total} does not match n = {self.n}")
        object.__setattr__(self, "multiplicities", ordered)

    @property
    def m_plus(self) -> int:
        """Number of distinct items observed, sum of all m_k."""
        return sum(self.multiplicities.values())

    def m(self, k: int) -> int:
        """m_k, zero when absent."""
        return self.multiplicities.get(k, 0)


# Bytes per read in ingest_lines, and items per batch in ingest_items:
# large enough that the per-chunk Python steps are negligible, small
# enough that the input is never held in memory.
_CHUNK = 1 << 20
_BATCH = 1 << 16


def _digest(item: bytes) -> bytes:
    return hashlib.blake2b(item, digest_size=16).digest()


def _as_bytes(item: bytes | str) -> bytes:
    # bytes() of an int would make that many zero bytes
    if isinstance(item, (bytes, bytearray, memoryview)):
        return bytes(item)
    if isinstance(item, str):
        return item.encode()
    raise ValueError(f"items must be str or bytes-like, got {type(item).__name__}")


def _count(batches: Iterable[Iterable[bytes]], hashed: bool) -> CountProfile:
    """The counting core: fold batches of items into a profile.

    Each batch goes to ``Counter.update`` whole, so the per-item work
    stays in C; with ``hashed`` each item is replaced by its 128-bit
    BLAKE2 digest on the way in.
    """
    if hashed:
        warnings.warn(
            "hashed ingestion can merge distinct items on digest collision; "
            "counts are then slightly wrong with probability ~ d^2 / 2^128",
            stacklevel=3,
        )
    counts: Counter[bytes] = Counter()
    for batch in batches:
        counts.update(map(_digest, batch) if hashed else batch)
    return CountProfile(counts.total(), dict(Counter(counts.values())))


def ingest_items(items: Iterable[bytes | str], hashed: bool = False) -> CountProfile:
    """Reduce a finite stream of items to a count profile.

    Each distinct byte string is counted and the per-item counts are
    folded into multiplicities. Items are ``str`` or bytes-like
    (``bytes``, ``bytearray``, ``memoryview``), strings compared as
    their UTF-8 bytes; any other item raises ValueError.

    With ``hashed=True`` items are keyed by a 128-bit BLAKE2 digest
    instead of being kept verbatim. That caps memory per distinct item
    but a digest collision would silently merge two distinct items, so
    the exact mode is the default.
    """
    return _count(_batches(items), hashed)


def _batches(items: Iterable[bytes | str]) -> Iterator[Iterable[bytes]]:
    # a batch of nothing but bytes goes to the counter as it is; any
    # other batch is normalised item by item
    items = iter(items)
    while batch := list(islice(items, _BATCH)):
        yield batch if set(map(type, batch)) == {bytes} else map(_as_bytes, batch)


def _lines(stream: BinaryIO) -> Iterator[list[bytes]]:
    r"""The ``\n``-separated lines of a binary stream, one list per read.

    A line that no read has ended yet is kept as pieces and joined once
    its newline arrives, so a line longer than a chunk costs no repeated
    copying. A last line without a newline is still a line; a final
    newline starts none.
    """
    head: list[bytes] = []
    while chunk := stream.read(_CHUNK):
        parts = chunk.split(b"\n")
        head.append(parts[0])
        if len(parts) > 1:
            parts[0] = b"".join(head)
            head = [parts.pop()]
            yield parts
    if line := b"".join(head):
        yield [line]


def ingest_lines(stream: BinaryIO, hashed: bool = False) -> CountProfile:
    r"""Reduce a binary stream of newline-separated items to a profile.

    Every ``\n``-separated line is one item, kept verbatim: ``\r``,
    spaces and bytes that are not UTF-8 are part of it, and an empty
    line is an item. A missing final newline still ends the last item,
    a trailing newline adds no empty item, and an empty stream gives
    n = 0. The stream is read in fixed chunks, so only the distinct
    items stay in memory. ``hashed`` is as in `ingest_items`, and the
    profile equals ``ingest_items`` on the list of lines.
    """
    return _count(_lines(stream), hashed)


def profile_from_counts(counts: Iterable[int]) -> CountProfile:
    """Build a profile from per-item occurrence counts.

    Entry point when only the counts n_x are known. Zero or negative
    counts are rejected, an item that was never seen has no count.
    """
    counts = list(counts)
    for c in counts:
        if not _is_int(c) or c < 1:
            raise ValueError(f"counts must be integers >= 1, got {c!r}")
    return CountProfile(sum(map(int, counts)), dict(Counter(counts)))


def profile_to_json(profile: CountProfile) -> str:
    """Serialize to the flat document ``{"n": ..., "m": {"k": m_k}}``."""
    return json.dumps(
        {"n": profile.n, "m": {str(k): m for k, m in profile.multiplicities.items()}}
    )


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def profile_from_json(text: str) -> CountProfile:
    """Parse and validate a profile document.

    Raises ValueError with a description for anything malformed: bad
    JSON, missing fields, repeated keys, keys of ``m`` that are not
    canonical decimal integers, or violated invariants. An optional
    ``counts`` list of per-item counts must reproduce ``n`` and ``m``;
    it is checked, then discarded.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("profile document must be a JSON object")
    if "n" not in doc or "m" not in doc:
        raise ValueError("profile document needs fields 'n' and 'm'")
    if not isinstance(doc["m"], dict):
        raise ValueError("'m' must be an object mapping k to m_k")
    multiplicities = {}
    for key, value in doc["m"].items():
        # only the canonical form, else "01", "+1", " 1 " or "1_0" could merge with "1"
        if not key.isdecimal() or str(int(key)) != key:
            raise ValueError(f"multiplicity key {key!r} is not a canonical decimal integer")
        multiplicities[int(key)] = value
    profile = CountProfile(doc["n"], multiplicities)
    if "counts" in doc:
        if not isinstance(doc["counts"], list):
            raise ValueError("'counts' must be a list of integers")
        if profile_from_counts(doc["counts"]) != profile:
            raise ValueError("'counts' do not reproduce n and m")
    return profile
