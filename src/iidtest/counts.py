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
import warnings
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "CountProfile",
    "ingest_items",
    "profile_from_counts",
    "profile_to_json",
    "profile_from_json",
]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    entries, and the identity sum k*m_k = n.
    """

    n: int
    multiplicities: Mapping[int, int]

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        if not isinstance(self.multiplicities, Mapping):
            raise ValueError("multiplicities must map k to m_k")
        for k, m in self.multiplicities.items():
            if not _is_int(k) or k < 1:
                raise ValueError(f"multiplicity key must be an integer >= 1, got {k!r}")
            if not _is_int(m) or m < 1:
                raise ValueError(f"m_{k} must be an integer >= 1, got {m!r}")
        total = sum(k * m for k, m in self.multiplicities.items())
        if total != self.n:
            raise ValueError(f"sum k*m_k = {total} does not match n = {self.n}")
        ordered = dict(sorted(self.multiplicities.items()))
        object.__setattr__(self, "multiplicities", ordered)

    @property
    def m_plus(self) -> int:
        """Number of distinct items observed, sum of all m_k."""
        return sum(self.multiplicities.values())

    def m(self, k: int) -> int:
        """m_k, zero when absent."""
        return self.multiplicities.get(k, 0)


def ingest_items(items: Iterable[bytes | str], hashed: bool = False) -> CountProfile:
    """Reduce a finite stream of items to a count profile.

    Each distinct byte string is counted and the per-item counts are
    folded into multiplicities. Strings are compared as their UTF-8
    bytes.

    With ``hashed=True`` items are keyed by a 128-bit BLAKE2 digest
    instead of being kept verbatim. That caps memory per distinct item
    but a digest collision would silently merge two distinct items, so
    the exact mode is the default.
    """
    if hashed:
        warnings.warn(
            "hashed ingestion can merge distinct items on digest collision; "
            "counts are then slightly wrong with probability ~ d^2 / 2^128",
            stacklevel=2,
        )
    counts: Counter[bytes] = Counter()
    n = 0
    for item in items:
        data = item.encode() if isinstance(item, str) else bytes(item)
        if hashed:
            data = hashlib.blake2b(data, digest_size=16).digest()
        counts[data] += 1
        n += 1
    return CountProfile(n, dict(Counter(counts.values())))


def profile_from_counts(counts: Iterable[int]) -> CountProfile:
    """Build a profile from per-item occurrence counts.

    Entry point when only the counts n_x are known. Zero or negative
    counts are rejected, an item that was never seen has no count.
    """
    counts = list(counts)
    for c in counts:
        if not _is_int(c) or c < 1:
            raise ValueError(f"counts must be integers >= 1, got {c!r}")
    return CountProfile(sum(counts), dict(Counter(counts)))


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
