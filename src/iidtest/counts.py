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
from dataclasses import dataclass, field

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
    first_order : dict[int, int] | None
        Optional map label -> count for callers that kept labels.
        Carries no information the tests use beyond ``multiplicities``.

    Construction checks the invariants and raises ValueError on the
    first violation: integral n >= 0, integral k >= 1 and m_k >= 1
    entries, the identity sum k*m_k = n, and (when first_order is
    present) integral counts >= 1 that reproduce n and the
    multiplicities exactly.
    """

    n: int
    multiplicities: Mapping[int, int]
    first_order: Mapping[int, int] | None = field(default=None, compare=False)

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
        if self.first_order is not None:
            if not isinstance(self.first_order, Mapping):
                raise ValueError("first_order must map labels to counts")
            for label, count in self.first_order.items():
                if not _is_int(count) or count < 1:
                    raise ValueError(f"count for label {label!r} must be an integer >= 1")
            if sum(self.first_order.values()) != self.n:
                raise ValueError("first_order counts do not sum to n")
            if dict(Counter(self.first_order.values())) != dict(self.multiplicities):
                raise ValueError("first_order inconsistent with multiplicities")
            object.__setattr__(self, "first_order", dict(self.first_order))
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

    Each distinct byte string gets a dense integer label in order of
    first appearance and the per-label counts are folded into
    multiplicities. Strings are compared as their UTF-8 bytes.

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
    labels: dict[bytes, int] = {}
    counts: Counter[int] = Counter()
    n = 0
    for item in items:
        data = item.encode() if isinstance(item, str) else bytes(item)
        if hashed:
            data = hashlib.blake2b(data, digest_size=16).digest()
        label = labels.setdefault(data, len(labels) + 1)
        counts[label] += 1
        n += 1
    multiplicities = Counter(counts.values())
    return CountProfile(n, dict(multiplicities), dict(counts))


def profile_from_counts(counts: Iterable[int]) -> CountProfile:
    """Build a profile from per-item occurrence counts.

    Entry point when only the counts n_x are known; labels 1..d are
    synthesized. Zero or negative counts are rejected, an item that was
    never seen has no count.
    """
    counts = list(counts)
    for c in counts:
        if not _is_int(c) or c < 1:
            raise ValueError(f"counts must be integers >= 1, got {c!r}")
    first_order = {x + 1: c for x, c in enumerate(counts)}
    return CountProfile(sum(counts), dict(Counter(counts)), first_order)


def profile_to_json(profile: CountProfile, include_counts: bool = False) -> str:
    """Serialize to the flat document ``{"n": ..., "m": {"k": m_k}}``.

    ``include_counts=True`` adds a ``counts`` list when first-order
    counts are available.
    """
    doc: dict = {
        "n": profile.n,
        "m": {str(k): m for k, m in profile.multiplicities.items()},
    }
    if include_counts and profile.first_order is not None:
        doc["counts"] = sorted(profile.first_order.values(), reverse=True)
    return json.dumps(doc)


def profile_from_json(text: str) -> CountProfile:
    """Parse and validate a profile document.

    Raises ValueError with a description for anything malformed: bad
    JSON, missing fields, non-integer keys, or violated invariants
    (including a ``counts`` list inconsistent with ``n``/``m``).
    """
    try:
        doc = json.loads(text)
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
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"multiplicity key {key!r} is not an integer") from None
        multiplicities[k] = value
    first_order = None
    if "counts" in doc:
        if not isinstance(doc["counts"], list):
            raise ValueError("'counts' must be a list of integers")
        for c in doc["counts"]:
            if not _is_int(c) or c < 1:
                raise ValueError(f"counts must be integers >= 1, got {c!r}")
        first_order = {x + 1: c for x, c in enumerate(doc["counts"])}
    return CountProfile(doc["n"], multiplicities, first_order)
