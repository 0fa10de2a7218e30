"""Output checks for benchmark passes.

Every check rests on a property that holds for any random stream
(table shapes, p-value ranges, an exact oracle), so a change that
alters the Monte Carlo stream still passes them. A failed check raises
CheckFailed; the caller counts it as a failed pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

from scipy.stats import binom

# familywise false-alarm rate of the uniform-control band over the
# whole alpha grid; a failed check must mean a broken harness, not luck
CONTROL_FALSE_ALARM = 1e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _rows(data: bytes, header: list[str], name: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{name}: header {rows[0] if rows else None!r}, want {header!r}")
    return rows[1:]


def _float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"{name}: {text!r} is not a number") from None


def check_pvalues(data: bytes, reps: int, labels: list[str]) -> dict[str, list[float]]:
    """pvalues.csv has reps x labels rows in order, every p in (0, 1].

    Returns the p-values per label, in repetition order.
    """
    body = _rows(data, ["rep", "test", "k", "p"], "pvalues.csv")
    if len(body) != reps * len(labels):
        raise CheckFailed(f"pvalues.csv: {len(body)} rows, want {reps} x {len(labels)}")
    out: dict[str, list[float]] = {label: [] for label in labels}
    for i, row in enumerate(body):
        rep, j = divmod(i, len(labels))
        name, _, k = labels[j].partition(":")
        if row[:3] != [str(rep), name, k] or len(row) != 4:
            raise CheckFailed(f"pvalues.csv row {i + 1}: {row!r}, want rep {rep} {labels[j]}")
        p = _float(row[3], "pvalues.csv")
        if not 0.0 < p <= 1.0:
            raise CheckFailed(f"pvalues.csv row {i + 1}: p = {p!r} outside (0, 1]")
        out[labels[j]].append(p)
    return out


def check_curves(data: bytes, pvalues: dict[str, list[float]], grid: list[float]) -> None:
    """curves.csv holds, per label and alpha, the share of p <= alpha."""
    body = _rows(data, ["test", "k", "alpha", "fraction", "stderr"], "curves.csv")
    want = []
    for label, ps in pvalues.items():
        name, _, k = label.partition(":")
        for alpha in grid:
            want.append((name, k, alpha, sum(p <= alpha for p in ps) / len(ps)))
    if len(body) != len(want):
        raise CheckFailed(f"curves.csv: {len(body)} rows, want {len(want)}")
    for row, (name, k, alpha, frac) in zip(body, want):
        if len(row) != 5 or row[:2] != [name, k]:
            raise CheckFailed(f"curves.csv: row {row!r}, want {name}:{k}")
        if _float(row[2], "curves.csv") != alpha or _float(row[3], "curves.csv") != frac:
            raise CheckFailed(f"curves.csv: row {row!r}, want alpha {alpha} fraction {frac}")


def check_mk(data: bytes, n: int) -> None:
    """mk.csv lists k = 1.. in order; the first profile and the Monte
    Carlo average both hold n items."""
    body = _rows(data, ["k", "sample_m", "avg_m", "expected_m"], "mk.csv")
    if not body:
        raise CheckFailed("mk.csv: no rows")
    items = 0
    avg_items = 0.0
    for k, row in enumerate(body, start=1):
        if len(row) != 4 or row[0] != str(k):
            raise CheckFailed(f"mk.csv: row {row!r}, want k = {k}")
        try:
            m = int(row[1])
        except ValueError:
            raise CheckFailed(f"mk.csv: sample_m {row[1]!r} is not an integer") from None
        avg, expected = _float(row[2], "mk.csv"), _float(row[3], "mk.csv")
        if m < 0 or avg < 0.0 or not expected >= 0.0:
            raise CheckFailed(f"mk.csv: negative entry in {row!r}")
        items += k * m
        avg_items += k * avg
    if items != n or not math.isclose(avg_items, n, rel_tol=1e-9):
        raise CheckFailed(f"mk.csv: profiles hold {items} and {avg_items} items, want {n}")


def check_control(u: list[float], grid: list[float]) -> None:
    """The uniform control's rejection counts lie inside the exact
    binomial band of each grid point (familywise CONTROL_FALSE_ALARM)."""
    reps = len(u)
    tail = CONTROL_FALSE_ALARM / (2 * len(grid))
    for alpha in grid:
        hits = sum(p <= alpha for p in u)
        lo, hi = binom.ppf(tail, reps, alpha), binom.isf(tail, reps, alpha)
        if not lo <= hits <= hi:
            raise CheckFailed(
                f"u control: {hits}/{reps} at alpha {alpha}, band [{lo:.0f}, {hi:.0f}]"
            )


def check_power_outputs(
    tables: dict[str, bytes], summary: str, reps: int, n: int,
    labels: list[str], grid: list[float], assert_validity: bool,
) -> None:
    """All checks of one `iidtest power` run."""
    pvalues = check_pvalues(tables["pvalues.csv"], reps, labels)
    check_curves(tables["curves.csv"], pvalues, grid)
    check_mk(tables["mk.csv"], n)
    check_control(pvalues["u"], grid)
    try:
        doc = json.loads(summary)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"power summary is not JSON: {exc}") from None
    if assert_validity and doc.get("validity_failures"):
        raise CheckFailed(f"validity failures: {doc['validity_failures']}")


def oracle_profile(labels) -> tuple[int, dict[int, int]]:
    """(n, {k: m_k}) counted directly from the generated labels."""
    counts = Counter(labels)
    return sum(counts.values()), dict(Counter(counts.values()))


def check_profile(text: str, n: int, multiplicities: dict[int, int]) -> None:
    """The `iidtest count` document equals the oracle profile."""
    try:
        doc = json.loads(text)
        got_n = doc["n"]
        got_m = {int(k): v for k, v in doc["m"].items()}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckFailed(f"profile document malformed: {exc!r}") from None
    if got_n != n or got_m != multiplicities:
        diff = sorted(
            k for k in set(got_m) | set(multiplicities) if got_m.get(k) != multiplicities.get(k)
        )
        raise CheckFailed(f"profile differs from oracle: n {got_n} vs {n}, m_k differ at {diff[:5]}")


def check_test_report(text: str, direct: list[dict], combined_p: float) -> None:
    """The `iidtest test` document carries the p-values of direct
    run_test calls on the parsed profile, and their Bonferroni p."""
    try:
        doc = json.loads(text)
        got = [(r["kind"], r["k"], r["p"]) for r in doc["results"]]
        got_combined = doc["combined"]["p"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CheckFailed(f"test report malformed: {exc!r}") from None
    want = [(r["kind"], r["k"], r["p"]) for r in direct]
    if got != want:
        raise CheckFailed(f"test report p-values {got} differ from direct run_test {want}")
    if got_combined != combined_p:
        raise CheckFailed(f"combined p {got_combined} differs from {combined_p}")
