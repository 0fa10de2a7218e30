"""The names the command line and the library share, free of numpy.

The test kinds and options, the result records, the generator spec and
the names of the ``verify`` suites live here so that the parser can
offer them as choices, and ``iidtest count`` can run, without loading
numpy or scipy. The library modules re-export them where they are
documented: the test types from `invariants`, `GeneratorSpec` from
`generators`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .counts import _is_int


class Mode(str, Enum):
    POISSON = "poisson"
    MULTINOMIAL = "multinomial"


class VarianceSource(str, Enum):
    AUTO = "auto"
    EMPIRICAL = "empirical"
    THEORETICAL = "theoretical"


class PValueMethod(str, Enum):
    GAUSSIAN = "gaussian"
    BERNSTEIN = "bernstein"


@dataclass(frozen=True)
class Family:
    """The rules of one test family.

    ``min_k`` is the smallest admissible k (None for the k-free even
    and odd). A linear family also carries ``weights``, a map from the
    offset j - k to the weight of m_j in T = sum w m_j. The statistic,
    the empirical (sum w^2 m_j) and theoretical (sum w^2 mu_j) variance
    bounds, the Bernstein range max |w| and ``min_k`` all follow from
    it; a family without weights has no theoretical variance. Sums run
    in the weights' order.
    """

    min_k: int | None
    weights: dict[int, int] | None = None

    @classmethod
    def linear(cls, weights: dict[int, int]) -> Family:
        return cls(1 - min(weights), weights)


# the order is the one `iidtest bounds` prints by default
FAMILIES: dict[str, Family] = {
    "count": Family.linear({0: 1}),
    "slope": Family.linear({0: 1, -1: -1}),
    "slopelower": Family.linear({-1: 1, 0: -1}),
    "curv": Family.linear({0: 2, -1: -1, 1: -1}),
    "logcurv": Family(min_k=2),
    "even": Family(min_k=None),
    "odd": Family(min_k=None),
}

# The bound formulas take k through k ln k - ln k! style differences
# in doubles: beyond 2**53 (where k and k + 1 stop being distinct
# doubles) they carry no digit of k, from about 2**56 the slope bounds
# overflow, and near 2**63 gammaln cannot take k + 1 at all.
_MAX_K = 2**53


@dataclass(frozen=True)
class TestKind:
    """One member of the test family, e.g. ``count`` at k=2.

    ``family`` is one of even, odd, count, slope, slopelower, curv,
    logcurv; ``k`` is required for all but even/odd (count allows
    k >= 1, the rest k >= 2) and may be at most 2**53, beyond which the
    bound formulas cannot be evaluated.
    """

    family: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown test family {self.family!r}")
        min_k = FAMILIES[self.family].min_k
        if min_k is None:
            if self.k is not None:
                raise ValueError(f"{self.family} takes no k")
        else:
            if self.k is None:
                raise ValueError(f"{self.family} needs k >= {min_k}")
            if not _is_int(self.k) or self.k < min_k:
                raise ValueError(f"{self.family} needs integer k >= {min_k}, got {self.k!r}")
            if self.k > _MAX_K:
                raise ValueError(f"{self.family} needs k <= 2**53, got {self.k}")

    def __str__(self) -> str:
        return self.family if self.k is None else f"{self.family}:{self.k}"


def parse_kind(token: str) -> TestKind:
    """Parse a kind token such as ``even`` or ``slope:3``."""
    if not isinstance(token, str):
        raise ValueError(f"test kind must be a string such as 'count:2', got {token!r}")
    name, sep, tail = token.strip().partition(":")
    if not sep:
        return TestKind(name)
    try:
        k = int(tail)
    except ValueError:
        raise ValueError(f"bad k in test token {token!r}") from None
    return TestKind(name, k)


DEFAULT_SUITE: tuple[TestKind, ...] = (
    TestKind("even"),
    TestKind("odd"),
    TestKind("count", 2),
    TestKind("slope", 2),
    TestKind("curv", 2),
    TestKind("logcurv", 2),
)


@dataclass(frozen=True)
class TestOptions:
    """Evaluation knobs shared by all kinds.

    Defaults match the plain experimental configuration: Poisson-mode
    bounds, no c_n correction, per-family automatic variance source
    (theoretical for count, empirical otherwise), Gaussian tail.
    Enabling ``cn_correction`` buys strict validity of the Poisson
    bounds at the price of ~ln sqrt(2 pi n) of log-significance.
    """

    mode: Mode = Mode.POISSON
    cn_correction: bool = False
    variance_source: VarianceSource = VarianceSource.AUTO
    pvalue_method: PValueMethod = PValueMethod.GAUSSIAN

    def __post_init__(self) -> None:
        # a truthy string such as "off" must not switch the charge on
        if not isinstance(self.cn_correction, bool):
            raise ValueError(f"cn_correction must be True or False, got {self.cn_correction!r}")
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "variance_source", VarianceSource(self.variance_source))
        object.__setattr__(self, "pvalue_method", PValueMethod(self.pvalue_method))


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test on one profile.

    For the logcurv family, ``statistic`` and ``tau_ub`` live on the
    log scale while ``v_ub`` is reported on the count scale n^2 times
    the inverse-multiplicity sum; ``z`` uses the delta-method form
    n (statistic - tau_ub) / sqrt(v_ub), which is the same number as
    dividing the log-scale excess by sqrt(1/m_{k-1} + 4/m_k + 1/m_{k+1}).
    Every other family satisfies z = (statistic - tau_ub)/sqrt(v_ub)
    directly.

    ``p`` equals min(1, exp(log_p)) clamped below to the smallest
    positive float, so the exact tail mass is always recoverable from
    ``log_p``. ``applicable`` False forces p = 1; ``notes`` records
    which bounds produced the numbers.
    """

    kind: TestKind
    n: int
    statistic: float
    tau_ub: float
    v_ub: float
    z: float
    log_p: float
    p: float
    applicable: bool = True
    notes: str = ""

    def to_dict(self) -> dict:
        def scrub(x: float) -> float | None:
            return x if math.isfinite(x) else None

        return {
            "kind": self.kind.family,
            "k": self.kind.k,
            "statistic": scrub(self.statistic),
            "tau_ub": scrub(self.tau_ub),
            "v_ub": scrub(self.v_ub),
            "z": scrub(self.z),
            "log_p": scrub(self.log_p),
            "p": self.p,
            "applicable": self.applicable,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class CombinedResult:
    """A multiple-testing combination: overall p, the member that
    attained it, and the decision when a level was supplied."""

    p: float
    source: TestKind | None
    reject: bool | None = None



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


# the `verify` suites in the order they run; each name maps to the
# function ``verify._check_<name with "-" as "_">``
SUITE_NAMES = (
    "stirling",
    "pmf-normalization",
    "normal-tail",
    "cn-factor",
    "poisson-binomial-regime",
    "central-binomial",
    "poisson-envelopes",
    "multinomial-envelopes",
    "even-odd-envelopes",
    "brute-force-d2",
    "sampler-determinism",
)
