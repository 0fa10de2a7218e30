"""Invariant tests of the iid hypothesis from count multiplicities.

The library reduces a sample to its multiplicity profile (how many
distinct items occur exactly k times), evaluates one-sided tests whose
mean bounds hold under any iid law on any discrete space, and wraps
synthetic generators plus a reproducible Monte Carlo harness around
them. See the README for the command-line surface.
"""

from . import counts, generators, harness, invariants, numerics
from .counts import *
from .generators import *
from .harness import *
from .invariants import *
from .numerics import *
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    *counts.__all__,
    *generators.__all__,
    *harness.__all__,
    *invariants.__all__,
    *numerics.__all__,
    "run_checks",
    "__version__",
]
