"""Invariant tests of the iid hypothesis from count multiplicities.

The library reduces a sample to its multiplicity profile (how many
distinct items occur exactly k times), evaluates one-sided tests whose
mean bounds hold under any iid law on any discrete space, and wraps
synthetic generators plus a reproducible Monte Carlo harness around
them. See the README for the command-line surface.

The public names are bound on first use (PEP 562): ``import iidtest``
loads neither numpy nor scipy, and the first access to any public name
or to ``__all__`` imports the library modules and binds their
``__all__`` names, as a star import of each would.
"""

from importlib import import_module

__version__ = "0.1.0"

# the modules whose __all__ make up the package's, in its order
_MODULES = ("counts", "generators", "harness", "invariants", "numerics")
# every submodule; `from iidtest import cli` probes the package for the
# name before importing it, and that probe must load only the submodule
_SUBMODULES = frozenset({*_MODULES, "cli", "definitions", "verify"})


def _load() -> None:
    public = []
    for name in _MODULES:
        module = import_module(f".{name}", __name__)
        public += module.__all__
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
    from .verify import run_checks

    globals().update(run_checks=run_checks, __all__=[*public, "run_checks", "__version__"])


def __getattr__(name: str):
    # the import system probes dunders such as __path__ and __spec__;
    # those must not pull in numpy
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
