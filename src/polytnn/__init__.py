"""Exact transfer matrices, face-vector transforms, and total nonnegativity.

The package builds the banded binomial matrices that carry g-vectors of
simplicial polytopes to their face counts, converts between f-, h-, and
g-vectors in exact integer arithmetic, tests candidate sequences with the
Macaulay boundary operator, and certifies matrices totally nonnegative
two independent ways: exhaustive minor enumeration and non-intersecting
lattice-path families.

`import polytnn` loads none of its modules. A module, and each name the
package re-exports, is imported on first use (PEP 562): `polytnn.tnn`
imports `polytnn.tnn`, and `polytnn.determinant` searches the modules'
`__all__` in dependency order, so it imports its own module and every
module before it. Each module's `__all__` is the one list of its public
names; `polytnn.__all__` is their sorted union, and a name missing from it
raises `AttributeError` after one search of every module.
"""

import importlib
import sys

__version__ = "0.1.0"

# the library modules in dependency order: each imports only modules before it
_MODULES = ("errors", "exactnum", "transfer", "tnn", "macaulay", "polyvec", "lgv")


def _module(short: str):
    return importlib.import_module(f"{__name__}.{short}")


def _exports() -> list:
    """Compute and keep `__all__`, the sorted union of the modules' `__all__`."""
    value = globals()["__all__"] = sorted({export for short in _MODULES for export in _module(short).__all__})
    return value


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)  # the import binds it in this namespace
    if name == "__all__":
        return _exports()
    missing = f"module {__name__!r} has no attribute {name!r}"
    # a probe such as __wrapped__ or __path__ imports nothing, and once
    # __all__ is kept a name it does not list searches nothing
    if name.startswith("_") or "__all__" in globals() and name not in globals()["__all__"]:
        raise AttributeError(missing)
    # in dependency order, importing as it goes: a name loads its module and every module before it
    module = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
    if module is None:
        _exports()  # every module is loaded now, so keeping __all__ imports nothing more
        raise AttributeError(missing)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *sys.modules[__name__].__all__})
