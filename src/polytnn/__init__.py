"""Exact transfer matrices, face-vector transforms, and total nonnegativity.

The package builds the banded binomial matrices that carry g-vectors of
simplicial polytopes to their face counts, converts between f-, h-, and
g-vectors in exact integer arithmetic, tests candidate sequences with the
Macaulay boundary operator, and certifies matrices totally nonnegative
two independent ways: exhaustive minor enumeration and non-intersecting
lattice-path families.
"""

from . import errors, exactnum, lgv, macaulay, polyvec, tnn, transfer
from .errors import *
from .exactnum import *
from .lgv import *
from .macaulay import *
from .polyvec import *
from .tnn import *
from .transfer import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted({name for m in (errors, exactnum, lgv, macaulay, polyvec, tnn, transfer) for name in m.__all__})
