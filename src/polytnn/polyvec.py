"""f-, h-, and g-vector transforms for simplicial d-polytopes.

A simplicial d-polytope with f_i faces of dimension i (with the implied
conventions f_{-1} = f_d = 1, never stored) determines h and g by

    sum_i h_i x^(d-i) = sum_i f_{i-1} (x-1)^(d-i),   g_0 = h_0,  g_k = h_k - h_{k-1}

and g determines f back: h_k = g_0 + ... + g_k = h_{d-k} for k <= floor(d/2),
and sum_i f_{i-1} y^(d-i) = sum_i h_i (y+1)^(d-i). Each side is one Horner
pass, O(d^2) additions. The McMullen product f = g . transfer_matrix(d) stays
the definition, kept with the binomial sum for h in tests/oracles.py. A
candidate f-vector belongs to a simplicial d-polytope exactly when its
g-vector is an M-sequence and reproduces f; is_polytopal checks that,
reporting the first failed condition with a witness.
"""

from itertools import accumulate
from typing import NamedTuple, Optional

# binomial is unused here, but bench/tracing.py counts polyvec's calls by patching it by name
from .exactnum import _check_ints, _render, binomial
from .macaulay import MSequenceVerdict, is_m_sequence

__all__ = [
    "FVector",
    "HVector",
    "GVector",
    "FeasibilityVerdict",
    "f_to_h",
    "h_to_g",
    "f_to_g",
    "g_to_f",
    "euler_check",
    "is_polytopal",
]


class FVector(NamedTuple("FVector", [("d", int), ("counts", tuple)])):
    """Face counts (f_0, ..., f_{d-1}) of a candidate simplicial d-polytope."""

    __slots__ = ()

    def __new__(cls, d: int, counts: tuple[int, ...]):
        _check_ints((d,), "FVector: d must be >= 1", least=1)
        counts = tuple(counts)
        if len(counts) != d:
            need = f"d = {_render(d)} entries (f_0..f_{_render(d - 1)})"
            raise ValueError(f"FVector: need exactly {need}, got {len(counts)}")
        _check_ints(counts, "FVector: face counts must be integers >= 1", least=1)
        return super().__new__(cls, d, counts)


class HVector(NamedTuple("HVector", [("d", int), ("values", tuple)])):
    """The full h-vector (h_0, ..., h_d); h_0 = 1 when derived from faces."""

    __slots__ = ()

    def __new__(cls, d: int, values: tuple[int, ...]):
        _check_ints((d,), "HVector: d must be >= 1", least=1)
        values = tuple(values)
        if len(values) != d + 1:
            raise ValueError(f"HVector: need exactly d + 1 = {_render(d + 1)} entries, got {len(values)}")
        _check_ints(values, "HVector: entries must be integers")
        return super().__new__(cls, d, values)


class GVector(NamedTuple("GVector", [("d", int), ("values", tuple)])):
    """The half-vector (g_0, ..., g_{floor(d/2)}) of successive h differences."""

    __slots__ = ()

    def __new__(cls, d: int, values: tuple[int, ...]):
        _check_ints((d,), "GVector: d must be >= 1", least=1)
        values = tuple(values)
        if len(values) != d // 2 + 1:
            need = f"floor(d/2) + 1 = {_render(d // 2 + 1)} entries for d = {_render(d)}"
            raise ValueError(f"GVector: need exactly {need}, got {len(values)}")
        _check_ints(values, "GVector: entries must be integers")
        return super().__new__(cls, d, values)


def _horner(values, s: int) -> list:
    """Coefficients of sum_i values[i] * (x + s)^(n-1-i), highest power first:
    each step multiplies by (x + s), one addition per coefficient, by Horner's rule."""
    c = []
    for v in values:
        c = [a + s * b for a, b in zip(c + [0], [0] + c)]
        c[-1] += v
    return c


def f_to_h(f: FVector) -> HVector:
    """Shift (f_{-1}, f_0, ..., f_{d-1}) by x - 1; h_0 comes out as 1."""
    return HVector(f.d, tuple(_horner((1,) + f.counts, -1)))


def h_to_g(h: HVector) -> GVector:
    """Successive differences of the first half of h, with g_0 = h_0."""
    vals = [h.values[0]]
    for k in range(1, h.d // 2 + 1):
        vals.append(h.values[k] - h.values[k - 1])
    return GVector(h.d, tuple(vals))


def f_to_g(f: FVector) -> GVector:
    return h_to_g(f_to_h(f))


def g_to_f(g: GVector, augmented: bool = False):
    """Recover face counts from g: rebuild the symmetric h, shift it by y + 1.

    Plain form returns the FVector (f_0, ..., f_{d-1}) = g . transfer_matrix(d).
    The augmented form returns the raw tuple (f_{-1}, f_0, ..., f_{d-1}) = g . W,
    W the path matrix of order d+1, whose first entry is g_0; the plain form is
    the augmented one without that entry.
    """
    half = list(accumulate(g.values))
    raw = tuple(_horner([half[min(i, g.d - i)] for i in range(g.d + 1)], 1))
    return raw if augmented else FVector(g.d, raw[1:])


def euler_check(f: FVector) -> bool:
    """True iff the alternating face-count sum vanishes.

    The sum is -f_{-1} + f_0 - f_1 + ... + (-1)^(d-1) f_{d-1} + (-1)^d f_d
    with the implied f_{-1} = f_d = 1.
    """
    total = -1 + sum((-1) ** j * c for j, c in enumerate(f.counts)) + (-1) ** f.d
    return total == 0


class FeasibilityVerdict(NamedTuple):
    """Outcome of is_polytopal, truthy iff the f-vector is realizable.

    failed_condition names the first check that failed, in the fixed
    order euler, g0, nonneg, msequence, reconstruction; witness carries
    the M-sequence violation details when the msequence check is the one
    that failed. n is the vertex count f_0.
    """

    passed: bool
    d: int
    n: int
    g: GVector
    failed_condition: Optional[str] = None
    witness: Optional[MSequenceVerdict] = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json_obj(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "k": self.witness.k,
                "boundary": self.witness.boundary_value,
                "bound": self.witness.bound,
            }
        return {
            "pass": self.passed,
            "d": self.d,
            "n": self.n,
            "g": list(self.g.values),
            "failed_condition": self.failed_condition,
            "witness": w,
        }


def is_polytopal(f: FVector) -> FeasibilityVerdict:
    """Decide whether f is the f-vector of some simplicial d-polytope.

    Checks, in order: the Euler alternating sum, g_0 = 1, nonnegativity
    of every g_k, the M-sequence condition on g, and finally that g
    reproduces f through the transfer matrix (the transform f -> g keeps
    only floor(d/2)+1 numbers, so a candidate can pass every arithmetic
    test on g and still not come from any g; the reconstruction check
    closes that gap). The first failure is reported.
    """
    g = f_to_g(f)
    n = f.counts[0]

    def fail(condition: str, witness: Optional[MSequenceVerdict] = None) -> FeasibilityVerdict:
        return FeasibilityVerdict(False, f.d, n, g, condition, witness)

    if not euler_check(f):
        return fail("euler")
    if g.values[0] != 1:
        return fail("g0")
    if any(v < 0 for v in g.values):
        return fail("nonneg")
    verdict = is_m_sequence(g.values)
    if not verdict:
        return fail("msequence", verdict)
    if g_to_f(g).counts != f.counts:
        return fail("reconstruction")
    # identity of the transform: the degree-1 entry counts vertices beyond
    # the simplex, so a reconstructed f pins g_1 exactly
    assert f.d < 2 or g.values[1] == n - f.d - 1
    return FeasibilityVerdict(True, f.d, n, g)
