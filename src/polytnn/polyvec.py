"""f-, h-, and g-vector transforms for simplicial d-polytopes.

A simplicial d-polytope with f_i faces of dimension i (with the implied
conventions f_{-1} = f_d = 1, never stored) determines

    h_i = sum_{j=0}^{i} (-1)^(i+j) C(d-j, i-j) f_{j-1}      for i = 0..d
    g_0 = h_0,  g_k = h_k - h_{k-1}                         for k = 1..floor(d/2)

and the half-vector g determines f back through the transfer matrix:
f = g . M with M = transfer_matrix(d), or (f_{-1}, f_0, ..., f_{d-1}) =
g . W with W = path_matrix(d+1) in the augmented form. A candidate
f-vector belongs to a simplicial d-polytope exactly when its g-vector is
an M-sequence and reproduces f; is_polytopal checks that, reporting the
first failed condition with a witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exactnum import binomial
from .macaulay import MSequenceVerdict, is_m_sequence
from .transfer import path_matrix

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


def _check_ints(what: str, values: tuple) -> None:
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what}: entries must be integers, got {v!r}")


class FVector(NamedTuple("FVector", [("d", int), ("counts", tuple)])):
    """Face counts (f_0, ..., f_{d-1}) of a candidate simplicial d-polytope."""

    __slots__ = ()

    def __new__(cls, d: int, counts: tuple[int, ...]):
        if d < 1:
            raise ValueError(f"FVector: d must be >= 1, got {d}")
        counts = tuple(counts)
        if len(counts) != d:
            raise ValueError(f"FVector: need exactly d = {d} entries (f_0..f_{d - 1}), got {len(counts)}")
        for c in counts:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"FVector: face counts must be integers >= 1, got {c!r}")
        return super().__new__(cls, d, counts)


class HVector(NamedTuple("HVector", [("d", int), ("values", tuple)])):
    """The full h-vector (h_0, ..., h_d); h_0 = 1 when derived from faces."""

    __slots__ = ()

    def __new__(cls, d: int, values: tuple[int, ...]):
        if d < 1:
            raise ValueError(f"HVector: d must be >= 1, got {d}")
        values = tuple(values)
        if len(values) != d + 1:
            raise ValueError(f"HVector: need exactly d + 1 = {d + 1} entries, got {len(values)}")
        _check_ints("HVector", values)
        return super().__new__(cls, d, values)


class GVector(NamedTuple("GVector", [("d", int), ("values", tuple)])):
    """The half-vector (g_0, ..., g_{floor(d/2)}) of successive h differences."""

    __slots__ = ()

    def __new__(cls, d: int, values: tuple[int, ...]):
        if d < 1:
            raise ValueError(f"GVector: d must be >= 1, got {d}")
        values = tuple(values)
        if len(values) != d // 2 + 1:
            raise ValueError(
                f"GVector: need exactly floor(d/2) + 1 = {d // 2 + 1} entries for d = {d}, got {len(values)}"
            )
        _check_ints("GVector", values)
        return super().__new__(cls, d, values)


def f_to_h(f: FVector) -> HVector:
    """Apply the alternating binomial transform; h_0 comes out as 1."""
    d = f.d

    def face_count(j: int) -> int:
        return 1 if j == 0 else f.counts[j - 1]

    values = tuple(
        sum((-1) ** (i + j) * binomial(d - j, i - j) * face_count(j) for j in range(i + 1))
        for i in range(d + 1)
    )
    return HVector(d, values)


def h_to_g(h: HVector) -> GVector:
    """Successive differences of the first half of h, with g_0 = h_0."""
    vals = [h.values[0]]
    for k in range(1, h.d // 2 + 1):
        vals.append(h.values[k] - h.values[k - 1])
    return GVector(h.d, tuple(vals))


def f_to_g(f: FVector) -> GVector:
    return h_to_g(f_to_h(f))


def g_to_f(g: GVector, augmented: bool = False):
    """Multiply g by the transfer matrix to recover face counts.

    Plain form returns the FVector (f_0, ..., f_{d-1}) = g . M. The
    augmented form multiplies by the path matrix of order d+1 instead and
    returns the raw tuple (f_{-1}, f_0, ..., f_{d-1}), whose first entry
    equals g_0; the transfer matrix is the path matrix without column 0,
    so the plain form is the augmented one without that entry.
    """
    w = path_matrix(g.d + 1)
    raw = tuple(
        sum(x * row[j] for x, row in zip(g.values, w.entries)) for j in range(g.d + 1)
    )
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
