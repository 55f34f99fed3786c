"""Exact integer and rational arithmetic helpers.

Python ints are arbitrary precision already, and fractions.Fraction keeps
rationals normalized (lowest terms, positive denominator, equality by
value), so this module only adds the binomial convention, the ballot
path counts and the integer-entry check that the rest of the package
leans on.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = ["Rational", "binomial", "ballot_paths"]

# Exact rational type used throughout the package. Construction normalizes
# eagerly, so equal values always compare and hash equal.
Rational = Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The matrix entry formulas in this package rely on out-of-range
    binomials vanishing silently, so only a negative n is an error.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_ints(values, message: str, least: int | None = None) -> None:
    """Refuse the first entry that is not an int, is a bool, or is below least.

    The ValueError reads f"{message}, got {v!r}" for that entry v.
    """
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or (least is not None and v < least):
            raise ValueError(f"{message}, got {v!r}")


def ballot_paths(m: int, n: int, t: int) -> int:
    """Count monotone paths (0,0) -> (m,n) avoiding the line y = x + t.

    Steps are (1,0) and (0,1); a path is counted when none of its vertices
    satisfies y - x = t. Requires t >= 1. When the endpoint lies on or
    above the line (n - m >= t) every path has to touch it, so the count
    is 0; otherwise the reflection principle pairs the touching paths with
    the C(m+n, n-t) unrestricted paths from (-t, t), giving
    C(m+n, n) - C(m+n, n-t).
    """
    if t <= 0:
        raise ValueError(f"ballot_paths: t must be positive, got {t}")
    if m < 0 or n < 0:
        raise ValueError("ballot_paths: endpoint must lie in the first quadrant")
    if n - m >= t:
        return 0
    return binomial(m + n, n) - binomial(m + n, n - t)
