"""Exact integer and rational arithmetic helpers.

Python ints are arbitrary precision already, and fractions.Fraction keeps
rationals normalized (lowest terms, positive denominator, equality by
value), so this module only adds the binomial convention, the ballot
path counts and the integer-entry check that the rest of the package
leans on, and the one rule for writing a number into a message (_render).
"""

import sys
from math import comb

from .errors import BudgetExceededError

__all__ = ["Rational", "binomial", "ballot_paths"]


def __getattr__(name: str):
    # Rational, the exact rational type used throughout the package, is fractions.Fraction,
    # imported on first use. Construction normalizes eagerly, so equal values always
    # compare and hash equal.
    if name == "Rational":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The matrix entry formulas in this package rely on out-of-range
    binomials vanishing silently, so only a negative n is an error.
    """
    _check_ints((n,), "binomial: n must be nonnegative", least=0)
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _render(x) -> str:
    """repr(x), except that an int the interpreter's int-to-str cap refuses reads as its
    digit count, <4401 digits> (-<4401 digits> below 0), so no message trips the cap."""
    cap, m = sys.get_int_max_str_digits(), abs(x) if isinstance(x, int) else 0
    if not cap or m < 10**cap:
        return repr(x)
    n = m.bit_length() * 3010299 // 10**7  # at most m's digit count: log10(2) > 0.3010299
    while m >= 10**n:
        n += 1
    return f"{'-' * (x < 0)}<{n} digits>"


def _refuse(template: str, *numbers) -> BudgetExceededError:
    """The budget refusal template.format(*numbers), each number through _render."""
    return BudgetExceededError(template.format(*map(_render, numbers)))


def _check_ints(values, message: str, least: int | None = None, most: int | None = None, types=int) -> None:
    """Raise ValueError(f"{message}, got {v}") for the first entry v that is not of types, is
    a bool, or lies outside least..most (a bound of None is no bound). Only then are v and
    the {least} and {most} of message filled in, through _render."""
    for v in values:
        wrong = not isinstance(v, types) or isinstance(v, bool) or (least is not None and v < least)
        if wrong or (most is not None and v > most):
            raise ValueError(f"{message.format(least=_render(least), most=_render(most))}, got {_render(v)}")


def ballot_paths(m: int, n: int, t: int) -> int:
    """Count monotone paths (0,0) -> (m,n) avoiding the line y = x + t.

    Steps are (1,0) and (0,1); a path is counted when none of its vertices
    satisfies y - x = t. Requires t >= 1. When the endpoint lies on or
    above the line (n - m >= t) every path has to touch it, so the count
    is 0; otherwise the reflection principle pairs the touching paths with
    the C(m+n, n-t) unrestricted paths from (-t, t), giving
    C(m+n, n) - C(m+n, n-t).
    """
    _check_ints((t,), "ballot_paths: t must be positive", least=1)
    _check_ints((m, n), "ballot_paths: endpoint must lie in the first quadrant", least=0)
    if n - m >= t:
        return 0
    return binomial(m + n, n) - binomial(m + n, n - t)
