"""Greedy k-binomial expansions, the k-boundary operator, and M-sequence tests.

Every integer m >= 1 has a unique expansion

    m = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_s, s)

with a_k > a_{k-1} > ... > a_s >= s >= 1, found greedily by taking the
largest admissible binomial at each level. The k-boundary of m replaces
each C(a, t) in that expansion with C(a-1, t-1). A sequence
(n_0, n_1, ...) of nonnegative integers is an M-sequence when n_0 = 1 and
boundary(n_k, k) <= n_{k-1} for every k >= 1. Macaulay's theorem makes
this equivalent to the sequence being the degree-count profile of some
multicomplex (a set of monomials closed under divisibility);
oracle_is_m_sequence checks that characterization directly by exhaustive
search and exists to keep the fast arithmetic test honest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetExceededError
from .exactnum import _check_ints, binomial

__all__ = [
    "MacaulayExpansion",
    "MSequenceVerdict",
    "macaulay_expand",
    "boundary",
    "is_m_sequence",
    "oracle_is_m_sequence",
]

# The multicomplex search refuses once it has tested more monomials than this.
ORACLE_WORK_CAP = 1_000_000


class MacaulayExpansion(NamedTuple):
    """The greedy k-binomial expansion of a positive integer.

    terms holds (a, idx) pairs meaning C(a, idx), with idx strictly
    decreasing from k, each idx >= 1, the a values strictly decreasing,
    and a >= idx throughout.
    """

    k: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(binomial(a, t) for a, t in self.terms)


def macaulay_expand(value: int, k: int) -> MacaulayExpansion:
    """Greedy k-binomial expansion of value >= 1.

    value = 0 is rejected here; boundary() handles it directly as the
    empty expansion.
    """
    if k < 1:
        raise ValueError(f"macaulay_expand: k must be >= 1, got {k}")
    if value < 1:
        raise ValueError(f"macaulay_expand: value must be >= 1, got {value}")
    terms = []
    rem = value
    t = k
    while rem > 0:
        # largest a with C(a, t) <= rem: double hi until C(hi, t) > rem, then
        # bisect keeping C(a, t) <= rem < C(hi, t); the greedy choice keeps
        # both the a values and the indices strictly decreasing
        a, hi = t, t + 1
        while binomial(hi, t) <= rem:
            a, hi = hi, 2 * hi
        while hi - a > 1:
            mid = (a + hi) // 2
            a, hi = (mid, hi) if binomial(mid, t) <= rem else (a, mid)
        terms.append((a, t))
        rem -= binomial(a, t)
        t -= 1
    return MacaulayExpansion(k, tuple(terms))


def boundary(value: int, k: int) -> int:
    """The k-boundary: each C(a, t) of the expansion becomes C(a-1, t-1)."""
    if k < 1:
        raise ValueError(f"boundary: k must be >= 1, got {k}")
    if value < 0:
        raise ValueError(f"boundary: value must be >= 0, got {value}")
    if value == 0:
        return 0
    return sum(binomial(a - 1, t - 1) for a, t in macaulay_expand(value, k).terms)


class MSequenceVerdict(NamedTuple):
    """Outcome of is_m_sequence, truthy iff the sequence passed.

    On failure, k is the first violating index (0 when n_0 != 1),
    boundary_value is boundary(n_k, k) and bound is the n_{k-1} it had to
    stay within; the k = 0 failure carries no boundary data.
    """

    ok: bool
    k: Optional[int] = None
    boundary_value: Optional[int] = None
    bound: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def is_m_sequence(seq: Sequence[int]) -> MSequenceVerdict:
    """Test n_0 = 1 and boundary(n_k, k) <= n_{k-1} for all k >= 1."""
    seq = list(seq)
    if not seq:
        raise ValueError("is_m_sequence: sequence must be nonempty")
    _check_ints(seq, "is_m_sequence: entries must be nonnegative integers", least=0)
    if seq[0] != 1:
        return MSequenceVerdict(False, k=0)
    for k in range(1, len(seq)):
        b = boundary(seq[k], k)
        if b > seq[k - 1]:
            return MSequenceVerdict(False, k=k, boundary_value=b, bound=seq[k - 1])
    return MSequenceVerdict(True)


@lru_cache(maxsize=None)
def _monomials(v: int, k: int) -> tuple[tuple[tuple, tuple], ...]:
    """Degree-k monomials on v variables, k >= 1, each with its divisors.

    A monomial is a tuple of (variable, exponent) pairs, variables ascending
    and exponents positive, so it holds at most min(v, k) pairs however
    large v or k is. The monomials come in lexicographically descending
    order of their exponent vectors.
    """

    def spread(low, k):
        # the degree-k monomials in the variables low..v-1; the last variable
        # can only take the whole degree, so no branch comes back empty
        for i in range(low, v):
            yield ((i, k),)
            for e in range(k - 1, 0, -1) if i < v - 1 else ():
                for rest in spread(i + 1, k - e):
                    yield ((i, e),) + rest

    def divisors(m):
        # one exponent lowered by one, its variable dropped when that leaves 0
        return tuple(m[:j] + (((i, e - 1),) if e > 1 else ()) + m[j + 1:] for j, (i, e) in enumerate(m))

    return tuple((m, divisors(m)) for m in spread(0, k))


def oracle_is_m_sequence(seq: Sequence[int], max_vars: int) -> bool:
    """Exhaustively search for a multicomplex with the given degree counts.

    Returns True iff some set of monomials on at most max_vars variables,
    closed under divisibility, has exactly seq[k] monomials in each degree
    k. The candidate sets at each degree are enumerated in graded
    lexicographic order (degree ascending, lex descending within a
    degree), so the search is deterministic. A variable occurring anywhere
    must itself appear in degree 1, so the effective variable count is
    min(max_vars, n_1); passing a larger max_vars does not change the
    answer. A zero count followed by a nonzero one is rejected before any
    search, by division closure. Each time the search reaches a degree k
    it counts all C(v+k-1, k) monomials of that degree as tested, before it
    lists them, and it raises BudgetExceededError once the count passes
    ORACLE_WORK_CAP. It never returns a wrong answer.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("oracle_is_m_sequence: sequence must be nonempty")
    _check_ints(seq, "oracle_is_m_sequence: entries must be nonnegative integers", least=0)
    if max_vars < 0:
        raise ValueError(f"oracle_is_m_sequence: max_vars must be >= 0, got {max_vars}")
    # a multicomplex is nonempty and division-closed, so it contains the
    # unit monomial and its degree-0 count is exactly 1
    if seq[0] != 1:
        return False
    # every monomial of degree k+1 has a divisor of degree k, so a multicomplex
    # with no monomial of degree k has none of any higher degree either
    if 0 in seq and any(seq[seq.index(0):]):
        return False
    v = min(max_vars, seq[1]) if len(seq) > 1 else 0
    tested = 0
    # stack[j] yields the untried candidate sets of degree j, degree 0 only
    # the unit monomial; a stack, not recursion, so that a long sequence
    # cannot exhaust the recursion limit
    stack = [iter([((),)])]
    while stack:
        chosen = next(stack[-1], None)
        if chosen is None:
            stack.pop()
            continue
        k = len(stack)
        # past the prune a zero count is followed only by zeros, which the
        # empty set meets in every later degree
        if k == len(seq) or seq[k] == 0:
            return True
        tested += binomial(v + k - 1, k)
        if tested > ORACLE_WORK_CAP:
            raise BudgetExceededError(
                f"oracle infeasible: reaching degree {k} takes the search past "
                f"its budget of {ORACLE_WORK_CAP} monomial tests"
            )
        prev = frozenset(chosen)
        avail = [m for m, divisors in _monomials(v, k) if prev.issuperset(divisors)]
        stack.append(combinations(avail, seq[k]))
    return False
