"""Expected outputs, computed without importing polytnn.

Every check the benchmark makes compares the program's output with a value
derived here from textbook formulas, so a defect shared by two polytnn code
paths cannot also hide in the expectation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def minors_count(rows: int, cols: int) -> int:
    """Number of square submatrices: sum over k of C(rows, k) * C(cols, k)."""
    return sum(comb(rows, k) * comb(cols, k) for k in range(1, min(rows, cols) + 1))


def cofactor_det(m) -> int | Fraction:
    """Determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * a * cofactor_det(minor)
    return total


def submatrix(m, rows, cols):
    return [[m[i][j] for j in cols] for i in rows]


def minors_before(m, rows, cols):
    """Every minor that a lexicographic scan (order, row set, column set) visits
    before the one on (rows, cols)."""
    target = (len(rows), tuple(rows), tuple(cols))
    for k in range(1, len(rows) + 1):
        for r in combinations(range(len(m)), k):
            for c in combinations(range(len(m[0])), k):
                if (k, r, c) >= target:
                    return
                yield r, c, cofactor_det(submatrix(m, r, c))


def transfer_entries(d: int):
    """Transfer matrix of dimension d: C(d+1-i, d-j) - C(i, d-j)."""
    return [[comb(d + 1 - i, d - j) - comb(i, d - j) for j in range(d)] for i in range(d // 2 + 1)]


def path_entry(n: int, i: int, j: int) -> int:
    """Path-matrix entry: weighted lattice paths from source i to sink j."""
    return 0 if i > j else comb(n - i, n - j) - comb(i, n - j)


def path_entries(n: int):
    return [[path_entry(n, i, j) for j in range(n)] for i in range((n + 1) // 2)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _largest_a(m: int, t: int) -> int:
    """Largest a with C(a, t) <= m, for m >= 1, by doubling then bisection."""
    lo, hi = t, 2 * t
    while comb(hi, t) <= m:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, t) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_boundary(m: int, k: int) -> int:
    """The k-boundary of m from its greedy k-binomial expansion."""
    total = 0
    t = k
    while m > 0:
        a = _largest_a(m, t)
        total += comb(a - 1, t - 1)
        m -= comb(a, t)
        t -= 1
    return total


def max_next(prev: int, k: int) -> int:
    """Largest m with boundary(m, k) <= prev, for k >= 2 (the boundary is monotone)."""
    lo, hi = 0, 1
    while macaulay_boundary(hi, k) <= prev:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if macaulay_boundary(mid, k) <= prev:
            lo = mid
        else:
            hi = mid
    return lo


def msequence_text(seq) -> str:
    """The `polytnn msequence` text report for seq."""
    if seq[0] != 1:
        return "false, k=0\n"
    for k in range(1, len(seq)):
        b = macaulay_boundary(seq[k], k)
        if b > seq[k - 1]:
            return f"false, k={k}, boundary={b}, bound={seq[k - 1]}\n"
    return "true\n"


def h_from_g(g, d: int):
    """Full h-vector: partial sums of g up to d//2, then Dehn-Sommerville symmetry."""
    half = [sum(g[: i + 1]) for i in range(d // 2 + 1)]
    return half + [half[d - i] for i in range(d // 2 + 1, d + 1)]


def f_from_h(h, d: int):
    """f_{j-1} = sum_{i<=j} C(d-i, j-i) h_i for j = 1..d."""
    return [sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)]


def f_from_g(g, d: int):
    return f_from_h(h_from_g(g, d), d)


def cyclic_g(n: int, d: int):
    """g-vector of the cyclic d-polytope on n vertices: g_k = C(n-d-2+k, k)."""
    return [comb(n - d - 2 + k, k) for k in range(d // 2 + 1)]


def csv(values) -> str:
    return ",".join(str(v) for v in values)
