"""Independent reference implementations used to derive expected values.

Everything here is deliberately naive: Pascal recursion instead of the
closed form, step-by-step path walking instead of reflection counting,
cofactor expansion instead of elimination, one elimination per minor
instead of building minors from smaller ones, Fraction arc weights
multiplied along the lattice instead of counting paths, every pairing of
sources to sinks tried instead of an anti-diagonal sweep, a linear search
for each binomial expansion term instead of bisection, subset counting
instead of transform algebra, the whole command-line parser for every call
instead of only the named subcommand's. Agreement between these and the
library is the point of most tests, so none of this may import shortcuts
from the package.
"""

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, lcm, prod


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    """Binomial coefficient by the addition rule, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return pascal(n - 1, k - 1) + pascal(n - 1, k)


def count_ballot_paths(m: int, n: int, t: int) -> int:
    """Walk every monotone path (0,0) -> (m,n), skip those touching y - x = t."""

    def walk(x: int, y: int) -> int:
        if y - x == t:
            return 0
        if x == m and y == n:
            return 1
        total = 0
        if x < m:
            total += walk(x + 1, y)
        if y < n:
            total += walk(x, y + 1)
        return total

    return walk(0, 0)


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion, exact over Fraction."""
    rows = [list(r) for r in rows]
    size = len(rows)
    assert all(len(r) == size for r in rows)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def all_minors(rows, order):
    """Every order-by-order minor as (rows, cols, value), lexicographically."""
    return [
        (r, c, cofactor_det([[rows[i][j] for j in c] for i in r]))
        for r in combinations(range(len(rows)), order)
        for c in combinations(range(len(rows[0])), order)
    ]


def minor_scan(rows):
    """(minors checked, least minor, first negative (rows, cols, value) or None).

    Minors are taken in (order, rows, cols) lexicographic order.
    """
    minors = [m for k in range(1, min(len(rows), len(rows[0])) + 1) for m in all_minors(rows, k)]
    negative = [m for m in minors if m[2] < 0]
    return len(minors), min(m[2] for m in minors), negative[0] if negative else None


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def bareiss_scan(rows, max_order=None, tops=None):
    """(minors checked, least minor, first negative (rows, cols, value) or None).

    The per-minor scan: each row is scaled to integers by the lcm of its
    denominators, and each minor up to max_order is one Bareiss elimination
    on its column subset, divided by its rows' scales (an int when that is
    1). Minors are taken in (order, rows, cols) lexicographic order. With
    tops, only the minors whose last line on the longer side (its last column
    if the matrix is wide, else its last row) is in tops are taken.
    """
    ints, scales = [], []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        ints.append([int(Fraction(x) * scale) for x in row])
        scales.append(scale)
    wide = len(rows[0]) > len(rows)
    count, least, first_neg = 0, None, None
    for order in range(1, (max_order or min(len(rows), len(rows[0]))) + 1):
        for r in combinations(range(len(rows)), order):
            scale = prod(scales[i] for i in r)
            for c in combinations(range(len(rows[0])), order):
                if tops is not None and (c if wide else r)[-1] not in tops:
                    continue
                det = bareiss_det([[ints[i][j] for j in c] for i in r])
                value = det if scale == 1 else Fraction(det, scale)
                count += 1
                if least is None or value < least:
                    least = value
                if value < 0 and first_neg is None:
                    first_neg = (r, c, value)
    return count, least, first_neg


def greedy_expansion(value: int, k: int) -> tuple:
    """Greedy k-binomial expansion of value >= 1 as (a, t) pairs.

    Each a is found by stepping up one at a time from t while C(a+1, t)
    still fits in what is left.
    """
    terms = []
    rem, t = value, k
    while rem > 0:
        a = t
        while comb(a + 1, t) <= rem:
            a += 1
        terms.append((a, t))
        rem -= comb(a, t)
        t -= 1
    return tuple(terms)


def face_counts(facets) -> tuple:
    """Count faces of a simplicial complex by dimension, from its facets.

    Returns (number of vertices, number of edges, ...) up to the facet
    dimension; every nonempty subset of a facet is a face.
    """
    facets = [frozenset(f) for f in facets]
    size = max(len(f) for f in facets)
    faces = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            for sub in combinations(sorted(f), r):
                faces.add(frozenset(sub))
    counts = [0] * size
    for face in faces:
        counts[len(face) - 1] += 1
    return tuple(counts)


def region_vertices(n: int) -> set:
    """Integer points with x <= c, y - x <= floor(n/2), x + y >= c.

    c = ceil(n/2) - 1. The scan box is generous on purpose, including
    negative coordinates, so the count is fixed by the inequalities alone.
    """
    c = (n + 1) // 2 - 1
    diag = n // 2
    box = range(-(n + 2), n + 2)
    return {
        (x, y)
        for x in box
        for y in box
        if x <= c and y - x <= diag and x + y >= c
    }


def monotone_paths(vertices, src, dst):
    """All unit-step up/right paths src -> dst staying inside vertices."""
    if src not in vertices or dst not in vertices:
        return []
    out = []

    def walk(v, acc):
        if v == dst:
            out.append(tuple(acc))
            return
        x, y = v
        if x > dst[0] or y > dst[1]:
            return
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in vertices:
                acc.append(nxt)
                walk(nxt, acc)
                acc.pop()

    walk(src, [src])
    return out


def disjoint_families(g, rows, cols) -> list:
    """Vertex-disjoint families joining source rows[t] to sink cols[t] of
    lattice graph g, as tuples of paths in lexicographic order.

    Every pairing of the sources to the sinks is tried over monotone_paths,
    one path at a time, skipping a path that meets one already chosen. A
    disjoint family under any pairing but the identity would contradict
    planarity, so it fails an assertion.
    """
    verts = set(g.vertices)
    paths = [[monotone_paths(verts, g.sources[i], g.sinks[j]) for j in cols] for i in rows]
    found = []

    def extend(perm, acc, used):
        t = len(acc)
        if t == len(rows):
            assert perm == tuple(range(len(rows))), (g.n, rows, cols, perm, acc)
            found.append(tuple(acc))
            return
        for path in paths[t][perm[t]]:
            if not used & set(path):
                extend(perm, acc + [path], used | set(path))

    for perm in permutations(range(len(rows))):
        extend(perm, [], set())
    return sorted(found)


def fraction_path_weight_sums(g, i) -> list:
    """Total Fraction arc weight of all paths from source i of lattice graph g
    to each sink, by dynamic programming in the order x+y ascending, then x."""
    out = {}
    for a in g.arcs:
        out.setdefault(a.tail, []).append(a)
    acc = {g.sources[i]: Fraction(1)}
    for v in sorted(g.vertices, key=lambda p: (p[0] + p[1], p[0])):
        w = acc.get(v)
        if w is None:
            continue
        for a in out.get(v, ()):
            acc[a.head] = acc.get(a.head, Fraction(0)) + w * a.weight
    return [acc.get(dst, Fraction(0)) for dst in g.sinks]


def full_parser_main(cli, argv) -> int:
    """`cli.main(argv)` by the full parser alone: `cli.build_parser()` parses
    every call, then the same dispatch and exit codes as `cli.main`."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cli.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except cli.CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
