"""Weighted planar lattice graphs and non-intersecting path families.

For n >= 2, let c = ceil(n/2) - 1. The graph of order n has vertex set

    {(x, y) in Z^2 : x <= c,  y - x <= floor(n/2),  x + y >= c}

with horizontal arcs (x,y) -> (x+1,y) of weight 1 and vertical arcs
(x,y) -> (x,y+1) of weight w_y = (n-y)/(y+1) = C(n,y+1)/C(n,y), arcs kept
only when both endpoints lie in the vertex set. Source i sits at
(c - i, i) for i = 0..c, sink j at (c, j) for j = 0..n-1. The sum of path
weights from source i to sink j equals the path-matrix entry of module
transfer, and a minor of that matrix on rows I and columns J equals the
total weight of all families of pairwise vertex-disjoint paths joining
source I_t to sink J_t. Since every arc weight is positive, that sum is
visibly nonnegative, which is the whole certificate: the families prove
the minor nonnegative without computing a determinant.

A path from source i to sink j climbs heights i..j-1 once each, so its
weight telescopes to C(n,j)/C(n,i) whatever its route. Every family on
rows I and columns J therefore weighs prod C(n,J) / prod C(n,I), and the
minor is that constant times the number of families, which an integer
sweep over the anti-diagonals counts without listing them.

The path count and the vertex set walk each column x over its heights
c-x..x+floor(n/2); the other path kernels test points with _inside(n, x, y).
A LatticeGraph is just its order: its vertices and Fraction arcs are built
on first read, for output only, and GRAPH_BUDGET refuses that build.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import permutations, product
from math import prod
from typing import NamedTuple, Sequence

from .errors import BudgetExceededError, CrossCheckError
from .exactnum import binomial
from .transfer import path_weight_closed_form

__all__ = [
    "Arc",
    "LatticeGraph",
    "PathFamily",
    "lattice_graph",
    "vertical_weight",
    "path_weight_sum",
    "path_weight_closed_form",
    "check_minor",
    "nonintersecting_families",
    "minor_via_lgv",
    "export_dot",
    "graph_json_obj",
    "FAMILY_MAX_ORDER",
    "FAMILY_MAX_N",
    "GRAPH_BUDGET",
]

Vertex = tuple[int, int]

GRAPH_BUDGET = 25_000  # most vertices LatticeGraph.vertices builds; n = 315 has 24,964

# family enumeration is exponential in principle; these bounds keep every
# in-contract call comfortably fast and anything bigger errors out
FAMILY_MAX_ORDER = 3
FAMILY_MAX_N = 10


class Arc(NamedTuple):
    tail: Vertex
    head: Vertex
    weight: Fraction


def vertical_weight(n: int, y: int) -> Fraction:
    """Weight w_y = (n-y)/(y+1) of the vertical arc leaving height y."""
    return Fraction(n - y, y + 1)


def _inside(n: int, x: int, y: int) -> bool:
    """Whether (x, y) is a vertex of the graph of order n."""
    c = (n + 1) // 2 - 1
    return x <= c and y - x <= n // 2 and x + y >= c


def _vertex_count(n: int) -> int:
    """Vertices of the graph of order n: column x = 0..c holds heights
    c-x..x+floor(n/2), 2x + floor(n/2) - c + 1 of them, which sum to this."""
    return ((n + 1) // 2) * (n // 2 + 1)


class LatticeGraph(NamedTuple("LatticeGraph", [("n", int)])):
    """The graph of order n; no __slots__, so the cached vertices and arcs
    have a __dict__ to live in."""

    @property
    def corner(self) -> int:
        """c = ceil(n/2) - 1: the sink column, also the lowest anti-diagonal."""
        return (self.n + 1) // 2 - 1

    @property
    def sources(self) -> tuple[Vertex, ...]:
        c = self.corner
        return tuple((c - i, i) for i in range(c + 1))

    @property
    def sinks(self) -> tuple[Vertex, ...]:
        return tuple((self.corner, j) for j in range(self.n))

    @cached_property
    def vertices(self) -> frozenset:
        """Built on first read; past GRAPH_BUDGET, BudgetExceededError."""
        n, c = self.n, self.corner
        if _vertex_count(n) > GRAPH_BUDGET:
            raise BudgetExceededError(
                f"the lattice graph of order {n} has {_vertex_count(n)} vertices, "
                f"over the budget of {GRAPH_BUDGET}"
            )
        return frozenset((x, y) for x in range(c + 1) for y in range(c - x, x + n // 2 + 1))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, sorted by (tail, head): from each tail, up then right."""
        arcs = []
        for x, y in sorted(self.vertices):
            if _inside(self.n, x, y + 1):
                arcs.append(Arc((x, y), (x, y + 1), vertical_weight(self.n, y)))
            if _inside(self.n, x + 1, y):
                arcs.append(Arc((x, y), (x + 1, y), Fraction(1)))
        return tuple(arcs)


def lattice_graph(n: int) -> LatticeGraph:
    """The weighted lattice graph of order n >= 2, with nothing built yet."""
    if n < 2:
        raise ValueError(f"lattice_graph: n must be >= 2, got {n}")
    return LatticeGraph(n)


def _check_indices(n: int, i: int, j: int) -> None:
    corner = (n + 1) // 2 - 1
    if not 0 <= i <= corner:
        raise ValueError(f"source index out of range: i = {i}, valid 0..{corner}")
    if not 0 <= j <= n - 1:
        raise ValueError(f"sink index out of range: j = {j}, valid 0..{n - 1}")


def _weighted(count: int, n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """count paths or families on (rows, cols) times the weight of each,
    prod C(n,J) / prod C(n,I): an integer, which is checked, not assumed."""
    num = count * prod(binomial(n, j) for j in cols)
    den = prod(binomial(n, i) for i in rows)
    if num % den:
        raise CrossCheckError(
            f"n={n}, rows={rows}, cols={cols}: lgv weight {Fraction(num, den)} is not an integer"
        )
    return num // den


def path_weight_sum(g: LatticeGraph, i: int, j: int) -> int:
    """Exact total weight of all paths from source i to sink j.

    Every such path climbs heights i..j-1 once, so its weight is
    C(n,j)/C(n,i) whatever its route: the sum is the number of paths (an
    integer dynamic program over the region) times that ratio.
    """
    _check_indices(g.n, i, j)
    (x0, y0), (x1, y1) = g.sources[i], g.sinks[j]
    n, c = g.n, g.corner
    count = {(x0, y0): 1}
    for x in range(x0, x1 + 1):
        for y in range(max(y0, c - x), min(y1, x + n // 2) + 1):  # column x's heights in the region
            if (x, y) != (x0, y0):
                count[x, y] = count.get((x - 1, y), 0) + count.get((x, y - 1), 0)
    return _weighted(count.get((x1, y1), 0), g.n, [i], [j])


def _paths(g: LatticeGraph, src: Vertex, dst: Vertex) -> tuple[tuple[Vertex, ...], ...]:
    """All monotone paths src -> dst inside the region, as vertex tuples."""
    found: list[tuple[Vertex, ...]] = []

    def walk(v: Vertex, acc: list[Vertex]) -> None:
        if v == dst:
            found.append(tuple(acc))
            return
        x, y = v
        if x > dst[0] or y > dst[1]:
            return
        for nxt in ((x, y + 1), (x + 1, y)):
            if _inside(g.n, *nxt):
                acc.append(nxt)
                walk(nxt, acc)
                acc.pop()

    walk(src, [src])
    return tuple(found)


class PathFamily(NamedTuple):
    """Pairwise vertex-disjoint paths, one per (source, sink) pair, with weight."""

    paths: tuple[tuple[Vertex, ...], ...]
    weight: Fraction


def check_minor(n: int, rows: Sequence[int], cols: Sequence[int]) -> None:
    """Raise ValueError for a malformed minor of the graph of order n, then
    BudgetExceededError past the family budget."""
    if len(rows) != len(cols):
        raise ValueError("rows and cols must have the same length")
    if not rows:
        raise ValueError("rows and cols must be nonempty")
    if any(b <= a for seq in (rows, cols) for a, b in zip(seq, seq[1:])):
        raise ValueError("rows and cols must be strictly increasing")
    for i in rows:
        _check_indices(n, i, 0)
    for j in cols:
        _check_indices(n, 0, j)
    if len(rows) > FAMILY_MAX_ORDER or n > FAMILY_MAX_N:
        raise BudgetExceededError(
            f"family enumeration budget is order <= {FAMILY_MAX_ORDER} and n <= {FAMILY_MAX_N}; "
            f"got order {len(rows)}, n {n}"
        )


def nonintersecting_families(
    g: LatticeGraph, rows: Sequence[int], cols: Sequence[int]
) -> list[PathFamily]:
    """All vertex-disjoint path families joining source rows[t] to sink cols[t].

    Planarity forces the identity pairing: for any other assignment of
    sources to sinks two paths would have to cross, hence share a vertex.
    The enumeration checks every pairing anyway and treats a disjoint
    family under a non-identity pairing as a hard internal error, turning
    the proof fact into a runtime invariant.
    """
    rows, cols = list(rows), list(cols)
    check_minor(g.n, rows, cols)
    k = len(rows)
    weight = Fraction(prod(binomial(g.n, j) for j in cols), prod(binomial(g.n, i) for i in rows))
    plists = [[_paths(g, g.sources[i], g.sinks[j]) for j in cols] for i in rows]
    psets = [[[frozenset(p) for p in pl] for pl in row] for row in plists]

    identity: list[PathFamily] = []
    for perm in permutations(range(k)):
        is_identity = perm == tuple(range(k))

        def extend(t: int, used: frozenset, acc: list) -> None:
            if t == k:
                if is_identity:
                    identity.append(PathFamily(tuple(acc), weight))
                    return
                raise CrossCheckError(
                    f"disjoint path family under non-identity pairing {perm} "
                    f"(n={g.n}, rows={rows}, cols={cols})"
                )
            for p, s in zip(plists[t][perm[t]], psets[t][perm[t]]):
                if not (s & used):
                    acc.append(p)
                    extend(t + 1, used | s, acc)
                    acc.pop()

        extend(0, frozenset(), [])
    return identity


def _count_families(n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Number of vertex-disjoint families joining source rows[t] to sink cols[t].

    A sweep over the anti-diagonals x + y = s, never listing a family. A
    state is the x-positions of the live paths on diagonal s, strictly
    decreasing (path 0 first), with the number of ways to reach it. Every
    path meets each diagonal once, so disjoint paths are distinct heads on
    every diagonal. Sources lie on s = c; sink j is (c, j), on s = c + j,
    where path t must sit at x = c and is retired.
    """
    c, k = (n + 1) // 2 - 1, len(rows)
    states = {tuple(c - i for i in rows): 1}
    retired, s = 0, c
    while True:
        while retired < k and s == c + cols[retired]:
            states = {xs[1:]: m for xs, m in states.items() if xs[0] == c}
            retired += 1
        if retired == k or not states:
            return states.get((), 0)
        s += 1
        moved: dict[tuple[int, ...], int] = {}
        for xs, m in states.items():
            steps = [[x2 for x2 in (x, x + 1) if _inside(n, x2, s - x2)] for x in xs]
            for heads in product(*steps):
                if all(a > b for a, b in zip(heads, heads[1:])):
                    moved[heads] = moved.get(heads, 0) + m
                elif len(set(heads)) == len(heads):
                    raise CrossCheckError(
                        f"disjoint paths out of order on x+y={s} "
                        f"(n={n}, rows={rows}, cols={cols})"
                    )
        states = moved


def minor_via_lgv(g: LatticeGraph, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Minor of the path-weight matrix as a sum of disjoint-family weights.

    Equals the determinant of the corresponding submatrix of the path
    matrix, and is nonnegative term by term since arc weights are positive.
    Every family has the same weight, so the sum is their number times it.
    """
    rows, cols = list(rows), list(cols)
    check_minor(g.n, rows, cols)
    return _weighted(_count_families(g.n, rows, cols), g.n, rows, cols)


def export_dot(g: LatticeGraph) -> str:
    """Graphviz DOT text; deterministic, vertical arcs labeled with w_y."""
    lines = [f"digraph lattice{g.n} {{"]
    for v in sorted(g.vertices):
        lines.append(f'  "({v[0]},{v[1]})";')
    for a in g.arcs:
        tail = f'"({a.tail[0]},{a.tail[1]})"'
        head = f'"({a.head[0]},{a.head[1]})"'
        label = f' [label="{a.weight}"]' if a.head[0] == a.tail[0] else ""
        lines.append(f"  {tail} -> {head}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json_obj(g: LatticeGraph) -> dict:
    """JSON-ready dict {n, vertices, arcs} with exact rational weights."""
    return {
        "n": g.n,
        "vertices": [list(v) for v in sorted(g.vertices)],
        "arcs": [
            {
                "from": list(a.tail),
                "to": list(a.head),
                "weight_num": a.weight.numerator,
                "weight_den": a.weight.denominator,
            }
            for a in g.arcs
        ],
    }
