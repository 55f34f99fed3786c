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
minor is that constant times the number of families. One sweep over the
anti-diagonals counts paths and families and lists families; disjoint
paths that change order would cross, which planarity rules out.

The sweep tests points with _inside(n, x, y); the vertex set walks each
column x over its heights c-x..x+floor(n/2).
A LatticeGraph is just its order: its vertices and Fraction arcs are built
on first read, for output only, and GRAPH_BUDGET refuses that build.
"""

from functools import cached_property
from math import prod
from typing import NamedTuple, Sequence

from .errors import CrossCheckError
from .exactnum import _check_ints, _refuse, _render, binomial
# unused here, but the lgv-certify benchmark reads lgv.path_weight_closed_form
from .transfer import path_weight_closed_form

__all__ = [
    "Arc",
    "LatticeGraph",
    "PathFamily",
    "lattice_graph",
    "vertical_weight",
    "path_weight_sum",
    "nonintersecting_families",
    "minor_via_lgv",
    "export_dot",
    "graph_json_obj",
]

Vertex = tuple[int, int]

GRAPH_BUDGET = 25_000  # most vertices LatticeGraph.vertices builds; n = 315 has 24,964

# check_minor's bounds on a family listing (which can grow exponentially) and
# on minor_via_lgv; path_weight_sum, one path, is not bounded by them
FAMILY_MAX_ORDER = 3
FAMILY_MAX_N = 10

# the most n * (min(i, j - i) + 1) path_weight_sum takes: its sweep holds at most min(i, j - i) + 1
# head positions on each of its j < n anti-diagonals. At the edge, n = 200,000 with i = 0 and
# j = n // 2 took 0.6 s on a 2-vCPU VM, nearly all of it in C(n, j)
PATH_SUM_BUDGET = 200_000


class Arc(NamedTuple):
    tail: Vertex
    head: Vertex
    weight: "Fraction"


def vertical_weight(n: int, y: int) -> "Fraction":
    """Weight w_y = (n-y)/(y+1) of the vertical arc leaving height y."""
    from fractions import Fraction

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
            text = "the lattice graph of order {} has {} vertices, over the budget of {}"
            raise _refuse(text, n, _vertex_count(n), GRAPH_BUDGET)
        return frozenset((x, y) for x in range(c + 1) for y in range(c - x, x + n // 2 + 1))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, sorted by (tail, head): from each tail, up then right."""
        from fractions import Fraction

        arcs = []
        for x, y in sorted(self.vertices):
            if _inside(self.n, x, y + 1):
                arcs.append(Arc((x, y), (x, y + 1), vertical_weight(self.n, y)))
            if _inside(self.n, x + 1, y):
                arcs.append(Arc((x, y), (x + 1, y), Fraction(1)))
        return tuple(arcs)


def lattice_graph(n: int) -> LatticeGraph:
    """The weighted lattice graph of order n >= 2, with nothing built yet."""
    _check_ints((n,), "lattice_graph: n must be >= 2", least=2)
    return LatticeGraph(n)


def _check_indices(n: int, i: int, j: int) -> None:
    _check_ints((i, j), "source and sink indices must be integers")
    corner = (n + 1) // 2 - 1
    if not 0 <= i <= corner:
        raise ValueError(f"source index out of range: i = {_render(i)}, valid 0..{_render(corner)}")
    if not 0 <= j <= n - 1:
        raise ValueError(f"sink index out of range: j = {_render(j)}, valid 0..{_render(n - 1)}")


def _family_weight(n: int, rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """(prod C(n,J), prod C(n,I)), whose ratio weighs every path or family on (rows, cols)."""
    return prod(binomial(n, j) for j in cols), prod(binomial(n, i) for i in rows)


def _weighted(count: int, n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """count paths or families on (rows, cols) times the weight of each: an integer, checked."""
    num, den = _family_weight(n, rows, cols)
    num *= count
    if num % den:
        from fractions import Fraction

        raise CrossCheckError(f"n={n}, rows={rows}, cols={cols}: lgv weight {Fraction(num, den)} is not an integer")
    return num // den


def path_weight_sum(g: LatticeGraph, i: int, j: int) -> int:
    """Exact total weight of all paths from source i to sink j.

    Every such path climbs heights i..j-1 once, so its weight is
    C(n,j)/C(n,i) whatever its route: the sum is the number of paths (the
    family sweep for one path, with no family budget) times that ratio.
    Past PATH_SUM_BUDGET, BudgetExceededError.
    """
    _check_indices(g.n, i, j)
    heads = min(i, j - i) + 1
    if g.n * heads > PATH_SUM_BUDGET:
        text = "the path sum from source {} to sink {} of order {} sweeps up to {} x {} head positions"
        raise _refuse(text + ", over the budget of {}", i, j, g.n, g.n, heads, PATH_SUM_BUDGET)
    return _weighted(_count_families(g.n, [i], [j]), g.n, [i], [j])


class PathFamily(NamedTuple):
    """Pairwise vertex-disjoint paths, one per (source, sink) pair, with weight."""

    paths: tuple[tuple[Vertex, ...], ...]
    weight: "Fraction"


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
        text = "family enumeration budget is order <= {} and n <= {}; got order {}, n {}"
        raise _refuse(text, FAMILY_MAX_ORDER, FAMILY_MAX_N, len(rows), n)


def nonintersecting_families(
    g: LatticeGraph, rows: Sequence[int], cols: Sequence[int]
) -> list[PathFamily]:
    """All vertex-disjoint path families joining source rows[t] to sink cols[t].

    The sweep that counts them lists them, in lexicographic order of their
    vertex tuples: where two paths part, the step up (x, y+1) comes first.
    """
    rows, cols = list(rows), list(cols)
    check_minor(g.n, rows, cols)
    from fractions import Fraction

    weight, start = Fraction(*_family_weight(g.n, rows, cols)), [tuple((g.sources[i],) for i in rows)]
    families = _sweep(g.n, rows, cols, start, _extend).get((), [])
    return [PathFamily(paths, weight) for paths in sorted(families)]


def _extend(families: list, p: int, x: int, s: int) -> list:
    """Each partial family with its path p moved to (x, s - x)."""
    return [fam[:p] + (fam[p] + ((x, s - x),),) + fam[p + 1 :] for fam in families]


def _count_families(n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Number of vertex-disjoint families joining source rows[t] to sink cols[t]."""
    return _sweep(n, rows, cols, 1, lambda m, p, x, s: m).get((), 0)


def _sweep(n: int, rows: Sequence[int], cols: Sequence[int], start, step) -> dict:
    """Sweep the anti-diagonals x + y = s, carrying a value along every
    vertex-disjoint family joining source rows[t] to sink cols[t].

    A state is the x-positions of the live heads, path 0 first, with its
    value: start at the sources, step(value, p, x, s) when path p moves to
    (x, s - x), summed with + where moves meet. Sources lie on s = c; sink
    j is (c, j), on s = c + j, where path p must sit at x = c and retires.
    From s - 1 to s the heads move one at a time: head t goes up (x) or
    right (x + 1) to a region point strictly left of head t - 1's new x,
    while x >= s - cols[p] (else y > cols[p] and the sink is out of reach).
    Strictly increasing rows start the heads strictly decreasing, and a head
    moving by 0 or 1 can land on the one before it but not pass it; paths
    out of order would have crossed without meeting, which planarity rules
    out (a CrossCheckError). Returns {(): the total}, or {} if none exist.
    """
    c, k = (n + 1) // 2 - 1, len(rows)
    states = {tuple(c - i for i in rows): start}
    retired, s = 0, c
    while True:
        while retired < k and s == c + cols[retired]:
            states = {xs[1:]: m for xs, m in states.items() if xs[0] == c}
            retired += 1
        if retired == k or not states:
            return states
        s += 1
        for t in range(k - retired):
            p = retired + t
            reach = s - cols[p]
            moved: dict = {}
            for xs, m in states.items():
                prev = xs[t - 1] if t else c + 1
                for x in (xs[t], xs[t] + 1):
                    if x > prev:
                        raise CrossCheckError(
                            f"disjoint paths out of order on x+y={s} "
                            f"(n={n}, rows={rows}, cols={cols})"
                        )
                    if reach <= x < prev and _inside(n, x, s - x):
                        heads = xs[:t] + (x,) + xs[t + 1 :]
                        v = step(m, p, x, s)
                        moved[heads] = moved[heads] + v if heads in moved else v
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
