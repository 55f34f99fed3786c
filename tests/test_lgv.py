import json
import re
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

import polytnn.cli as cli
import polytnn.lgv as lgv
from polytnn import (
    BudgetExceededError,
    CrossCheckError,
    ballot_paths,
    binomial,
    determinant,
    export_dot,
    graph_json_obj,
    lattice_graph,
    minor_via_lgv,
    nonintersecting_families,
    path_matrix,
    path_weight_closed_form,
    path_weight_sum,
    vertical_weight,
)
from polytnn.lgv import LatticeGraph, _count_families, _inside, _paths, _weighted
from polytnn.tnn import as_matrix, iter_minors
from oracles import fraction_path_weight_sums, monotone_paths, region_vertices

T2_DOT = (
    "digraph lattice2 {\n"
    '  "(0,0)";\n'
    '  "(0,1)";\n'
    '  "(0,0)" -> "(0,1)" [label="2"];\n'
    "}\n"
)


class TestGraphShape:
    def test_vertex_sets_match_region_oracle(self):
        for n in range(2, 13):
            assert lattice_graph(n).vertices == frozenset(region_vertices(n))

    def test_frozen_vertex_counts(self):
        assert len(lattice_graph(2).vertices) == 2
        assert len(lattice_graph(4).vertices) == 6
        assert len(lattice_graph(8).vertices) == 20

    def test_sources_of_order_eight(self):
        assert lattice_graph(8).sources == ((3, 0), (2, 1), (1, 2), (0, 3))

    def test_sinks(self):
        g = lattice_graph(8)
        assert g.sinks == tuple((3, j) for j in range(8))
        assert set(g.sources) <= g.vertices
        assert set(g.sinks) <= g.vertices

    def test_lowest_vertical_weight_is_n(self):
        for n in range(2, 12):
            assert vertical_weight(n, 0) == n

    def test_weight_identity(self):
        for n in range(2, 15):
            for y in range(n):
                assert vertical_weight(n, y) == Fraction(binomial(n, y + 1), binomial(n, y))

    def test_arcs_stay_inside(self):
        for n in range(2, 10):
            g = lattice_graph(n)
            for arc in g.arcs:
                assert arc.tail in g.vertices
                assert arc.head in g.vertices
                dx = arc.head[0] - arc.tail[0]
                dy = arc.head[1] - arc.tail[1]
                assert (dx, dy) in ((1, 0), (0, 1))
                if dx == 1:
                    assert arc.weight == 1
                else:
                    assert arc.weight == vertical_weight(n, arc.tail[1])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lattice_graph(1)

    def test_vertex_count_formula(self):
        for n in range(2, 41):
            assert lgv._vertex_count(n) == len(region_vertices(n)), n
        assert lgv._vertex_count(315) <= lgv.GRAPH_BUDGET < lgv._vertex_count(316)

    def test_inside_is_the_region(self):
        for n in range(2, 13):
            box = range(-(n + 2), n + 2)
            assert {(x, y) for x in box for y in box if _inside(n, x, y)} == region_vertices(n)

    def test_graph_is_its_order(self):
        assert LatticeGraph._fields == ("n",)
        g = lattice_graph(8)
        assert g == LatticeGraph(8)
        assert g.vertices is g.vertices  # built once, on first read
        assert g.arcs is g.arcs

    def test_graph_budget(self, monkeypatch):
        monkeypatch.setattr(lgv, "GRAPH_BUDGET", 25)  # order 9 has 25 vertices, order 10 has 30
        assert len(lattice_graph(9).vertices) == 25
        with pytest.raises(BudgetExceededError, match="order 10 has 30 vertices, over the budget of 25"):
            lattice_graph(10).vertices
        with pytest.raises(ValueError, match="n must be >= 2"):
            lattice_graph(1)


class TestPathWeights:
    def test_matches_closed_form_everywhere(self):
        for n in range(2, 15):
            g = lattice_graph(n)
            for i in range((n + 1) // 2):
                for j in range(n):
                    total = path_weight_sum(g, i, j)
                    assert total.denominator == 1
                    assert total == path_weight_closed_form(n, i, j), (n, i, j)

    def test_diagonal_is_one(self):
        for n in range(2, 12):
            g = lattice_graph(n)
            for i in range((n + 1) // 2):
                assert path_weight_sum(g, i, i) == 1

    def test_below_diagonal_is_zero(self):
        g = lattice_graph(9)
        for i in range(5):
            for j in range(i):
                assert path_weight_sum(g, i, j) == 0

    def test_known_entry(self):
        assert path_weight_sum(lattice_graph(4), 0, 2) == 6

    def test_closed_form_examples(self):
        assert path_weight_closed_form(4, 1, 3) == 2
        assert path_weight_closed_form(8, 2, 5) == 20
        for n in range(2, 10):
            for j in range(n - 1):
                assert path_weight_closed_form(n, 0, j) == binomial(n, j)

    def test_matches_path_matrix(self):
        for n in range(2, 15):
            g = lattice_graph(n)
            w = path_matrix(n)
            for i in range(w.rows):
                for j in range(w.cols):
                    assert path_weight_sum(g, i, j) == w.entries[i][j]

    def test_out_of_range_rejected(self):
        g = lattice_graph(6)
        with pytest.raises(ValueError):
            path_weight_sum(g, 3, 0)
        with pytest.raises(ValueError):
            path_weight_sum(g, 0, 6)

    def test_every_path_weight_telescopes(self):
        # each path climbs heights i..j-1 once: its arc-weight product is C(n,j)/C(n,i)
        for n in range(2, 13):
            g = lattice_graph(n)
            weight = {(a.tail, a.head): a.weight for a in g.arcs}
            for i in range((n + 1) // 2):
                for j in range(i, n):
                    for path in monotone_paths(set(g.vertices), g.sources[i], g.sinks[j]):
                        w = prod((weight[a, b] for a, b in zip(path, path[1:])), start=Fraction(1))
                        assert w == Fraction(binomial(n, j), binomial(n, i)), (n, path)

    def test_matches_fraction_weight_oracle(self):
        for n in range(2, 31):
            g = lattice_graph(n)
            for i in range((n + 1) // 2):
                for j, want in enumerate(fraction_path_weight_sums(g, i)):
                    total = path_weight_sum(g, i, j)
                    assert type(total) is int
                    assert total == want == path_weight_closed_form(n, i, j), (n, i, j)


class TestPathCounts:
    def test_raw_path_counts_are_ballot_numbers(self):
        # forget the weights: the number of monotone paths from source i
        # to sink j inside the region is a ballot count, because the
        # region's upper edge bans exactly the line y - x = floor(n/2) + 1
        for n in range(2, 11):
            g = lattice_graph(n)
            for i in range((n + 1) // 2):
                for j in range(i, n):
                    got = len(_paths(g, g.sources[i], g.sinks[j]))
                    expected = ballot_paths(i, j - i, n - 2 * i) if j > i else 1
                    assert got == expected, (n, i, j)

    def test_paths_agree_with_free_walk_oracle(self):
        for n in range(2, 9):
            g = lattice_graph(n)
            verts = set(g.vertices)
            for i in range((n + 1) // 2):
                for j in range(n):
                    ours = _paths(g, g.sources[i], g.sinks[j])
                    theirs = monotone_paths(verts, g.sources[i], g.sinks[j])
                    assert sorted(ours) == sorted(theirs)


class TestFamilies:
    def test_single_pair_single_family(self):
        for n in range(2, 9):
            fams = nonintersecting_families(lattice_graph(n), [0], [0])
            assert len(fams) == 1
            assert fams[0].weight == 1

    def test_order_two_identity_block(self):
        fams = nonintersecting_families(lattice_graph(4), [0, 1], [0, 1])
        assert len(fams) == 1
        assert fams[0].weight == 1

    def test_vanishing_minor_has_zero_total(self):
        g = lattice_graph(4)
        total = minor_via_lgv(g, [0, 1], [2, 3])
        assert total == 0
        sub = as_matrix(path_matrix(4)).submatrix((0, 1), (2, 3))
        assert determinant(sub) == 0

    def test_singleton_minor_is_entry(self):
        g = lattice_graph(6)
        for i in range(3):
            for j in range(6):
                assert minor_via_lgv(g, [i], [j]) == path_weight_closed_form(6, i, j)

    def test_known_two_by_two(self):
        assert minor_via_lgv(lattice_graph(4), [0, 1], [1, 2]) == 6

    def test_families_are_disjoint_and_identity_paired(self):
        g = lattice_graph(8)
        for rows, cols in (([0, 1], [1, 2]), ([0, 2], [2, 5]), ([0, 1, 2], [1, 2, 3])):
            for fam in nonintersecting_families(g, rows, cols):
                seen = set()
                for t, path in enumerate(fam.paths):
                    assert path[0] == g.sources[rows[t]]
                    assert path[-1] == g.sinks[cols[t]]
                    vs = set(path)
                    assert not (vs & seen)
                    seen |= vs

    def test_family_weight_is_product_of_arc_weights(self):
        g = lattice_graph(6)
        for fam in nonintersecting_families(g, [0, 1], [2, 3]):
            w = Fraction(1)
            for path in fam.paths:
                for a, b in zip(path, path[1:]):
                    if b[0] == a[0]:
                        w *= vertical_weight(6, a[1])
            assert w == fam.weight

    def test_minors_match_determinants(self):
        from itertools import combinations

        for n in range(2, 9):
            g = lattice_graph(n)
            w = as_matrix(path_matrix(n))
            for order in range(1, min(3, (n + 1) // 2) + 1):
                for rows in combinations(range((n + 1) // 2), order):
                    for cols in combinations(range(n), order):
                        assert minor_via_lgv(g, rows, cols) == determinant(
                            w.submatrix(rows, cols)
                        ), (n, rows, cols)

    def test_budget_refusals(self):
        g = lattice_graph(8)
        with pytest.raises(BudgetExceededError):
            nonintersecting_families(g, [0, 1, 2, 3], [0, 1, 2, 3])
        with pytest.raises(BudgetExceededError):
            nonintersecting_families(lattice_graph(11), [0], [0])

    def test_shape_errors(self):
        g = lattice_graph(6)
        with pytest.raises(ValueError):
            nonintersecting_families(g, [0, 1], [0])
        with pytest.raises(ValueError):
            nonintersecting_families(g, [1, 0], [0, 1])
        with pytest.raises(ValueError):
            nonintersecting_families(g, [], [])
        with pytest.raises(ValueError):
            nonintersecting_families(g, [0], [9])


class TestFamilyCount:
    def test_matches_listing(self):
        for n in range(2, 11):
            g = lattice_graph(n)
            height = (n + 1) // 2
            for order in range(1, min(3, height) + 1):
                for rows in combinations(range(height), order):
                    for cols in combinations(range(n), order):
                        fams = nonintersecting_families(g, rows, cols)
                        assert _count_families(n, rows, cols) == len(fams), (n, rows, cols)

    def test_every_minor_past_the_listing_budget(self):
        # count * prod C(n,J) == det * prod C(n,I), at every order
        for n in range(2, 12):
            for order in range(1, (n + 1) // 2 + 1):
                for w in iter_minors(path_matrix(n), order):
                    count = _count_families(n, w.rows, w.cols)
                    lhs = count * prod(binomial(n, j) for j in w.cols)
                    assert lhs == w.value * prod(binomial(n, i) for i in w.rows), (n, w)

    def test_paths_out_of_order_are_a_cross_check_failure(self):
        # sources listed bottom-up would have to cross: the sweep must say so
        with pytest.raises(CrossCheckError):
            _count_families(6, [1, 0], [3, 4])

    def test_counting_keeps_the_listing_budget(self):
        for n, rows in ((8, [0, 1, 2, 3]), (11, [0])):
            with pytest.raises(BudgetExceededError) as listed:
                nonintersecting_families(lattice_graph(n), rows, rows)
            with pytest.raises(BudgetExceededError) as counted:
                minor_via_lgv(lattice_graph(n), rows, rows)
            assert str(counted.value) == str(listed.value)


class TestExport:
    def test_frozen_smallest_dot(self):
        assert export_dot(lattice_graph(2)) == T2_DOT

    def test_dot_deterministic(self):
        for n in (3, 5, 8):
            g = lattice_graph(n)
            assert export_dot(g) == export_dot(lattice_graph(n))

    def test_dot_mentions_every_vertex(self):
        g = lattice_graph(8)
        text = export_dot(g)
        assert text.count(";") == len(g.vertices) + len(g.arcs)
        for x, y in g.vertices:
            assert f'"({x},{y})"' in text

    def test_json_object(self):
        g = lattice_graph(4)
        obj = graph_json_obj(g)
        assert obj["n"] == 4
        assert len(obj["vertices"]) == 6
        assert all(set(a) == {"from", "to", "weight_num", "weight_den"} for a in obj["arcs"])
        # must be plain-JSON serializable
        text = json.dumps(obj, sort_keys=True)
        assert json.loads(text) == obj


class TestGraphFree:
    """The path kernels test points with _inside and never build the graph."""

    @pytest.fixture
    def no_graph(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"the graph of order {self.n} was built")

        monkeypatch.setattr(LatticeGraph, "vertices", property(refuse))
        monkeypatch.setattr(LatticeGraph, "arcs", property(refuse))

    def test_kernels_agree_without_the_graph(self, no_graph):
        for n in range(2, 9):
            g = lattice_graph(n)
            height = (n + 1) // 2
            for i in range(height):
                for j in range(n):
                    assert path_weight_sum(g, i, j) == path_weight_closed_form(n, i, j), (n, i, j)
            w = as_matrix(path_matrix(n))
            for order in range(1, min(3, height) + 1):
                for rows in combinations(range(height), order):
                    for cols in combinations(range(n), order):
                        det = determinant(w.submatrix(rows, cols))
                        assert minor_via_lgv(g, rows, cols) == det, (n, rows, cols)
                        fams = nonintersecting_families(g, rows, cols)
                        assert sum(f.weight for f in fams) == det, (n, rows, cols)

    def test_cli_verify_without_the_graph(self, no_graph, capsys):
        w = as_matrix(path_matrix(9))
        for rows, cols in (((0,), (4,)), ((0, 2), (3, 7)), ((1, 2, 4), (2, 5, 8))):
            det = determinant(w.submatrix(rows, cols))
            argv = ["lgv", "--n", "9", "--verify", "--rows", ",".join(map(str, rows)),
                    "--cols", ",".join(map(str, cols))]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == f"det={det}, lgv={det}, equal\n"

    def test_path_sums_past_the_graph_budget(self):
        g = lattice_graph(400)  # 40,200 vertices, over GRAPH_BUDGET
        for i, j in ((0, 0), (0, 399), (3, 17), (100, 250), (199, 399), (150, 120)):
            assert path_weight_sum(g, i, j) == path_weight_closed_form(400, i, j), (i, j)

    def test_output_refused_past_the_graph_budget(self):
        g = lattice_graph(316)
        message = re.escape("the lattice graph of order 316 has 25122 vertices, over the budget of 25000")
        for build in (lambda: g.vertices, lambda: g.arcs, lambda: export_dot(g), lambda: graph_json_obj(g)):
            with pytest.raises(BudgetExceededError, match=f"^{message}$"):
                build()

    def test_minor_is_an_int(self):
        total = minor_via_lgv(lattice_graph(4), [0, 1], [1, 2])
        assert type(total) is int and total == 6

    def test_weight_exactness_is_checked(self):
        # one path from source 1 to sink 0 would weigh C(4,0)/C(4,1) = 1/4
        message = r"^n=4, rows=\[1\], cols=\[0\]: lgv weight 1/4 is not an integer$"
        with pytest.raises(CrossCheckError, match=message):
            _weighted(1, 4, [1], [0])
