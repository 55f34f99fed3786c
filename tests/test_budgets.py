"""Every budget at its edge: a draw over the edge is refused with its exact text before the
kernel it guards runs (that kernel patched to raise), and a draw within it runs and does
the work its check counted. Where no small input sits exactly on the real edge, the
budget is patched to the drawn input's own work, so both sides of each comparison are hit."""

from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from polytnn import BudgetExceededError, determinant, is_m_sequence, lgv, macaulay, path_matrix, tnn
from polytnn.exactnum import binomial

EDGES = settings(derandomize=True, deadline=None, max_examples=40)


def boom(*args, **kwargs):
    raise AssertionError("the kernel ran on a refused input")


def scan_text(rows: int, cols: int, work: int, budget: int) -> str | None:
    """The refusal check_scan gives for a rows x cols scan of work minors, or None."""
    if rows * cols > budget:
        return f"the scan has {rows} x {cols} minors of order 1 alone, over the budget of {budget}"
    return f"the scan has {work} minors, over the budget of {budget}" if work > budget else None


@EDGES
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
    st.sampled_from(["order 1", "total"]),
    st.integers(-1, 1),
)
def test_scan_budget_both_sides_of_each_text(rows, cols, data, edge, offset):
    max_order = data.draw(st.integers(1, min(rows, cols)))
    row = st.lists(st.integers(-2, 3), min_size=cols, max_size=cols)
    entries = data.draw(st.lists(row, min_size=rows, max_size=rows))
    work = sum(comb(rows, k) * comb(cols, k) for k in range(1, max_order + 1))
    budget = (rows * cols if edge == "order 1" else work) + offset
    text = scan_text(rows, cols, work, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tnn, "SCAN_BUDGET", budget)
        if text is not None:
            mp.setattr(tnn, "_fork_map", boom)
            with pytest.raises(BudgetExceededError) as info:
                tnn.is_totally_nonnegative(entries, max_order)
            assert str(info.value) == text
            return
        assert tnn.check_scan(rows, cols, max_order) == (max_order, work)
        report = tnn.is_totally_nonnegative(entries, max_order)
    assert report.minors_checked == work
    assert work == sum(1 for k in range(1, max_order + 1) for _ in tnn.iter_minors(entries, k))


@EDGES
@given(st.integers(1, 10**4), st.integers(-1, 1))
@example(1000, 0)  # 1000 x 10000: order 1 exactly at the budget
def test_real_scan_budget_order_1_edge(rows, offset):
    cols = tnn.SCAN_BUDGET // rows + offset
    text = scan_text(rows, cols, rows * cols, tnn.SCAN_BUDGET)
    if text is None:
        assert tnn.check_scan(rows, cols, 1) == (1, rows * cols)
    else:
        with pytest.raises(BudgetExceededError, match=f"^{text}$"):
            tnn.check_scan(rows, cols, 1)


@pytest.mark.parametrize("d", range(13, 23))
def test_real_scan_budget_on_the_transfer_shapes(d):
    rows, cols = d // 2 + 1, d
    work = sum(comb(rows, k) * comb(cols, k) for k in range(1, rows + 1))
    text = scan_text(rows, cols, work, tnn.SCAN_BUDGET)
    assert (text is None) == (d <= 17)  # d = 17 has 3,124,549 minors, d = 19 has 20,030,009
    if text is None:
        assert tnn.check_scan(rows, cols) == (rows, work)
    else:
        with pytest.raises(BudgetExceededError, match=f"^{text}$"):
            tnn.check_scan(rows, cols)


def vertex_count(n: int) -> int:
    """The graph's vertices counted from its definition, over a box that holds them all."""
    c = (n + 1) // 2 - 1
    return sum(1 for x in range(-n, n) for y in range(-n, 2 * n) if x <= c and y - x <= n // 2 and x + y >= c)


def graph_refusal(n: int, budget: int) -> str:
    return f"the lattice graph of order {n} has {vertex_count(n)} vertices, over the budget of {budget}"


@EDGES
@given(st.integers(2, 40), st.integers(-1, 1))
@example(9, 0)
def test_graph_budget_both_sides(n, offset):
    budget = vertex_count(n) + offset
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgv, "GRAPH_BUDGET", budget)
        if offset < 0:
            mp.setattr(lgv, "frozenset", boom, raising=False)  # the vertex set's build
            with pytest.raises(BudgetExceededError, match=f"^{graph_refusal(n, budget)}$"):
                lgv.lattice_graph(n).vertices
        else:
            assert len(lgv.lattice_graph(n).vertices) == vertex_count(n)


@pytest.mark.parametrize("n", [315, 316])
def test_real_graph_budget_edge(n, monkeypatch):
    if n == 316:
        monkeypatch.setattr(lgv, "frozenset", boom, raising=False)
        with pytest.raises(BudgetExceededError, match=f"^{graph_refusal(n, 25_000)}$"):
            lgv.lattice_graph(n).vertices
    else:
        assert len(lgv.lattice_graph(n).vertices) == vertex_count(n) == 24_964


@EDGES
@given(st.integers(2, 13), st.integers(1, 5), st.data())
@example(10, 3, None)
@example(11, 1, None)
@example(9, 4, None)
def test_family_budget_both_sides(n, order, data):
    corner = (n + 1) // 2 - 1
    order = min(order, corner + 1)
    if data is None:  # an explicit example: the first rows and the last cols
        rows, cols = list(range(order)), list(range(n - order, n))
    else:
        rows = sorted(data.draw(st.sets(st.integers(0, corner), min_size=order, max_size=order)))
        cols = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=order, max_size=order)))
    g = lgv.lattice_graph(n)
    if order > lgv.FAMILY_MAX_ORDER or n > lgv.FAMILY_MAX_N:
        text = f"family enumeration budget is order <= 3 and n <= 10; got order {order}, n {n}"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lgv, "_sweep", boom)
            for route in (lgv.minor_via_lgv, lgv.nonintersecting_families):
                with pytest.raises(BudgetExceededError, match=f"^{text}$"):
                    route(g, rows, cols)
        return
    families = lgv.nonintersecting_families(g, rows, cols)
    minor = determinant([[path_matrix(n).entries[i][j] for j in cols] for i in rows])
    assert lgv.minor_via_lgv(g, rows, cols) == sum(f.weight for f in families) == minor


def path_sum_refusal(n: int, i: int, j: int, budget: int) -> str:
    heads = min(i, j - i) + 1
    text = f"the path sum from source {i} to sink {j} of order {n} sweeps up to {n} x {heads} head positions"
    return f"{text}, over the budget of {budget}"


@EDGES
@given(st.integers(2, 40), st.data(), st.integers(-1, 1))
@example(9, None, -1)
@example(9, None, 0)
def test_path_sum_budget_both_sides(n, data, offset):
    corner = (n + 1) // 2 - 1
    if data is None:  # an explicit example: the last source to the last sink
        i, j = corner, n - 1
    else:
        i = data.draw(st.integers(0, corner))
        j = data.draw(st.integers(i, n - 1))
    budget = n * (min(i, j - i) + 1) + offset
    g = lgv.lattice_graph(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgv, "PATH_SUM_BUDGET", budget)
        if offset < 0:
            mp.setattr(lgv, "_sweep", boom)
            with pytest.raises(BudgetExceededError, match=f"^{path_sum_refusal(n, i, j, budget)}$"):
                lgv.path_weight_sum(g, i, j)
            return
        assert lgv.path_weight_sum(g, i, j) == path_matrix(n).entries[i][j]


@pytest.mark.parametrize(
    "n, i, j",
    # the edge at i = 0 and at n = 8,000; the farthest reach of the lgv-certify benchmark's n = 30
    [(200_000, 0, 0), (200_001, 0, 0), (8_000, 0, 7_999), (8_000, 24, 48), (8_000, 25, 7_999), (4_000, 1_999, 2_000), (30, 14, 29)],
)
def test_real_path_sum_budget_edge(n, i, j, monkeypatch):
    g = lgv.lattice_graph(n)
    if n * (min(i, j - i) + 1) > 200_000:
        monkeypatch.setattr(lgv, "_sweep", boom)
        with pytest.raises(BudgetExceededError, match=f"^{path_sum_refusal(n, i, j, 200_000)}$"):
            lgv.path_weight_sum(g, i, j)
    else:
        assert lgv.path_weight_sum(g, i, j) == lgv.path_weight_closed_form(n, i, j)


def oracle_run(seq, max_vars, cap):
    """(the oracle's answer or its refusal, [(degree, monomials) per listing]): every listing
    is checked to come with the search's count still within cap."""
    listed, monomials = [], macaulay._monomials

    def counting(v, k):
        listed.append((k, binomial(v + k - 1, k)))
        assert sum(count for _, count in listed) <= cap, "a degree was listed past the cap"
        return monomials(v, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macaulay, "ORACLE_WORK_CAP", cap)
        mp.setattr(macaulay, "_monomials", counting)
        try:
            return macaulay.oracle_is_m_sequence(seq, max_vars), listed
        except BudgetExceededError as exc:
            return exc, listed


@EDGES
@given(st.lists(st.integers(0, 4), max_size=3), st.integers(1, 3), st.integers(-2, 1))
@example([3, 3], 3, -1)
@example([3, 3], 3, 0)
def test_oracle_cap_both_sides(tail, max_vars, offset):
    seq = [1, *tail]
    answer, listed = oracle_run(seq, max_vars, 10**9)
    # n_1 monomials of degree 1 need n_1 variables
    assert answer == (bool(is_m_sequence(seq)) and (len(seq) < 2 or seq[1] <= max_vars))
    total = sum(count for _, count in listed)
    cap = max(0, total + offset)
    capped, _ = oracle_run(seq, max_vars, cap)
    if total <= cap:
        assert capped is answer
        return
    counted = 0
    for degree, count in listed:  # the refusal comes at the first listing past the cap
        counted += count
        if counted > cap:
            break
    text = f"oracle infeasible: reaching degree {degree} takes the search past its budget of {cap} monomial tests"
    assert isinstance(capped, BudgetExceededError) and str(capped) == text
