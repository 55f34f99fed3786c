import sys

import pytest
from hypothesis import given, strategies as st

from polytnn import BudgetExceededError, Rational, ballot_paths, binomial, exactnum, lattice_graph, path_weight_sum, tnn
from oracles import count_ballot_paths, pascal


class TestBinomial:
    def test_agrees_with_pascal_recursion(self):
        for n in range(41):
            for k in range(-2, n + 3):
                assert binomial(n, k) == pascal(n, k)

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_big_values_exact(self):
        # C(100, 50) has 30 digits; exactness is the whole point
        assert binomial(100, 50) == 100891344545564193334812497256


class TestBallotPaths:
    def test_agrees_with_enumeration(self):
        for m in range(7):
            for n in range(7):
                for t in range(1, 8):
                    assert ballot_paths(m, n, t) == count_ballot_paths(m, n, t), (m, n, t)

    def test_known_small_case(self):
        # (0,0) -> (2,1) avoiding y - x = 1: of EEN, ENE, NEE only NEE
        # touches the line (at its first step), leaving 2 paths
        assert ballot_paths(2, 1, 1) == 2

    def test_endpoint_on_or_above_line_gives_zero(self):
        # endpoint at or past the forbidden diagonal: no path can avoid it
        assert ballot_paths(0, 2, 1) == 0
        assert ballot_paths(1, 4, 3) == 0
        assert ballot_paths(2, 5, 3) == 0

    def test_transposed_formula_variant_is_wrong(self):
        # the plausible-looking variant C(m+n,n) - C(m+n,m-t) disagrees
        # with enumeration at (2,1,1); keeping this pinned guards against
        # regressing to it
        m, n, t = 2, 1, 1
        variant = binomial(m + n, n) - binomial(m + n, m - t)
        assert variant == 0
        assert ballot_paths(m, n, t) == 2

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            ballot_paths(2, 1, 0)
        with pytest.raises(ValueError):
            ballot_paths(2, 1, -1)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ballot_paths(-1, 2, 1)
        with pytest.raises(ValueError):
            ballot_paths(2, -1, 1)

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 11))
    def test_bounded_by_total_path_count(self, m, n, t):
        count = ballot_paths(m, n, t)
        assert 0 <= count <= binomial(m + n, n)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8))
    def test_matches_enumeration_property(self, m, n, t):
        assert ballot_paths(m, n, t) == count_ballot_paths(m, n, t)


def test_rational_is_exact():
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
    assert Rational(10, 5) == 2


def test_rational_normal_form():
    # stored in lowest terms with a positive denominator; equality is by value
    assert Rational(2, 4) == Rational(1, 2)
    q = Rational(-3, -9)
    assert (q.numerator, q.denominator) == (1, 3)
    q = Rational(3, -9)
    assert (q.numerator, q.denominator) == (-1, 3)


def test_rational_reciprocal_product():
    for a in range(-6, 7):
        if a == 0:
            continue
        for b in range(1, 7):
            q = Rational(a, b)
            assert q * Rational(b, a) == 1
            # normalization is idempotent: rebuilding from the stored
            # numerator and denominator reproduces the same value
            assert Rational(q.numerator, q.denominator) == q


@pytest.fixture
def cap():
    """Set the interpreter's int-to-str cap for one test (4,300 is its default, which a
    library caller keeps; cli.main runs every command at 0), then restore it."""
    kept = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(kept)


def shown(x: int, cap: int) -> str:
    """x as a message writes it under cap: in full, or past the cap as its exact digit
    count, len(str(abs(x))) read with the cap lifted."""
    kept = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    text = str(x)
    sys.set_int_max_str_digits(kept)
    digits = len(text.lstrip("-"))
    return text if not cap or digits <= cap else "-" * (x < 0) + f"<{digits} digits>"


BIG = 10**2200  # its graph has 2.5 * 10**4399 vertices
# name: (call, its exception, the message template, the numbers the message writes)
PROBES = {
    "graph vertices": (
        lambda: lattice_graph(BIG).vertices,
        BudgetExceededError,
        "the lattice graph of order {} has {} vertices, over the budget of {}",
        (BIG, (BIG // 2) * (BIG // 2 + 1), 25_000),
    ),
    "scan order 1, both sides": (
        lambda: tnn.check_scan(10**4400, 10**4400),
        BudgetExceededError,
        "the scan has {} x {} minors of order 1 alone, over the budget of {}",
        (10**4400, 10**4400, 10**7),
    ),
    "scan order 1, one side": (
        lambda: tnn.check_scan(3, 10**5000),
        BudgetExceededError,
        "the scan has {} x {} minors of order 1 alone, over the budget of {}",
        (3, 10**5000, 10**7),
    ),
    "ballot endpoint": (
        lambda: ballot_paths(-(10**5000), 1, 1),
        ValueError,
        "ballot_paths: endpoint must lie in the first quadrant, got {}",
        (-(10**5000),),
    ),
    "path sum": (  # before its budget, a sweep 10**5000 anti-diagonals long
        lambda: path_weight_sum(lattice_graph(10**5000), 0, 10**5000 - 1),
        BudgetExceededError,
        "the path sum from source {} to sink {} of order {} sweeps up to {} x {} head positions, over the budget of {}",
        (0, 10**5000 - 1, 10**5000, 10**5000, 1, 200_000),
    ),
    "lgv source index": (
        lambda: path_weight_sum(lattice_graph(10), 10**4999, 0),
        ValueError,
        "source index out of range: i = {}, valid 0..{}",
        (10**4999, 4),
    ),
}


class TestMessagesUnderTheDigitCap:
    @pytest.mark.parametrize("digits", [4300, 0])
    @pytest.mark.parametrize("name", PROBES)
    def test_probe_raises_its_own_error_with_every_number_shown(self, name, digits, cap):
        call, error, template, numbers = PROBES[name]
        cap(digits)
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == template.format(*(shown(x, digits) for x in numbers))

    def test_a_number_past_the_cap_reads_as_its_exact_digit_count(self, cap):
        cap(4300)
        for x in (10**4300, 10**4300 - 1, 10**4400, 10**4400 - 1, -(10**5000), 7 * 10**9999, 1 << 20000):
            assert exactnum._render(x) == shown(x, 4300)
        assert exactnum._render(10**4300) == "<4301 digits>"
        assert exactnum._render(-(10**4300) + 1) == shown(-(10**4300) + 1, 0)  # 4,300 nines print in full
        cap(0)
        assert exactnum._render(10**5000) == shown(10**5000, 0)

    def test_other_values_read_as_their_repr(self, cap):
        cap(4300)
        for x in (0, -3, True, 2.5, "2", None, [1]):
            assert exactnum._render(x) == repr(x)

    def test_check_ints_renders_only_when_a_check_fails(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(exactnum, "_render", lambda x: rendered.append(x) or repr(x))
        tnn.check_scan(5, 5, 3)  # max_order and jobs in range: nothing is written
        next(tnn.iter_minors(((1, 2), (3, 4)), 2))
        assert rendered == []
        with pytest.raises(ValueError, match=r"^max_order must be in 1\.\.5, got 6$"):
            tnn.check_scan(5, 5, 6)
        assert sorted(rendered, key=repr) == [1, 5, 6]
