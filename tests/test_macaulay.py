from itertools import chain, product

import pytest
from hypothesis import given, strategies as st

import polytnn.macaulay as macaulay
from polytnn import (
    BudgetExceededError,
    MacaulayExpansion,
    binomial,
    boundary,
    is_m_sequence,
    macaulay_expand,
    oracle_is_m_sequence,
)
from oracles import greedy_expansion


def all_valid_expansions(value, k):
    """Every sum of C(a_t, i_t) equal to value in the canonical shape:
    indices consecutive k, k-1, ... down to wherever the sum completes,
    a's strictly decreasing, a_t >= i_t. Brute force over that shape,
    used to confirm the greedy expansion is the only inhabitant. Allowing
    index gaps would break uniqueness (C(3,3)+C(2,2) and C(3,3)+C(1,1)
    both give 2), which is why the consecutive shape is the right one.
    """
    results = []

    def rec(rem, idx, max_a, acc):
        if rem == 0:
            results.append(tuple(acc))
            return
        if idx < 1:
            return
        for a in range(idx, max_a + 1):
            term = binomial(a, idx)
            if term <= rem:
                acc.append((a, idx))
                rec(rem - term, idx - 1, a - 1, acc)
                acc.pop()

    rec(value, k, value + k, [])
    return [r for r in results if r]


class TestExpansion:
    def test_single_term_case(self):
        assert macaulay_expand(10, 2).terms == ((5, 2),)

    def test_two_term_case(self):
        assert macaulay_expand(4, 2).terms == ((3, 2), (1, 1))

    def test_value_one(self):
        for k in range(1, 8):
            assert macaulay_expand(1, k).terms == ((k, k),)

    def test_reconstruction(self):
        for k in range(1, 7):
            for value in range(1, 501):
                exp = macaulay_expand(value, k)
                assert exp.value() == value
                assert sum(binomial(a, t) for a, t in exp.terms) == value

    def test_structural_invariants(self):
        for k in range(1, 6):
            for value in range(1, 200):
                terms = macaulay_expand(value, k).terms
                idxs = [t for _, t in terms]
                tops = [a for a, _ in terms]
                assert idxs[0] == k
                assert all(x > y for x, y in zip(idxs, idxs[1:]))
                assert all(x > y for x, y in zip(tops, tops[1:]))
                assert all(t >= 1 for t in idxs)
                assert all(a >= t for a, t in terms)

    def test_greedy_expansion_is_the_unique_valid_one(self):
        for k in range(1, 5):
            for value in range(1, 61):
                valid = all_valid_expansions(value, k)
                greedy = macaulay_expand(value, k).terms
                assert valid.count(greedy) == 1
                assert len(valid) == 1, (value, k, valid)

    def test_matches_linear_greedy_reference(self):
        for k in range(1, 7):
            for value in range(1, 2001):
                assert macaulay_expand(value, k).terms == greedy_expansion(value, k), (value, k)

    def test_huge_values_are_greedy(self):
        # each a is the largest with C(a, t) within what is left
        for value in (10**6, 10**12 + 7, 3**80):
            for k in (1, 2, 5, 12):
                rem = value
                for a, t in macaulay_expand(value, k).terms:
                    assert binomial(a, t) <= rem < binomial(a + 1, t)
                    rem -= binomial(a, t)
                assert rem == 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            macaulay_expand(0, 2)
        with pytest.raises(ValueError):
            macaulay_expand(5, 0)
        with pytest.raises(ValueError):
            macaulay_expand(-1, 1)

    @given(st.integers(1, 2000), st.integers(1, 8))
    def test_reconstruction_property(self, value, k):
        assert macaulay_expand(value, k).value() == value


class TestBoundary:
    def test_known_values(self):
        assert boundary(10, 2) == 4
        assert boundary(4, 2) == 3

    def test_zero(self):
        for k in range(1, 6):
            assert boundary(0, k) == 0

    def test_monotone_in_value(self):
        for k in range(1, 5):
            values = [boundary(v, k) for v in range(201)]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            boundary(3, 0)
        with pytest.raises(ValueError):
            boundary(-1, 2)


class TestIsMSequence:
    def test_full_monomial_counts_pass(self):
        assert is_m_sequence([1, 4, 10, 20])

    def test_violation_reports_first_bad_index(self):
        verdict = is_m_sequence([1, 2, 4])
        assert not verdict
        assert verdict.k == 2
        assert verdict.boundary_value == 3
        assert verdict.bound == 2

    def test_singleton(self):
        assert is_m_sequence([1])

    def test_wrong_head(self):
        verdict = is_m_sequence([2, 1])
        assert not verdict
        assert verdict.k == 0
        assert verdict.boundary_value is None

    def test_zero_then_positive_rejected(self):
        # a gap in degrees cannot be refilled: boundary(1, 2) = 1 > 0
        verdict = is_m_sequence([1, 0, 1])
        assert not verdict
        assert verdict.k == 2

    def test_zero_tail_fine(self):
        assert is_m_sequence([1, 3, 0, 0])

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            is_m_sequence([])
        with pytest.raises(ValueError):
            is_m_sequence([1, -1])
        # bool is an int subclass; both M-sequence tests refuse it
        with pytest.raises(ValueError, match="^is_m_sequence: entries must be nonnegative integers, got True$"):
            is_m_sequence([True, True])
        with pytest.raises(ValueError, match="^oracle_is_m_sequence: entries must be nonnegative integers, got False$"):
            oracle_is_m_sequence([1, False], 1)
        with pytest.raises(ValueError, match="^oracle_is_m_sequence: sequence must be nonempty$"):
            oracle_is_m_sequence([], 1)
        with pytest.raises(ValueError, match="^oracle_is_m_sequence: max_vars must be >= 0, got -1$"):
            oracle_is_m_sequence([1, 2], -1)


class TestOracle:
    def test_full_monomial_counts(self):
        assert oracle_is_m_sequence([1, 4, 10, 20], 4) is True

    def test_small_false_case(self):
        assert oracle_is_m_sequence([1, 2, 4], 2) is False

    def test_gap_case(self):
        assert oracle_is_m_sequence([1, 0, 1], 1) is False

    def test_variable_count_clamps_to_degree_one_entry(self):
        # monomials beyond the first n_1 variables can never appear, so a
        # larger budget changes nothing
        for seq in ([1, 2, 3], [1, 3, 4, 2], [1, 2, 4]):
            assert oracle_is_m_sequence(seq, seq[1]) == oracle_is_m_sequence(seq, 9)

    def test_budget_refusal(self):
        # false, but only after every 5-set of the 28 degree-2 monomials is tried
        with pytest.raises(BudgetExceededError):
            oracle_is_m_sequence([1, 7, 5, 1, 2], 7)

    def test_work_cap_refuses_true_sequence(self, monkeypatch):
        # 1,4,10,20 tests 4 + 10 + 20 monomials
        monkeypatch.setattr(macaulay, "ORACLE_WORK_CAP", 33)
        with pytest.raises(BudgetExceededError, match="budget of 33 monomial tests"):
            oracle_is_m_sequence([1, 4, 10, 20], 4)
        monkeypatch.setattr(macaulay, "ORACLE_WORK_CAP", 34)
        assert oracle_is_m_sequence([1, 4, 10, 20], 4) is True

    def test_refused_before_monomials_are_listed(self, monkeypatch):
        # listing the 10^12 degree-1 monomials would exhaust memory first
        def no_listing(v, k):
            raise AssertionError("the monomials were listed")

        monkeypatch.setattr(macaulay, "_monomials", no_listing)
        with pytest.raises(BudgetExceededError):
            oracle_is_m_sequence([1, 10**12], 10**12)

    def test_long_sequence_searches_without_recursion(self):
        # one variable: one monomial per degree, 2,000 degrees deep
        assert oracle_is_m_sequence([1] * 2001, 1) is True
        assert oracle_is_m_sequence([1] * 2000 + [2], 1) is False

    def test_monomials_against_brute_force(self):
        def dense(mono, v):
            e = [0] * v
            for i, p in mono:
                e[i] = p
            return tuple(e)

        for v in range(7):
            for k in range(1, 7):
                brute = sorted((e for e in product(range(k + 1), repeat=v) if sum(e) == k), reverse=True)
                table = macaulay._monomials(v, k)
                assert [dense(m, v) for m, _ in table] == brute, (v, k)
                for m, divisors in table:
                    e = dense(m, v)
                    lowered = [e[:i] + (e[i] - 1,) + e[i + 1:] for i in range(v) if e[i]]
                    assert [dense(d, v) for d in divisors] == lowered, m

    def test_zero_degree_then_nonzero_rejected_without_search(self, monkeypatch):
        # division closure: no monomial of degree k leaves none of degree k + 1
        def no_search(v, k):
            raise AssertionError("the search ran")

        monkeypatch.setattr(macaulay, "_monomials", no_search)
        for seq in ([1, 7, 5, 0, 1], [1, 6, 4, 0, 1], [1, 0, 1], [1, 3, 0, 0, 2], [1, 9, 40, 0, 30]):
            assert oracle_is_m_sequence(seq, max(1, seq[1])) is False, seq

    def test_agreement_with_boundary_test(self):
        short = (seq for length in range(1, 5) for seq in product(range(6), repeat=length))
        length_five = (seq for seq in product(range(11), repeat=5) if sum(seq) <= 10)
        for seq in chain(short, length_five):
            expected = bool(is_m_sequence(list(seq)))
            vars_hint = seq[1] if len(seq) > 1 else 1
            assert oracle_is_m_sequence(list(seq), max(1, vars_hint)) == expected, seq


def test_expansion_value_object():
    exp = macaulay_expand(7, 3)
    assert isinstance(exp, MacaulayExpansion)
    assert exp.k == 3
    assert exp.value() == 7
