import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import polytnn.tnn as tnn
from polytnn import (
    BudgetExceededError,
    ExactMatrix,
    MinorWitness,
    TnnReport,
    as_matrix,
    determinant,
    is_totally_nonnegative,
    iter_minors,
    lattice_graph,
    minor_via_lgv,
    path_matrix,
    strip_leading_column,
    transfer_matrix,
)
from oracles import all_minors, bareiss_scan, cofactor_det, minor_scan


def expected_report(scan) -> TnnReport:
    """The TnnReport for an oracle's (count, least, first negative or None)."""
    count, least, first_neg = scan
    witness = None if first_neg is None else MinorWitness(*first_neg)
    return TnnReport(witness is None, count, least, witness)


def shaped_matrices():
    """Seeded tall, wide and square matrices up to 6x9 and 9x6, over small ints
    and over p/q with a different denominator in each column."""
    rng = random.Random(20261019)
    mats = []
    for r, c in [(1, 1), (1, 7), (7, 1), (2, 5), (5, 2), (3, 3), (4, 6), (6, 4), (5, 5), (6, 9), (9, 6)]:
        mats.append(tuple(tuple(rng.randint(-2, 5) for _ in range(c)) for _ in range(r)))
        dens = [rng.randint(1, 7) for _ in range(c)]
        mats.append(tuple(tuple(Fraction(rng.randint(-2, 6), d) for d in dens) for _ in range(r)))
    return mats


def cross_check_matrices():
    """Seeded matrices up to 5x7 over small ints and p/q rationals.

    Covers zero rows, repeated rows, single rows and single columns, and
    TNN inputs (a path matrix, and the same with scaled-down rows).
    """
    rng = random.Random(20261018)
    mats = []
    for trial in range(48):
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        if trial % 2:
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        if r > 1 and trial % 3 == 1:
            rows[rng.randrange(r)] = [0] * c
        if r > 1 and trial % 3 == 2:
            rows[-1] = list(rows[0])
        mats.append(tuple(tuple(row) for row in rows))
    mats += [
        ((1, -2, 3, 0, Fraction(-1, 3), 4, 5),),
        tuple((x,) for x in (2, Fraction(-5, 2), 0, 7, 1)),
        ((0, 0, 0), (0, 0, 0)),
        path_matrix(7).entries,
        tuple(tuple(Fraction(x, i + 2) for x in row) for i, row in enumerate(path_matrix(7).entries)),
    ]
    return mats


class TestDeterminant:
    def test_two_by_two(self):
        assert determinant(ExactMatrix(((1, 2), (3, 4)))) == -2

    def test_identity(self):
        for n in range(1, 7):
            eye = ExactMatrix(tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            ))
            assert determinant(eye) == 1

    def test_integer_input_integer_output(self):
        val = determinant(ExactMatrix(((2, 7, 1), (0, 3, 9), (5, 5, 4))))
        assert isinstance(val, int)

    def test_path_matrix_block_against_cofactor(self):
        sub = as_matrix(path_matrix(8)).submatrix((0, 1, 2), (2, 3, 4))
        assert determinant(sub) == cofactor_det(sub.entries)

    def test_random_matrices_against_cofactor(self):
        rng = random.Random(20260817)
        for trial in range(100):
            size = rng.randint(1, 5)
            if trial % 3 == 0:
                rows = tuple(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size))
                    for _ in range(size)
                )
            else:
                rows = tuple(
                    tuple(rng.randint(-9, 9) for _ in range(size)) for _ in range(size)
                )
            m = ExactMatrix(rows)
            assert determinant(m) == cofactor_det(rows), rows

    def test_transpose_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            size = rng.randint(1, 5)
            rows = tuple(tuple(rng.randint(-6, 6) for _ in range(size)) for _ in range(size))
            t = tuple(tuple(rows[i][j] for i in range(size)) for j in range(size))
            assert determinant(ExactMatrix(rows)) == determinant(ExactMatrix(t))

    def test_singular(self):
        assert determinant(ExactMatrix(((1, 2), (2, 4)))) == 0
        assert determinant(ExactMatrix(((0, 0), (1, 1)))) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(ExactMatrix(((1, 2, 3), (4, 5, 6))))


class TestIterMinors:
    def test_order_one_is_entries_row_major(self):
        w = path_matrix(4)
        values = [m.value for m in iter_minors(w, 1)]
        flat = [x for row in w.entries for x in row]
        assert values == flat

    def test_order_two_count_and_sign(self):
        minors = list(iter_minors(path_matrix(4), 2))
        assert len(minors) == 6
        assert all(m.value >= 0 for m in minors)

    def test_count_formula(self):
        w = path_matrix(6)
        for order in (1, 2, 3):
            count = sum(1 for _ in iter_minors(w, order))
            assert count == comb(w.rows, order) * comb(w.cols, order)

    def test_lexicographic_order(self):
        seen = [(m.rows, m.cols) for m in iter_minors(path_matrix(5), 2)]
        assert seen == sorted(seen)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            list(iter_minors(path_matrix(4), 3))
        with pytest.raises(ValueError):
            list(iter_minors(path_matrix(4), 0))


class TestIsTotallyNonnegative:
    def test_transfer_matrices_pass(self):
        for d in range(1, 10):
            report = is_totally_nonnegative(transfer_matrix(d))
            assert report
            assert report.witness is None
            assert report.min_minor >= 0

    def test_classic_counterexample(self):
        report = is_totally_nonnegative(ExactMatrix(((1, 2), (3, 4))))
        assert not report
        assert report.witness == MinorWitness((0, 1), (0, 1), -2)
        assert report.min_minor == -2

    def test_minors_checked_counts_everything(self):
        # a 2x2 has 4 entries and 1 full determinant
        report = is_totally_nonnegative(ExactMatrix(((1, 2), (3, 4))))
        assert report.minors_checked == 5

    def test_witness_is_lexicographically_first(self):
        # a matrix with several negative minors; the reported one must be
        # first in (order, rows, cols) order: entry (0,2) = -1 comes before
        # every other negative minor
        m = ExactMatrix(((1, 2, -1), (3, 4, 0), (5, 9, 1)))
        report = is_totally_nonnegative(m)
        assert report.witness == MinorWitness((0,), (2,), -1)

    def test_max_order_limits_scan(self):
        m = ExactMatrix(((1, 2), (3, 4)))
        report = is_totally_nonnegative(m, max_order=1)
        assert report
        assert report.minors_checked == 4

    def test_parallel_report_identical(self):
        m = path_matrix(7)
        serial = is_totally_nonnegative(m)
        for jobs in (2, 3):
            assert is_totally_nonnegative(m, jobs=jobs) == serial

    def test_parallel_witness_identical(self):
        m = ExactMatrix(((1, 2, -1), (3, 4, 0), (5, 9, 1)))
        assert is_totally_nonnegative(m, jobs=2) == is_totally_nonnegative(m)

    def test_submatrix_inherits_from_path_matrix(self):
        # stripping the unit first column of a passing W gives M, whose
        # minors are a subset of W's; verify the implication concretely
        for n in range(2, 9):
            w = path_matrix(n)
            assert is_totally_nonnegative(w)
            assert is_totally_nonnegative(strip_leading_column(w))

    def test_rationals_handled(self):
        m = ExactMatrix(((Fraction(1, 2), 1), (0, Fraction(3, 4))))
        report = is_totally_nonnegative(m)
        assert report
        assert report.min_minor == 0

    def test_budget(self):
        # --d 17 has 3,124,549 minors and runs; --d 19 has 20,030,009 and is refused
        assert sum(comb(9, k) * comb(17, k) for k in range(1, 10)) <= tnn.SCAN_BUDGET
        with pytest.raises(BudgetExceededError, match="20030009"):
            is_totally_nonnegative(transfer_matrix(19))
        assert is_totally_nonnegative(transfer_matrix(19), max_order=3)

    def test_bad_arguments(self):
        m = ExactMatrix(((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            is_totally_nonnegative(m, max_order=3)
        with pytest.raises(ValueError):
            is_totally_nonnegative(m, jobs=0)


class TestAgainstCofactorOracle:
    def test_scan_matches_brute_force(self):
        for rows in cross_check_matrices():
            expected = expected_report(minor_scan(rows))
            for jobs in (1, 2):
                assert is_totally_nonnegative(ExactMatrix(rows), jobs=jobs) == expected, (rows, jobs)

    def test_iter_minors_matches_brute_force(self):
        for rows in cross_check_matrices():
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                got = [tuple(m) for m in iter_minors(rows, order)]
                assert got == all_minors(rows, order), (rows, order)

    def test_integral_input_gives_int_values(self):
        rows = ((Fraction(4, 2), 1), (3, Fraction(6, 3)))
        assert all(type(m.value) is int for k in (1, 2) for m in iter_minors(rows, k))
        assert type(determinant(rows)) is int


class TestAgainstBareissScan:
    def test_transfer_and_path_matrices(self):
        mats = [transfer_matrix(d) for d in range(1, 12)] + [path_matrix(n) for n in range(2, 13)]
        for m in mats:
            expected = expected_report(bareiss_scan(m.entries))
            for jobs in (1, 2, 3):
                assert is_totally_nonnegative(m, jobs=jobs) == expected, (m, jobs)

    def test_shaped_matrices_at_every_order(self):
        for rows in shaped_matrices():
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                expected = expected_report(bareiss_scan(rows, order))
                for jobs in (1, 2, 3):
                    got = is_totally_nonnegative(rows, max_order=order, jobs=jobs)
                    assert got == expected, (rows, order, jobs)

    def test_witness_orientation(self):
        # wide, so its columns are walked: its negative entries (0, 1) and (1, 0)
        # come first in (rows, cols) and in (cols, rows) order respectively
        wide = ((0, -1, 1), (-1, 0, 1))
        assert is_totally_nonnegative(wide).witness == MinorWitness((0,), (1,), -1)
        assert is_totally_nonnegative(tuple(zip(*wide))).witness == MinorWitness((0,), (1,), -1)
        # one negative minor: the transpose's witness is the transposed witness
        w = is_totally_nonnegative(((1, 2, 1), (1, 3, 1))).witness
        assert w == MinorWitness((0, 1), (1, 2), -1)
        tall = ((1, 1), (2, 3), (1, 1))
        assert is_totally_nonnegative(tall).witness == MinorWitness(w.cols, w.rows, w.value)


class TestWorkerCount:
    def test_workers_capped_by_tasks_and_cpus(self, monkeypatch):
        created = []

        class InlinePool:
            """Stands in for the process pool: records max_workers, maps in-process."""

            def __init__(self, max_workers=None):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(tnn, "ProcessPoolExecutor", InlinePool)
        m = ExactMatrix(((1, 2), (3, 4)))  # two tasks, one per top row
        serial = is_totally_nonnegative(m)
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        assert is_totally_nonnegative(m, jobs=10**9) == serial
        assert created == [2]
        wide = ExactMatrix(((1, 2, -1), (3, 4, 0)))  # three tasks, one per top column
        wide_serial = is_totally_nonnegative(wide)
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 2)
        assert is_totally_nonnegative(wide, jobs=10**9) == wide_serial
        assert created == [2, 2]
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: None)
        assert is_totally_nonnegative(m, jobs=8) == serial
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        assert is_totally_nonnegative(ExactMatrix(((5,),)), jobs=8)
        assert created == [2, 2]


class TestLgvCrossCheck:
    def test_low_order_minors_match_family_sums(self):
        for n in range(2, 11):
            g = lattice_graph(n)
            w = as_matrix(path_matrix(n))
            height = (n + 1) // 2
            for order in range(1, min(3, height) + 1):
                for rows in combinations(range(height), order):
                    for cols in combinations(range(n), order):
                        det = determinant(w.submatrix(rows, cols))
                        assert minor_via_lgv(g, rows, cols) == det, (n, rows, cols)


class TestReportSerialization:
    def test_json_shape(self):
        report = is_totally_nonnegative(ExactMatrix(((1, 2), (3, 4))))
        assert report.to_json_obj() == {
            "is_tnn": False,
            "minors_checked": 5,
            "min_minor": -2,
            "witness": {"rows": [0, 1], "cols": [0, 1], "value": -2},
        }

    def test_fraction_values_rendered(self):
        m = ExactMatrix(((Fraction(1, 2), 1), (1, 1)))
        obj = is_totally_nonnegative(m).to_json_obj()
        assert obj["min_minor"] == "-1/2"
        assert obj["witness"]["value"] == "-1/2"


class TestValidation:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(((1, 2), (3,)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(())

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(((1.5, 2), (3, 4)))

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(((True, 2), (3, 4)))

    def test_as_matrix_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert isinstance(m, ExactMatrix)
        assert m.entries == ((1, 2), (3, 4))
