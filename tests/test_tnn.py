import os
import random
import signal
import subprocess
import sys
import time
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


def plain(x) -> bool:
    """x is None, an int or a tuple of such: no Fraction and no MinorWitness."""
    return x is None or type(x) is int or (type(x) is tuple and all(map(plain, x)))


def share_report(rows, max_order, tops):
    """The walker's raw (least, scale, first) over tops, taken as one block, as (least
    minor, first), for comparison with bareiss_scan's least and located witness: first
    is the first negative minor's (order, rows, cols), or None."""
    ints, scales, wide = tnn._clear(as_matrix(rows))
    got = tnn._walker(len(ints[0]), max_order)(ints, scales, [tops], wide)
    assert plain(got), got  # what a forked child sends by marshal
    least, scale, first = got
    return Fraction(least, scale), first


def located(first):
    """(order, rows, cols) of an oracle's first negative (rows, cols, value), or None."""
    return None if first is None else (len(first[0]), first[0], first[1])


def random_deal(rng, record):
    """A tnn._fork_map that deals the top lines, shuffled, into workers parts at
    random cut points, some of them empty, scans each part here as one block and
    records (parts, results)."""

    def fork_map(scan, lines, workers):
        tops = rng.sample(range(lines), lines)
        cuts = sorted(rng.choices(range(lines + 1), k=workers - 1))
        parts = [tops[a:b] for a, b in zip([0] + cuts, cuts + [lines])]
        record.append((parts, [scan([part]) for part in parts]))
        return record[-1][1]

    return fork_map


def inline_fork_map(on_call):
    """A stand-in for tnn._fork_map: calls on_call(workers) (1 for a scan that forks
    nothing; the real one forks workers - 1 children), then scans here as if the
    first worker took every top line, as one block, and the others none."""

    def fork_map(scan, lines, workers):
        on_call(workers)
        return [scan([range(lines - 1, -1, -1)])] + [scan([]) for _ in range(workers - 1)]

    return fork_map


def walker_by_pid(monkeypatch, here, child):
    """Patch tnn._walker so that each walk runs here(walk, blocks) in this process
    and child(walk, blocks) in a forked one, walk(blocks) being the real walk. The
    blocks are dealt as the scan runs, so no worker knows its lines up front: the
    caller is told by its pid."""
    walker, caller = tnn._walker, os.getpid()

    def patched(short, max_order):
        real = walker(short, max_order)

        def walk(ints, scales, blocks, wide):
            return (here if os.getpid() == caller else child)(lambda b: real(ints, scales, b, wide), blocks)

        return walk

    monkeypatch.setattr(tnn, "_walker", patched)


def typed(report):
    """report with the types of its numbers, so that == tells -6 from Fraction(-6, 1)."""
    return report, type(report.min_minor), report.witness and type(report.witness.value)


def check_deal(lines, taken):
    """taken holds the blocks (lists of top lines) each reader of one dealing pipe
    took, in order: every top line exactly once, in at most 256 blocks, each whole:
    the contiguous descending ceil(lines / 256) lines from lines-1-j*that, fewer only
    in the last, which ends at line 0; and each reader's blocks largest first."""
    size = -(-lines // 256)
    blocks = [block for tops in taken for block in tops]
    assert len(blocks) <= 256
    assert sorted(top for block in blocks for top in block) == list(range(lines))
    for block in blocks:
        assert (lines - 1 - block[0]) % size == 0, (lines, block[0])
        assert block == list(range(block[0], max(block[0] - size, -1), -1)), (lines, block[0])
    for tops in taken:
        assert [block[0] for block in tops] == sorted((block[0] for block in tops), reverse=True)


def raise_error():
    raise RuntimeError("share failed")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def line_scaled_matrices():
    """Seeded p/q matrices whose walked lines (rows of a tall or square matrix,
    columns of a wide one) each have their own denominator, so tables and
    negative minors come with many different scales; some entries get a
    denominator of their own on top."""
    rng = random.Random(20261020)
    mats = []
    for r, c in [(2, 2), (3, 3), (4, 4), (2, 6), (6, 2), (3, 5), (5, 3), (4, 7), (7, 4), (5, 6), (6, 5)]:
        for trial in range(3):
            dens = [rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 10)) for _ in range(max(r, c))]
            mats.append(tuple(
                tuple(
                    Fraction(rng.randint(-5, 9), dens[j if c > r else i] * (rng.randint(1, 3) if trial == 2 else 1))
                    for j in range(c)
                )
                for i in range(r)
            ))
    return mats


def walker_matrices():
    """Seeded matrices for each short side 1..8 (short + 1 walked lines, 8 for short
    8): the totally positive Pascal matrix C(i + j, i) with one entry lowered, each
    walked line then multiplied by its own factor up to 10**24 and divided by its own
    denominator up to 9. For short sides 1..7 one is tall with a random entry lowered;
    for each, one is transposed (square for short 8) with its leading square block's
    determinant made -1, so that its first negative minor can be of a high order."""
    rng = random.Random(20261021)
    mats = []
    for short in range(1, 9):
        long = short + (short < 8)
        for wide in (False, True)[short == 8:]:
            lines = [[comb(i + j, i) for j in range(short)] for i in range(long)]
            if wide:
                lines[short - 1][short - 1] -= 2
            else:
                lines[rng.randrange(1, long)][rng.randrange(short > 1, short)] -= rng.randint(0, 3)
            dens = [rng.randint(1, 9) for _ in range(long)]
            factors = [rng.randint(1, 10**24) for _ in range(long)]
            lines = [[Fraction(x * f, d) for x in line] for line, f, d in zip(lines, factors, dens)]
            mats.append(tuple(zip(*lines)) if wide else tuple(map(tuple, lines)))
    return mats


def dependent_matrices():
    """Seeded matrices whose walked lines (rows of a tall or square matrix, columns of
    a wide one) carry a planted linear dependency: a zero line, a repeated line, a
    proportional line, a line that is the sum of two others, or rank r <= short - 2
    for all of them (an n x r times an r x short product). So some dependent line
    set has fewer lines than the short side and line 0 below it, and the walk has a
    subtree to skip. Each plant goes on random small ints and on the totally positive
    Pascal matrix C(i + j, i) with a leading square block's determinant made -1 and
    the planted lines adjacent (or a rank-r product of Pascal factors, TNN), so that
    negative minors come at several orders. Each matrix is over ints or has each
    walked line divided by its own denominator, and is tall or square and wide."""
    rng = random.Random(20261023)
    mats = []
    for long, short in [(5, 4), (7, 4), (6, 5), (7, 5), (5, 5), (6, 6)]:
        for plant in ("zero", "repeat", "proportional", "sum", "rank"):
            for pascal in (False, True):
                if pascal:
                    lines = [[comb(i + j, i) for j in range(short)] for i in range(long)]
                    k = rng.randrange(2, short)
                    lines[k][k] -= 2
                    i = rng.randrange(3, long)
                    j, h = i - 1, i - 2
                else:
                    lines = [[rng.randint(0, 6) for _ in range(short)] for _ in range(long)]
                    i, j, h = rng.sample(range(1, long), 3)  # line 0 is below them all
                if plant == "zero":
                    lines[i] = [0] * short
                elif plant == "repeat":
                    lines[i] = list(lines[j])
                elif plant == "proportional":
                    factor = rng.choice((-3, 2, 5))
                    lines[i] = [factor * x for x in lines[j]]
                elif plant == "sum":
                    lines[i] = [a + b for a, b in zip(lines[j], lines[h])]
                else:
                    r = rng.randint(1, short - 2)
                    left = [[comb(x + a, a) if pascal else rng.randint(-1, 3) for a in range(r)] for x in range(long)]
                    right = [[comb(a + y, a) if pascal else rng.randint(-1, 3) for y in range(short)] for a in range(r)]
                    lines = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
                if rng.random() < 0.5:
                    lines = [[Fraction(x, d) for x in line] for line, d in zip(lines, (rng.randint(1, 9) for _ in lines))]
                for wide in (False, True)[: 1 + (long > short)]:
                    mats.append(tuple(zip(*lines)) if wide else tuple(map(tuple, lines)))
    return mats


def counting_min(monkeypatch, short, max_order):
    """A list that grows by one for each table the walker (short, max_order) builds:
    a counting min in its globals, where it takes each table's least entry."""
    calls = []
    monkeypatch.setitem(tnn._walker(short, max_order).__globals__, "min", lambda t: calls.append(1) or min(t))
    return calls


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

    def test_parallel_report_identical(self, fork_always):
        m = path_matrix(7)
        serial = is_totally_nonnegative(m)
        for jobs in (2, 3):
            assert is_totally_nonnegative(m, jobs=jobs) == serial

    def test_parallel_witness_identical(self, fork_always):
        m = ExactMatrix(((1, 2, -1), (3, 4, 0), (5, 9, 1)))
        assert is_totally_nonnegative(m, jobs=2) == is_totally_nonnegative(m)

    @pytest.mark.parametrize("value", [-(2**80 + 1), Fraction(-(2**80 + 1), 3**41)])
    def test_forked_share_sends_big_values_unchanged(self, monkeypatch, fork_always, value):
        # rows 1 and 2 are zero, so the least minor and the witness are row 0's first
        # entry; the caller takes no top row, so its one child walks all three and sends them
        m = ExactMatrix(((value, 0, 0), (0, 0, 0), (0, 0, 0)))
        serial = is_totally_nonnegative(m)
        walker_by_pid(monkeypatch, lambda walk, blocks: walk(()), lambda walk, blocks: walk(blocks))
        report = is_totally_nonnegative(m, jobs=2)
        assert fork_always == [os.getpid()]
        assert typed(report) == typed(serial)
        assert report == TnnReport(False, 19, value, MinorWitness((0,), (0,), value))

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
    def test_scan_matches_brute_force(self, fork_always):
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
    def test_transfer_and_path_matrices(self, fork_always):
        mats = [transfer_matrix(d) for d in range(1, 12)] + [path_matrix(n) for n in range(2, 13)]
        for m in mats:
            expected = expected_report(bareiss_scan(m.entries))
            for jobs in (1, 2, 3):
                assert is_totally_nonnegative(m, jobs=jobs) == expected, (m, jobs)

    def test_shaped_matrices_at_every_order(self, fork_always):
        for rows in shaped_matrices():
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                expected = expected_report(bareiss_scan(rows, order))
                for jobs in (1, 2, 3):
                    got = is_totally_nonnegative(rows, max_order=order, jobs=jobs)
                    assert got == expected, (rows, order, jobs)

    def test_lines_with_different_scales(self, fork_always):
        mats = line_scaled_matrices()
        assert sum(bareiss_scan(rows)[2] is not None for rows in mats) >= 25
        for rows in mats:
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                expected = expected_report(bareiss_scan(rows, order))
                for jobs in (1, 2):
                    got = is_totally_nonnegative(rows, max_order=order, jobs=jobs)
                    assert got == expected, (rows, order, jobs)

    def test_least_minor_is_compared_over_its_scale(self, fork_always):
        # row 1 (scale 1) is walked before row 0 (scale 2): its -1 must stay the
        # least against row 0's table entry -1, which is the minor -1/2
        rows = ((Fraction(-1, 2), 1), (-1, 1))
        expected = TnnReport(False, 5, -1, MinorWitness((0,), (0,), Fraction(-1, 2)))
        assert expected == expected_report(bareiss_scan(rows))
        for jobs in (1, 2):
            assert is_totally_nonnegative(rows, jobs=jobs) == expected

    @pytest.mark.parametrize(
        "seed, shape, entries, answer",
        [
            # CI's long.csv: 400 walked columns, so 200 blocks of 2
            (3, (2, 400), (0, 9), (False, 80600, -81, MinorWitness((0, 1), (0, 1), -69))),
            # 3,000 walked columns, so 250 blocks of 12
            (4, (1, 3000), (-5, 9), (False, 3000, -5, MinorWitness((0,), (0,), -2))),
        ],
    )
    def test_long_inputs_in_multi_line_blocks(self, seed, shape, entries, answer):
        # one worker takes every block: the report is the Bareiss scan's, value and type
        rng = random.Random(seed)
        rows = tuple(tuple(rng.randint(*entries) for _ in range(shape[1])) for _ in range(shape[0]))
        report = is_totally_nonnegative(rows, jobs=1)
        assert typed(report) == typed(expected_report(bareiss_scan(rows)))
        assert report == answer

    def test_witness_orientation(self, fork_always):
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
        # an order-4 witness whose rows are not its cols: the 5x11 Pascal matrix
        # C(i + j, i) with entry (4, 7) lowered by 1 (4,367 minors), wide, its transpose
        # and, with row 2 divided by 3, a witness value that is not whole
        pascal = [[comb(i + j, i) for j in range(11)] for i in range(5)]
        pascal[4][7] -= 1
        scaled = [[Fraction(x, 3) for x in row] if i == 2 else row for i, row in enumerate(pascal)]
        cases = [
            (pascal, -105, MinorWitness((0, 2, 3, 4), (6, 7, 8, 9), -5)),
            (list(zip(*pascal)), -105, MinorWitness((6, 7, 8, 9), (0, 2, 3, 4), -5)),
            (scaled, -35, MinorWitness((0, 2, 3, 4), (6, 7, 8, 9), Fraction(-5, 3))),
        ]
        for rows, least, witness in cases:
            for jobs in (1, 2, 3):
                report = is_totally_nonnegative(rows, jobs=jobs)
                assert typed(report) == typed(TnnReport(False, 4367, least, witness)), (rows, jobs)


class TestWalker:
    def test_matches_the_bareiss_scan(self):
        orders = set()
        for rows in walker_matrices() + dependent_matrices():
            ints, scales, wide = tnn._clear(as_matrix(rows))
            short, lines = len(ints[0]), len(ints)
            for max_order in range(1, short + 1):
                walk = tnn._walker(short, max_order)
                assert tnn._walker(short, max_order) is walk
                for tops in (range(lines), range(0, lines - 1, 2)):
                    count, least, first = bareiss_scan(rows, max_order, None if len(tops) == lines else set(tops))
                    assert share_report(rows, max_order, tops) == (least, located(first)), (rows, max_order, tops)
                    orders.add(first and len(first[0]))
                    if len(tops) == lines:
                        assert is_totally_nonnegative(rows, max_order).minors_checked == count
        assert orders == {None, 1, 2, 3, 4, 5, 6}

    def test_twelve_by_twelve_share(self):
        # the largest walker a scan in SCAN_BUDGET compiles: 12 nested loops
        rows = [[comb(i + j, i) for j in range(12)] for i in range(12)]
        rows[4][4] -= 2  # the first negative minor in rows 0..4 is of order 4
        count, least, first = bareiss_scan(rows, tops={4})
        assert first == ((0, 1, 3, 4), (3, 4, 5, 6), -19)
        assert share_report(rows, 12, [4]) == (least, located(first))
        assert is_totally_nonnegative(rows).minors_checked == comb(24, 12) - 1  # sum of C(12, k)^2, k >= 1

    def test_built_before_the_first_fork(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            tnn, "_fork_map", inline_fork_map(lambda workers: built.append(tnn._walker.cache_info().currsize))
        )
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 2)
        tnn._walker.cache_clear()
        m = transfer_matrix(7)  # 4x7: one walker, short side 4 and orders 1..4
        assert is_totally_nonnegative(m, jobs=2) == is_totally_nonnegative(m)
        assert built == [1, 1]


class TestDependentLines:
    """The walk skips every line set that holds a linearly dependent one (a table of
    zeros); the reports must be the per-minor Bareiss scan's all the same."""

    def test_planted_dependencies_are_skipped(self, monkeypatch):
        # TestWalker checks their reports; here the walk must build fewer tables than
        # one per line set, since some dependent set has a line below it
        for rows in dependent_matrices():
            ints, scales, wide = tnn._clear(as_matrix(rows))
            short, lines = len(ints[0]), len(ints)
            built = counting_min(monkeypatch, short, short)
            tnn._walker(short, short)(ints, scales, [range(lines)], wide)
            assert len(built) < sum(comb(lines, k) for k in range(1, short + 1)), rows

    def test_planted_dependencies_forked(self, fork_always):
        mats = dependent_matrices()[::3]
        assert sum(bareiss_scan(rows)[2] is not None for rows in mats) >= 20
        for rows in mats:
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                expected = expected_report(bareiss_scan(rows, order))
                for jobs in (2, 3):
                    assert is_totally_nonnegative(rows, max_order=order, jobs=jobs) == expected, (rows, order, jobs)

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 1), (1, 0)),
            ((0, 1, 0), (1, 0, 0)),
            ((1, 1, 0), (1, 1, 1), (0, 1, 1)),
            ((1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0)),
            ((Fraction(1, 2), Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (0, 1, 1)),
        ],
    )
    def test_a_zero_beside_positives_is_not_skipped(self, fork_always, rows):
        # the first negative minor lies below a table whose least entry is 0 but which is
        # not all zeros: its lines are independent, so the walk must go on below it
        count, least, first = bareiss_scan(rows)
        assert first is not None and least == first[2] < 0
        wide = len(rows[0]) > len(rows)
        lines = first[1] if wide else first[0]
        above = [m.value for m in iter_minors(rows, len(lines) - 1) if (m.cols if wide else m.rows) == lines[1:]]
        assert min(above) == 0 < max(above)
        expected = expected_report((count, least, first))
        for jobs in (1, 2):
            assert is_totally_nonnegative(rows, jobs=jobs) == expected

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("factor", [2, Fraction(3, 2)])
    def test_only_zeros_on_one_dependent_pair(self, fork_always, wide, factor):
        # a totally positive Vandermonde matrix whose top line is a multiple of the next:
        # the zero minors are those on both lines, all below the one table of zeros, so
        # the least minor 0 is only seen if that table is recorded before it is skipped
        lines = [[x**j for j in range(4)] for x in (1, 2, 3, 4)]
        lines.append([factor * v for v in lines[3]])
        rows = tuple(zip(*lines)) if wide else tuple(map(tuple, lines))
        for order in range(1, 5):
            zeros = {(m.cols if wide else m.rows) for k in range(1, order + 1) for m in iter_minors(rows, k) if m.value == 0}
            assert all({3, 4} <= set(line_set) for line_set in zeros) and bool(zeros) == (order > 1)
            scan = bareiss_scan(rows, order)
            assert scan[1:] == (0 if order > 1 else 1, None)
            expected = expected_report(scan)
            for jobs in (1, 2):
                assert is_totally_nonnegative(rows, max_order=order, jobs=jobs) == expected, (order, jobs)

    def test_transfer_matrices_build_fewer_tables(self, monkeypatch):
        # M_11 (6x11) and M_13 (7x13) walk their columns; without the skip they would
        # build one table per column set of size <= 6 or 7: 1,485 and 5,811
        for d, built, unpruned in ((11, 987, 1485), (13, 3627, 5811)):
            short = (d + 2) // 2
            tables = counting_min(monkeypatch, short, short)
            assert is_totally_nonnegative(transfer_matrix(d))
            assert len(tables) == built, d
            assert sum(comb(d, k) for k in range(1, short + 1)) == unpruned


class TestFold:
    def test_any_partition_in_any_order_gives_the_serial_report(self, monkeypatch):
        # the top lines dealt at random, shuffled, into parts some of which are empty, so
        # the least value, its scale and the first negative minor can come from any
        # worker, in any position, beside workers that took no line; the report must be
        # the serial one in value and in type, an int exactly when the value is whole
        rng, dealt = random.Random(20261022), []
        monkeypatch.setattr(tnn, "_fork_map", random_deal(rng, dealt))
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        for rows in line_scaled_matrices() + shaped_matrices() + walker_matrices():
            lines = max(len(rows), len(rows[0]))
            for order in range(1, min(len(rows), len(rows[0])) + 1):
                serial = is_totally_nonnegative(rows, max_order=order)
                for x in (serial.min_minor, serial.witness and serial.witness.value):
                    assert type(x) is not Fraction or x.denominator > 1
                for _ in range(4 if lines > 1 else 0):
                    got = is_totally_nonnegative(rows, max_order=order, jobs=rng.randint(2, lines))
                    assert typed(got) == typed(serial), (rows, order, dealt[-1][0])
        split = sum(sum(first is not None for _, _, first in results) > 1 for _, results in dealt)
        assert split >= 500  # scans with negative minors taken by more than one worker
        assert sum(not all(parts) for parts, _ in dealt) >= 500  # and with a worker that took no line

    @pytest.mark.parametrize("empty_first", [False, True])
    def test_a_worker_that_took_no_line_is_skipped(self, monkeypatch, empty_first):
        # a fast worker can take every chunk; the other's walk returns (1, 0, None),
        # 1/0 above every minor, which the fold must skip: no Fraction has scale 0
        dealt = []

        def fork_map(scan, lines, workers):
            results = inline_fork_map(lambda workers: None)(scan, lines, workers)
            dealt.append(results[::-1] if empty_first else results)
            return dealt[-1]

        monkeypatch.setattr(tnn, "_fork_map", fork_map)
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 2)
        for rows in line_scaled_matrices()[::4] + [((Fraction(1, 2), 1), (0, Fraction(3, 4)))]:
            serial = typed(is_totally_nonnegative(rows))
            assert typed(is_totally_nonnegative(rows, jobs=2)) == serial, rows
            assert dealt[-1][0 if empty_first else 1] == (1, 0, None)

    @pytest.mark.parametrize(
        "rows",
        [
            # jobs 1 gave the int -6 and jobs 2 and 3 Fraction(-6, 1), as the scale of the
            # share whose least value won the fold was 1 or not; the second, the other way
            "1/2,1,1/2,-1 0,1,1,3 2,0,1,0 2,1/2,3/2,2 2,0,3/2,1 1/2,1,1/2,-1",
            "3/2,3,3,1/2 -1,1,1,-1 0,3/2,1/2,2 1,0,1,-1 0,0,0,0 0,2,1,3",
        ],
    )
    def test_whole_least_minor_is_an_int_for_every_jobs(self, fork_always, rows):
        rows = tuple(tuple(map(Fraction, row.split(","))) for row in rows.split())
        reports = [is_totally_nonnegative(rows, jobs=jobs) for jobs in (1, 2, 3)]
        assert [r.min_minor for r in reports] == [min(m.value for k in (1, 2, 3, 4) for m in iter_minors(rows, k))] * 3
        assert all(type(r.min_minor) is int for r in reports), reports
        assert len({typed(r) for r in reports}) == 1


class TestWorkerCount:
    def test_workers_capped_by_tasks_and_cpus(self, monkeypatch):
        forked = []
        monkeypatch.setattr(tnn, "_fork_map", inline_fork_map(forked.append))
        m = ExactMatrix(((1, 2), (3, 4)))  # two top rows
        serial = is_totally_nonnegative(m)
        assert forked == [1]  # jobs 1: one worker, through the same route
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        assert is_totally_nonnegative(m, jobs=10**9) == serial
        assert forked[-1] == 2  # capped by the lines: one child
        wide = ExactMatrix(((1, 2, -1), (3, 4, 0)))  # three top columns
        wide_serial = is_totally_nonnegative(wide)
        assert is_totally_nonnegative(wide, jobs=10**9) == wide_serial
        assert forked[-1] == 3  # capped by the lines
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 2)
        assert is_totally_nonnegative(wide, jobs=10**9) == wide_serial
        assert forked[-1] == 2  # capped by the CPUs
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        assert is_totally_nonnegative(wide, jobs=2) == wide_serial
        assert forked[-1] == 2  # capped by jobs
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: None)
        assert is_totally_nonnegative(m, jobs=8) == serial
        assert forked[-1] == 1  # no CPU count: one worker
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        assert is_totally_nonnegative(ExactMatrix(((5,),)), jobs=8)
        assert forked == [1, 2, 1, 3, 2, 2, 1, 1]

    def test_one_child_per_share_but_the_callers(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(tnn.os, "fork", lambda: forks.append(os.getpid()) or fork())
        m = transfer_matrix(7)  # 4x7: seven top columns
        serial = is_totally_nonnegative(m)
        for jobs, children in ((1, 0), (2, 1), (3, 2), (7, 6), (99, 6)):
            forks.clear()
            assert is_totally_nonnegative(m, jobs=jobs) == serial
            assert forks == [os.getpid()] * children, jobs
        assert_no_child_left()

    def test_small_scans_fork_but_not_without_os_fork(self, monkeypatch):
        # no minor count keeps a scan serial: only jobs, lines, CPUs and os.fork count
        forked = []
        monkeypatch.setattr(tnn, "_fork_map", inline_fork_map(forked.append))
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 4)
        small = transfer_matrix(9)  # 5x9: 2,001 minors
        assert is_totally_nonnegative(small, jobs=2) == is_totally_nonnegative(small)
        assert forked == [2, 1]  # jobs 2, then jobs 1
        monkeypatch.delattr(tnn.os, "fork")
        forked.clear()
        assert is_totally_nonnegative(small, jobs=2) == is_totally_nonnegative(small)
        assert forked == [1, 1]


class TestDeal:
    """Every scan's workers take the top lines off one pipe as they free up
    (tnn._tops), in contiguous blocks: whatever the interleaving, every top is taken
    exactly once, in whole blocks, largest first, at most 256 of them."""

    @pytest.mark.parametrize("lines", [1, 2, 255, 256, 257, 40000])
    def test_readers_interleaved_in_one_process(self, monkeypatch, lines):
        # three readers of the pipe a lone worker's _fork_map fills, advanced one block
        # at a time in a seeded random order, so each reads its next block while others
        # hold theirs
        real, reads, rng = tnn._tops, [], random.Random(lines)
        monkeypatch.setattr(tnn, "_tops", lambda read, blocks: reads.append((read, blocks)) or real(read, blocks))
        monkeypatch.setattr(tnn, "_fork", None)  # a lone worker forks nothing

        def scan(blocks):
            readers = [blocks, real(*reads[0]), real(*reads[0])]
            taken, live = [[], [], []], [0, 1, 2]
            while live:
                r = rng.choice(live)
                block = next(readers[r], None)
                if block is None:
                    live.remove(r)
                else:
                    assert type(block) is range
                    taken[r].append(list(block))
            return taken

        [taken] = tnn._fork_map(scan, lines, 1)
        check_deal(lines, taken)
        assert all(taken) or lines < 255

    @pytest.mark.parametrize("lines", [1, 2, 255, 256, 257, 40000])
    def test_forked_workers(self, lines):
        # the caller and two children, each pausing at every block it takes, so they
        # take turns; with one or two blocks some worker takes none
        def scan(blocks):
            taken = []
            for block in blocks:
                assert type(block) is range
                time.sleep(0.002)
                taken.append(list(block))
            return taken

        taken = tnn._fork_map(scan, lines, 3)
        assert len(taken) == 3
        check_deal(lines, taken)
        assert sum(map(bool, taken)) >= (2 if lines >= 255 else 1)
        assert_no_child_left()


class TestChildFailure:
    @pytest.mark.parametrize("action, message", [(raise_error, "exited with code 1"), (kill_self, "died by signal 9")])
    def test_failed_child_raises_and_is_reaped(self, monkeypatch, capfd, action, message):
        walker_by_pid(monkeypatch, lambda walk, blocks: walk(blocks), lambda walk, blocks: action() or walk(blocks))
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 3)
        m = transfer_matrix(13)  # 7x13: 77,519 minors
        for jobs in (2, 3):
            with pytest.raises(ChildProcessError, match=message):
                is_totally_nonnegative(m, jobs=jobs)
            assert_no_child_left()
            assert capfd.readouterr().err.count("RuntimeError: share failed\n") == (jobs - 1) * (action is raise_error)
        monkeypatch.undo()
        assert is_totally_nonnegative(m, jobs=2)

    def test_callers_share_failing_kills_the_children(self, monkeypatch):
        def here(walk, blocks):
            raise RuntimeError("caller's share failed")

        # a child sleeps: it is killed long before this ends
        walker_by_pid(monkeypatch, here, lambda walk, blocks: time.sleep(60) or walk(blocks))
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 3)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="caller's share failed"):
            is_totally_nonnegative(transfer_matrix(13), jobs=3)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_failed_fork_closes_its_pipes_and_reaps_the_child(self, monkeypatch):
        # the second fork fails (as when the process limit is reached): the error reaches
        # the caller, the child already forked is reaped, and no pipe end is left open
        fork, pipe, forks, fds = os.fork, os.pipe, [], []

        def failing_fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(tnn.os, "fork", failing_fork)
        monkeypatch.setattr(tnn.os, "pipe", lambda: fds.extend(pipe()) or tuple(fds[-2:]))
        monkeypatch.setattr(tnn.os, "cpu_count", lambda: 3)
        with pytest.raises(BlockingIOError):
            is_totally_nonnegative(transfer_matrix(9), jobs=3)
        assert len(forks) == 2 and len(fds) == 6  # the dealing pipe and one per fork
        assert_no_child_left()
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)

    @pytest.mark.parametrize(
        "action, cause",
        [("raise RuntimeError('share failed')", "RuntimeError: share failed\n"), ("os.kill(os.getpid(), signal.SIGKILL)", "")],
    )
    def test_cli_exits_1_without_a_report(self, action, cause):
        script = (
            "import os, runpy, signal\n"
            "import polytnn.tnn as tnn\n"
            "fork = tnn._fork\n"
            "def child_scan(scan):\n"
            f"    {action}\n"
            "    return scan()\n"
            "tnn._fork = lambda scan: fork(lambda: child_scan(scan))\n"
            "os.cpu_count = lambda: 2\n"
            "runpy.run_module('polytnn', run_name='__main__')\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script, "tnn", "--d", "13", "--jobs", "2"], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 1
        assert res.stdout == ""
        # a child that raised printed its traceback before the caller's error line
        *child, error = res.stderr.splitlines(keepends=True)
        assert error.startswith("error: scan worker ")
        assert "".join(child).endswith(cause)
        assert bool(child) == bool(cause)


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

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1, True),), "matrix entries must be int or Fraction, got True"),
            (((Fraction(1, 2), "1"),), "matrix entries must be int or Fraction, got '1'"),
            (((1, 2), (3, 1.0)), "matrix entries must be int or Fraction, got 1.0"),
            (((),), "matrix rows must be nonempty"),
            (((1, 2), (3,)), "matrix rows must all have the same length"),
            ((), "matrix must have at least one row"),
        ],
    )
    def test_messages(self, entries, message):
        with pytest.raises(ValueError) as err:
            ExactMatrix(entries)
        assert str(err.value) == message

    def test_as_matrix_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert isinstance(m, ExactMatrix)
        assert m.entries == ((1, 2), (3, 4))
