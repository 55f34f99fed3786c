import json
import tracemalloc
from fractions import Fraction

import pytest

from polytnn import (
    PathMatrix,
    TransferMatrix,
    binomial,
    parse_matrix_csv,
    parse_matrix_json,
    path_matrix,
    strip_leading_column,
    transfer_matrix,
)

# the three classic low-order path matrices, frozen digit by digit
W2 = ((1, 2),)
W3 = ((1, 3, 3), (0, 1, 1))
W4 = ((1, 4, 6, 4), (0, 1, 3, 2))


class TestTransferMatrix:
    def test_smallest_case(self):
        assert transfer_matrix(1).entries == ((2,),)

    def test_dimension_two(self):
        assert transfer_matrix(2).entries == ((3, 3), (1, 1))

    def test_dimension_three(self):
        assert transfer_matrix(3).entries == ((4, 6, 4), (1, 3, 2))

    def test_shape(self):
        for d in range(1, 20):
            m = transfer_matrix(d)
            assert m.rows == d // 2 + 1
            assert m.cols == d

    def test_entry_formula(self):
        for d in range(1, 12):
            m = transfer_matrix(d)
            for i in range(m.rows):
                for j in range(m.cols):
                    expected = binomial(d + 1 - i, d - j) - binomial(i, d - j)
                    assert m.entries[i][j] == expected

    def test_entries_nonnegative(self):
        for d in range(1, 31):
            m = transfer_matrix(d)
            for row in m.entries:
                for value in row:
                    assert value >= 0

    def test_keeps_no_matrix_after_the_call(self):
        # each call builds its matrix afresh, and nothing holds it once the caller drops it
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in range(1, 120):
                transfer_matrix(d)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20
        assert transfer_matrix(7) == transfer_matrix(7)
        assert path_matrix(8) == path_matrix(8)

    def test_nonpositive_d_rejected(self):
        with pytest.raises(ValueError):
            transfer_matrix(0)
        with pytest.raises(ValueError):
            transfer_matrix(-3)


class TestPathMatrix:
    def test_classic_displays(self):
        assert path_matrix(2).entries == W2
        assert path_matrix(3).entries == W3
        assert path_matrix(4).entries == W4

    def test_shape(self):
        for n in range(2, 20):
            w = path_matrix(n)
            assert w.rows == (n + 1) // 2
            assert w.cols == n

    def test_first_column_is_unit(self):
        for n in range(2, 31):
            w = path_matrix(n)
            col = tuple(row[0] for row in w.entries)
            assert col == (1,) + (0,) * (w.rows - 1)

    def test_unit_diagonal_and_lower_zeros(self):
        for n in range(2, 16):
            w = path_matrix(n)
            for i in range(w.rows):
                assert w.entries[i][i] == 1
                for j in range(i):
                    assert w.entries[i][j] == 0

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            path_matrix(1)


class TestStripLeadingColumn:
    def test_recovers_transfer_matrix(self):
        for n in range(2, 31):
            assert strip_leading_column(path_matrix(n)) == transfer_matrix(n - 1)

    def test_result_type(self):
        m = strip_leading_column(path_matrix(5))
        assert isinstance(m, TransferMatrix)
        assert m.d == 4


class TestSerialization:
    def test_csv_frozen(self):
        assert path_matrix(4).to_csv() == "1,4,6,4\n0,1,3,2\n"
        assert transfer_matrix(1).to_csv() == "2\n"

    def test_json_round_trip(self):
        w = path_matrix(6)
        obj = json.loads(w.to_json())
        assert obj["n"] == 6
        assert tuple(tuple(r) for r in obj["rows"]) == w.entries
        assert parse_matrix_json(w.to_json()) == w.entries

    def test_transfer_json_keyed_by_dimension(self):
        m = transfer_matrix(4)
        obj = json.loads(m.to_json())
        assert obj["d"] == 4
        assert tuple(tuple(r) for r in obj["rows"]) == m.entries

    def test_parse_csv(self):
        assert parse_matrix_csv("1,2\n3,4\n") == ((1, 2), (3, 4))
        assert parse_matrix_csv("1,2\n3,4") == ((1, 2), (3, 4))
        assert parse_matrix_csv("1,2\n\n   \n3,4\n") == ((1, 2), (3, 4))  # blank lines are skipped

    def test_parse_csv_rationals(self):
        assert parse_matrix_csv("1/2,3\n-2/7,0\n") == (
            (Fraction(1, 2), 3),
            (Fraction(-2, 7), 0),
        )

    def test_parse_csv_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("1,2\n3\n")

    def test_parse_csv_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("1,x\n")
        with pytest.raises(ValueError):
            parse_matrix_csv("")

    def test_parse_csv_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_matrix_csv("1,1/0\n2,3\n")

    def test_parse_json_rationals(self):
        text = json.dumps({"rows": [["1/2", 3], ["-2/7", "0"]]})
        assert parse_matrix_json(text) == parse_matrix_csv("1/2,3\n-2/7,0\n")

    def test_parse_json_rejects_bad_cells(self):
        for cell in (True, 1.5, None, "x", "1/0", [1]):
            with pytest.raises(ValueError):
                parse_matrix_json(json.dumps({"rows": [[cell, 1], [1, 1]]}))

    def test_parse_json_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_matrix_json(json.dumps({"rows": [[1, 2], [3]]}))
        with pytest.raises(ValueError):
            parse_matrix_json(json.dumps({"cols": [[1]]}))
        for rows in ([], 3):
            with pytest.raises(ValueError, match='^parse_matrix_json: "rows" must be a nonempty list$'):
                parse_matrix_json(json.dumps({"rows": rows}))
        # json.loads recurses once per bracket; past the interpreter's limit that is a ValueError
        with pytest.raises(ValueError, match="^parse_matrix_json: nesting too deep$"):
            parse_matrix_json('{"rows": ' + "[" * 200_000 + "]" * 200_000 + "}")


class TestValidation:
    def test_wrong_grid_rejected(self):
        with pytest.raises(ValueError):
            TransferMatrix(3, ((1, 2, 3),))
        with pytest.raises(ValueError):
            PathMatrix(4, ((1, 2, 3, 4),))

    def test_csv_round_trip_through_parser(self):
        for n in range(2, 12):
            w = path_matrix(n)
            assert parse_matrix_csv(w.to_csv()) == w.entries
