"""Transfer matrices and path matrices with exact integer entries.

The path matrix of order n has ceil(n/2) rows, n columns and entries
path_weight_closed_form(n, i, j), zero below the diagonal; its column 0
is always (1, 0, ..., 0) and dropping that column leaves exactly the
transfer matrix for d = n-1, with floor(d/2)+1 rows, d columns and
entries C(d+1-i, d-j) - C(i, d-j). transfer_matrix builds it that way, as
path_matrix(d + 1) without column 0.
Both forms are exposed because both are useful: the path matrix carries
the augmented leading column for the implied face count f_{-1} = 1, the
transfer matrix matches the entry formula indexed by dimension.
"""

from typing import NamedTuple

from .exactnum import _check_ints, _render, binomial

__all__ = [
    "TransferMatrix",
    "PathMatrix",
    "transfer_matrix",
    "path_matrix",
    "path_weight_closed_form",
    "strip_leading_column",
    "parse_matrix_csv",
    "parse_matrix_json",
]


def _check_grid(entries, rows: int, cols: int, what: str) -> None:
    if len(entries) != rows:
        raise ValueError(f"{what}: expected {_render(rows)} rows, got {len(entries)}")
    for row in entries:
        if len(row) != cols:
            raise ValueError(f"{what}: expected {_render(cols)} columns, got {len(row)}")
        _check_ints(row, f"{what}: entries must be integers")


def _rows_csv(entries) -> str:
    return "".join(",".join(str(e) for e in row) + "\n" for row in entries)


class TransferMatrix(NamedTuple("TransferMatrix", [("d", int), ("entries", tuple)])):
    """floor(d/2)+1 by d integer matrix mapping g-vectors to f-vectors."""

    __slots__ = ()

    def __new__(cls, d: int, entries: tuple[tuple[int, ...], ...]):
        _check_ints((d,), "TransferMatrix: d must be >= 1", least=1)
        entries = tuple(tuple(r) for r in entries)
        _check_grid(entries, d // 2 + 1, d, "TransferMatrix")
        return super().__new__(cls, d, entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.d

    def to_csv(self) -> str:
        return _rows_csv(self.entries)

    def to_json(self) -> str:
        import json

        obj = {"d": self.d, "rows": [list(r) for r in self.entries]}
        return json.dumps(obj, sort_keys=True)


class PathMatrix(NamedTuple("PathMatrix", [("n", int), ("entries", tuple)])):
    """ceil(n/2) by n integer matrix of lattice-path weight sums."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[int, ...], ...]):
        _check_ints((n,), "PathMatrix: n must be >= 2", least=2)
        entries = tuple(tuple(r) for r in entries)
        _check_grid(entries, (n + 1) // 2, n, "PathMatrix")
        return super().__new__(cls, n, entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.n

    def to_csv(self) -> str:
        return _rows_csv(self.entries)

    def to_json(self) -> str:
        import json

        obj = {"n": self.n, "rows": [list(r) for r in self.entries]}
        return json.dumps(obj, sort_keys=True)


def path_weight_closed_form(n: int, i: int, j: int) -> int:
    """Path-matrix entry C(n-i, n-j) - C(i, n-j) for i <= j, zero for i > j."""
    if i > j:
        return 0
    return binomial(n - i, n - j) - binomial(i, n - j)


def path_matrix(n: int) -> PathMatrix:
    """Build the path matrix of order n >= 2 from its entry formula."""
    _check_ints((n,), "path_matrix: n must be >= 2", least=2)
    entries = tuple(
        tuple(path_weight_closed_form(n, i, j) for j in range(n))
        for i in range((n + 1) // 2)
    )
    return PathMatrix(n, entries)


def transfer_matrix(d: int) -> TransferMatrix:
    """The transfer matrix for dimension d >= 1: path matrix d+1 minus column 0."""
    _check_ints((d,), "transfer_matrix: d must be >= 1", least=1)
    return strip_leading_column(path_matrix(d + 1))


def strip_leading_column(w: PathMatrix) -> TransferMatrix:
    """Drop column 0 of a path matrix, leaving the transfer matrix for d = n-1.

    The row counts agree, ceil(n/2) = floor((n-1)/2) + 1, and the remaining
    entries satisfy the transfer formula entry for entry.
    """
    return TransferMatrix(w.n - 1, tuple(row[1:] for row in w.entries))


def _entry_parser():
    """The cell reader of one parse: a cell, stripped, reads as an int, or as a Fraction
    where it holds a "/"; fractions is imported at the first such cell, once a parse."""
    fraction = None

    def parse_entry(text: str):
        nonlocal fraction
        s = text.strip()
        if "/" not in s:
            return int(s)
        if fraction is None:
            from fractions import Fraction as fraction
        try:
            return fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in matrix entry {s!r}") from None

    return parse_entry


def _rectangular(rows: list, what: str) -> tuple[tuple, ...]:
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{what}: ragged rows")
    return tuple(rows)


def parse_matrix_csv(text: str) -> tuple[tuple, ...]:
    """Parse a matrix from CSV: one row per line, comma-separated values.

    Entries are decimal integers or rationals written "p/q". Rows must all
    have the same length. Returns a tuple of row tuples with int entries,
    or Fraction entries where a denominator was given.
    """
    rows, parse_entry = [], _entry_parser()
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append(tuple(parse_entry(cell) for cell in line.split(",")))
    if not rows:
        raise ValueError("parse_matrix_csv: no rows found")
    return _rectangular(rows, "parse_matrix_csv")


def parse_matrix_json(text: str) -> tuple[tuple, ...]:
    """Parse a matrix from JSON of the form {"d": int | "n": int, "rows": [[...], ...]}.

    Cells are integers, or strings read as CSV cells are (so "p/q" works).
    """
    import json

    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("parse_matrix_json: nesting too deep") from None
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('parse_matrix_json: expected an object with a "rows" field')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError('parse_matrix_json: "rows" must be a nonempty list')
    out, parse_entry = [], _entry_parser()
    for r in rows:
        if not isinstance(r, list) or not all(type(e) in (int, str) for e in r):
            raise ValueError('parse_matrix_json: rows must be lists of integers or "p/q" strings')
        out.append(tuple(e if type(e) is int else parse_entry(e) for e in r))
    return _rectangular(out, "parse_matrix_json")
