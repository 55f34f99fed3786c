"""Exact total-nonnegativity certification by exhaustive minor enumeration.

A matrix is totally nonnegative when every minor, of every order, is
nonnegative. This module scales each row once by the lcm of its
denominators, computes every minor exactly by integer Bareiss elimination
divided by its rows' scales, enumerates all row/column subsets in
lexicographic order, and reports either a clean bill or the
lexicographically first negative minor as a concrete witness. The scan
never stops early at a negative minor for the minimum bookkeeping, so the
report is identical no matter how the work is split across processes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "ExactMatrix",
    "as_matrix",
    "determinant",
    "MinorWitness",
    "TnnReport",
    "iter_minors",
    "is_totally_nonnegative",
]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rectangular matrix over int/Fraction."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("matrix must have at least one row")
        width = len(self.entries[0])
        if width == 0:
            raise ValueError("matrix rows must be nonempty")
        for row in self.entries:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
            for x in row:
                if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                    raise ValueError(f"matrix entries must be int or Fraction, got {x!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(
            tuple(tuple(self.entries[i][j] for j in cols) for i in rows)
        )


def as_matrix(m) -> ExactMatrix:
    """Coerce an ExactMatrix, an object with .entries, or nested sequences."""
    if isinstance(m, ExactMatrix):
        return m
    entries = getattr(m, "entries", m)
    return ExactMatrix(tuple(tuple(row) for row in entries))


def _clear(entries) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators: (integer rows, scales)."""
    ints, scales = [], []
    for row in entries:
        scale = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return ints, scales


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; every division is exact."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _row_minors(ints, scales, order: int, rows: Sequence[int]):
    """Yield (cols, exact value) for every minor on rows, cols in order.

    The minor is the scaled one divided by the rows' positive scales: an
    int when their product is 1, else a Fraction.
    """
    scale = prod(scales[i] for i in rows)
    sub = [ints[i] for i in rows]
    for cols in combinations(range(len(ints[0])), order):
        det = _bareiss([[r[j] for j in cols] for r in sub])
        yield cols, det if scale == 1 else Fraction(det, scale)


def determinant(m) -> Scalar:
    """Exact determinant of a square matrix."""
    mat = as_matrix(m)
    if mat.rows != mat.cols:
        raise ValueError(f"determinant needs a square matrix, got {mat.rows}x{mat.cols}")
    [minor] = iter_minors(mat, mat.rows)
    return minor.value


class MinorWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Scalar


@dataclass(frozen=True)
class TnnReport:
    """Outcome of a full minor scan."""

    is_tnn: bool
    minors_checked: int
    min_minor: Scalar
    witness: Optional[MinorWitness] = None

    def __bool__(self) -> bool:
        return self.is_tnn

    def to_json_obj(self) -> dict:
        def num(x: Scalar):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        obj = {
            "is_tnn": self.is_tnn,
            "minors_checked": self.minors_checked,
            "min_minor": num(self.min_minor),
            "witness": None,
        }
        if self.witness is not None:
            obj["witness"] = {
                "rows": list(self.witness.rows),
                "cols": list(self.witness.cols),
                "value": num(self.witness.value),
            }
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def iter_minors(m, order: int):
    """Yield MinorWitness for every order-by-order minor, lexicographically."""
    mat = as_matrix(m)
    if order < 1 or order > min(mat.rows, mat.cols):
        raise ValueError(
            f"minor order must be in 1..{min(mat.rows, mat.cols)}, got {order}"
        )
    ints, scales = _clear(mat.entries)
    for rows in combinations(range(mat.rows), order):
        for cols, value in _row_minors(ints, scales, order, rows):
            yield MinorWitness(rows, cols, value)


def _scan_rows(args) -> tuple:
    """One worker task: fixed order and row set, all column subsets in order.

    Takes the arguments of _row_minors; returns (count, min value, the
    first negative minor as (cols, value) or None).
    """
    count = 0
    best: Optional[Scalar] = None
    first_neg = None
    for cols, val in _row_minors(*args):
        count += 1
        if best is None or val < best:
            best = val
        if val < 0 and first_neg is None:
            first_neg = (cols, val)
    return count, best, first_neg


def is_totally_nonnegative(m, max_order: Optional[int] = None, jobs: int = 1) -> TnnReport:
    """Scan all minors up to max_order (default: all orders) exactly.

    The task list is the sequence of (order, row set) pairs in increasing
    lexicographic order; results are folded in that same order, so the
    report (including the witness, which is the lexicographically first
    negative minor) does not depend on jobs. At most min(jobs, tasks, CPUs)
    worker processes run, and none when that is 1.
    """
    mat = as_matrix(m)
    limit = min(mat.rows, mat.cols)
    if max_order is None:
        max_order = limit
    if max_order < 1 or max_order > limit:
        raise ValueError(f"max_order must be in 1..{limit}, got {max_order}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ints, scales = _clear(mat.entries)
    tasks = [
        (ints, scales, order, rows)
        for order in range(1, max_order + 1)
        for rows in combinations(range(mat.rows), order)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = map(_scan_rows, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_rows, tasks, chunksize=8))
    total = 0
    min_minor: Optional[Scalar] = None
    witness: Optional[MinorWitness] = None
    for task, (count, best, first_neg) in zip(tasks, results):
        total += count
        if best is not None and (min_minor is None or best < min_minor):
            min_minor = best
        if witness is None and first_neg is not None:
            witness = MinorWitness(task[-1], *first_neg)
    assert min_minor is not None
    return TnnReport(witness is None, total, min_minor, witness)
