"""Exact total-nonnegativity certification by exhaustive minor enumeration.

A matrix is totally nonnegative when every minor, of every order, is
nonnegative. This module walks the lines of the longer side (the minors of
the transpose are the same), scales each by the lcm of its denominators, and
builds the minors on lines (r0,) + S, r0 < S[0], from those on S by integer
Laplace expansion along line r0. It reports a clean bill or the
lexicographically first negative minor as a witness. The scan never stops
early, so the report is identical however the work is split across processes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, lcm, prod
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BudgetExceededError

Scalar = Union[int, Fraction]
SCAN_BUDGET = 10**7  # most minors one scan checks; --d 17 has 3,124,549

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


def _clear(mat: ExactMatrix) -> tuple[list[list[int]], list[int], bool]:
    """(integer lines, scales, wide): the lines of the longer side (the columns
    of a wide matrix), each scaled by the lcm of its denominators."""
    wide = mat.cols > mat.rows
    ints, scales = [], []
    for line in zip(*mat.entries) if wide else mat.entries:
        scale = lcm(*(x.denominator for x in line))
        ints.append([x.numerator * (scale // x.denominator) for x in line])
        scales.append(scale)
    return ints, scales, wide


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


def determinant(m) -> Scalar:
    """Exact determinant of a square matrix."""
    mat = as_matrix(m)
    if mat.rows != mat.cols:
        raise ValueError(f"determinant needs a square matrix, got {mat.rows}x{mat.cols}")
    ints, scales, _ = _clear(mat)
    det, scale = _bareiss(ints), prod(scales)
    return det if scale == 1 else Fraction(det, scale)


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


def _drops(short: int, order: int) -> list:
    """(T, even terms, odd terms) per order-subset T of range(short), in lex order;
    a term (c, q) pairs c in T with the lex rank q of T without c."""
    rank = {t: i for i, t in enumerate(combinations(range(short), order - 1))}
    subsets = list(combinations(range(short), order))
    terms = [[(c, rank[t[:i] + t[i + 1:]]) for i, c in enumerate(t)] for t in subsets]
    return [(t, ts[0::2], ts[1::2]) for t, ts in zip(subsets, terms)]


def _minor(wide: bool, drop: list, lines: tuple, scale: int, table: list, i: int) -> MinorWitness:
    """Entry i of the table on lines, divided by its scale, as a MinorWitness."""
    short = drop[i][0]
    value = table[i] if scale == 1 else Fraction(table[i], scale)
    return MinorWitness(*((short, lines) if wide else (lines, short)), value)


def _tables(ints, scales, wide: bool, max_order: int, tops):
    """Yield (order, minor, table) per line set of size <= max_order, top line in tops.

    table[i] is the set's scale times its minor on the i-th short-side subset (lex
    order), and minor(i) is that minor. Depth first, so only the current path's tables are held."""
    drops = [_drops(len(ints[0]), k) for k in range(1, max_order + 1)]
    stack = [(top, (), 1, [1]) for top in tops]  # (r0, S, scale and table of S); det() = 1
    while stack:
        r0, lines, scale, table = stack.pop()
        lines, scale, line, child = (r0,) + lines, scale * scales[r0], ints[r0], []
        for _, even, odd in drops[len(lines) - 1]:  # Laplace expansion along line r0
            acc = 0
            for c, q in even:
                acc += line[c] * table[q]
            for c, q in odd:
                acc -= line[c] * table[q]
            child.append(acc)
        yield len(lines), partial(_minor, wide, drops[len(lines) - 1], lines, scale, child), child
        if len(lines) < max_order:
            stack += [(r, lines, scale, child) for r in range(r0)]


def iter_minors(m, order: int):
    """Yield MinorWitness for every order-by-order minor, lexicographically."""
    mat = as_matrix(m)
    if order < 1 or order > min(mat.rows, mat.cols):
        raise ValueError(f"minor order must be in 1..{min(mat.rows, mat.cols)}, got {order}")
    ints, scales, wide = _clear(mat)
    tables = _tables(ints, scales, wide, order, range(len(ints)))
    yield from sorted(minor(i) for k, minor, t in tables if k == order for i in range(len(t)))


def _fold(parts) -> tuple:
    """Sum the counts, keep the least value and the least witness in (order, rows, cols)."""
    total, least, first = 0, None, None
    for count, low, w in parts:
        total += count
        least = low if least is None else min(least, low)
        if w is not None and (first is None or (len(w.rows), w) < (len(first.rows), first)):
            first = w
    return total, least, first


def _scan_top(args) -> tuple:
    """One worker task: _fold the size, least minor and first negative minor of each
    table; the first negative entry is its least in (order, rows, cols)."""
    def parts():
        for _, minor, table in _tables(*args):
            low = min(table)
            first = minor(next(i for i, v in enumerate(table) if v < 0)) if low < 0 else None
            yield len(table), minor(table.index(low)).value, first
    return _fold(parts())


def is_totally_nonnegative(m, max_order: Optional[int] = None, jobs: int = 1) -> TnnReport:
    """Scan all minors up to max_order (default: all orders) exactly.

    More than SCAN_BUDGET minors raise BudgetExceededError up front. One task
    per walked line, largest first; the report (witness: the lexicographically
    first negative minor) does not depend on jobs. min(jobs, tasks, CPUs)
    worker processes run; when that is 1, one walk covers every line."""
    mat = as_matrix(m)
    limit = min(mat.rows, mat.cols)
    if max_order is None:
        max_order = limit
    if max_order < 1 or max_order > limit:
        raise ValueError(f"max_order must be in 1..{limit}, got {max_order}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = sum(comb(mat.rows, k) * comb(mat.cols, k) for k in range(1, max_order + 1))
    if work > SCAN_BUDGET:
        raise BudgetExceededError(f"the scan has {work} minors, over the budget of {SCAN_BUDGET}")
    ints, scales, wide = _clear(mat)
    tasks = [(ints, scales, wide, max_order, (top,)) for top in reversed(range(len(ints)))]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [_scan_top((ints, scales, wide, max_order, range(len(ints))))]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:  # a chunk pickles ints once
            results = list(pool.map(_scan_top, tasks, chunksize=1 + len(tasks) // (16 * workers)))
    total, min_minor, witness = _fold(results)
    return TnnReport(witness is None, total, min_minor, witness)
