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
import pickle
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, lcm, prod
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BudgetExceededError

Scalar = Union[int, Fraction]
SCAN_BUDGET = 10**7  # most minors one scan checks; --d 17 has 3,124,549
# fewest minors worth a fork. --jobs 2 against serial, medians of 101 runs on a
# 2-vCPU VM in two sittings: forked lost or tied up to 24,309 minors in the first
# (7x10, 19,447 minors: 10.9 vs 7.2 ms; 5x16, 20,348: 18.9 vs 13.9 ms) and won or
# tied from 18,563 up in the second (5x16: 12.3 vs 16.1 ms); from 26,333 up
# (5x17: 14.8 vs 21.0 ms) it won in both. 20,000 lies in that break-even band.
FORK_MIN_WORK = 20_000

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


@lru_cache(maxsize=64)  # a scan in SCAN_BUDGET has at most 12 orders: C(26, 13) > 10**7
def _expander(short: int, order: int):
    """expand(line, table) -> the table on lines (r0,) + S, from line r0 and the table
    on S, both indexed by the short side: one straight-line Laplace expansion per
    order-subset T of range(short), in lex order, with the term l[c]*t[q] signed by the
    position of c in T and q the lex rank of T without c. The source holds only these
    indices, order * C(short, order) terms, no more than the scan's minor count."""
    rank = {s: i for i, s in enumerate(combinations(range(short), order - 1))}
    entries = []
    for t in combinations(range(short), order):
        terms = [f"l{c}*t{rank[t[:i] + t[i + 1:]]}" for i, c in enumerate(t)]
        entries.append(terms[0] + "".join("+-"[i % 2] + x for i, x in enumerate(terms[1:], 1)))
    source = (
        "def expand(l, t):\n"
        f"    {''.join(f'l{c}, ' for c in range(short))}= l\n"
        f"    {''.join(f't{q}, ' for q in range(len(rank)))}= t\n"
        f"    return [{', '.join(entries)}]\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<tnn expander short={short} order={order}>", "exec"), namespace)
    return namespace["expand"]


def _minor(wide: bool, lines: tuple, subset: tuple, scale: int, value: int) -> MinorWitness:
    """The minor on lines and a subset of the short side, whose table entry is value."""
    value = value if scale == 1 else Fraction(value, scale)
    return MinorWitness(*((subset, lines) if wide else (lines, subset)), value)


def _tables(ints, scales, max_order: int, tops):
    """Yield (lines, scale, table) per line set of size <= max_order, top line in tops.

    table[i] is the set's scale times its minor on the i-th short-side subset (lex
    order). Depth first, so only the current path's tables are held."""
    expand = [_expander(len(ints[0]), k) for k in range(1, max_order + 1)]
    stack = [(top, (), 1, [1]) for top in tops]  # (r0, S, scale and table of S); det() = 1
    while stack:
        r0, lines, scale, table = stack.pop()
        lines, scale = (r0,) + lines, scale * scales[r0]
        table = expand[len(lines) - 1](ints[r0], table)
        yield lines, scale, table
        if len(lines) < max_order:
            stack += [(r, lines, scale, table) for r in range(r0)]


def iter_minors(m, order: int):
    """Yield MinorWitness for every order-by-order minor, lexicographically."""
    mat = as_matrix(m)
    if order < 1 or order > min(mat.rows, mat.cols):
        raise ValueError(f"minor order must be in 1..{min(mat.rows, mat.cols)}, got {order}")
    ints, scales, wide = _clear(mat)
    subsets = list(combinations(range(len(ints[0])), order))
    tables = _tables(ints, scales, order, range(len(ints)))
    yield from sorted(
        _minor(wide, lines, t, scale, v)
        for lines, scale, table in tables if len(lines) == order
        for t, v in zip(subsets, table)
    )


def _fold(parts) -> tuple:
    """Sum the counts, keep the least value and the least witness in (order, rows, cols)."""
    total, least, first = 0, None, None
    for count, low, w in parts:
        total += count
        least = low if least is None else min(least, low)
        if w is not None and (first is None or (len(w.rows), w) < (len(first.rows), first)):
            first = w
    return total, least, first


def _scan_top(ints, scales, wide: bool, max_order: int, tops) -> tuple:
    """The minor count, least minor and first negative minor in (order, rows, cols)
    over the tables whose top line is in tops. Values stay integers over their
    scales, compared by cross-multiplying, until the two that are reported."""
    count, least, least_scale, first = 0, None, 1, None  # first: (key, lines, scale, i, value)
    for lines, scale, table in _tables(ints, scales, max_order, tops):
        count += len(table)
        low = min(table)
        if least is None or low * least_scale < least * scale:
            least, least_scale = low, scale
        if low < 0 and (first is None or len(lines) <= first[0][0]):  # a lower order wins
            i = next(i for i, v in enumerate(table) if v < 0)
            key = (len(lines), i, lines) if wide else (len(lines), lines, i)
            if first is None or key < first[0]:
                first = key, lines, scale, i, table[i]
    witness = None
    if first is not None:
        _, lines, scale, i, value = first
        subset = next(islice(combinations(range(len(ints[0])), len(lines)), i, None))
        witness = _minor(wide, lines, subset, scale, value)
    return count, least if least_scale == 1 else Fraction(least, least_scale), witness


def _shares(lines: int, short: int, max_order: int, workers: int) -> list[list[int]]:
    """Split the top lines into workers shares of near-equal cost, the multiply-adds
    in a top line's subtree: sum over k of k * C(top, k-1) * C(short, k). The cost
    never falls as top grows, so placing the tops largest first, each onto the
    lightest share (the first on a tie), is deterministic and puts the largest
    top in share 0, the caller's."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for top in reversed(range(lines)):
        i = loads.index(min(loads))
        shares[i].append(top)
        loads[i] += sum(k * comb(top, k - 1) * comb(short, k) for k in range(1, max_order + 1))
    return shares


def _fork(scan, share) -> tuple:
    """Fork a child that writes pickle(scan(share)) to a pipe, or its traceback to
    stderr, and leaves by os._exit, so no inherited stdout buffer or atexit handler
    runs twice; return (its pid, the pipe's read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump(scan(share), pipe)
            code = 0
        except BaseException:  # the caller only sees the exit code: show the cause here
            import traceback  # only a failing child pays for the import

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _fork_map(scan, shares) -> list:
    """[scan(share) for share in shares]: shares[0] in this process, each other share
    in a forked child that inherits the matrix and kernels. A child that exits
    nonzero, dies by a signal or sends no result raises ChildProcessError; if this
    process's own share raises, the children are killed. Every child is reaped."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(scan, share))
        mine = scan(shares[0])
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for (pid, _), code, data in zip(children, codes, sent):
        if code or not data:
            how = f"died by signal {-code}" if code < 0 else f"exited with code {code}" if code else "sent no result"
            raise ChildProcessError(f"scan worker {pid} {how}")
    return [mine] + [pickle.loads(data) for data in sent]


def is_totally_nonnegative(m, max_order: Optional[int] = None, jobs: int = 1) -> TnnReport:
    """Scan all minors up to max_order (default: all orders) exactly.

    More than SCAN_BUDGET minors raise BudgetExceededError up front. The top lines
    are split into min(jobs, lines, CPUs) shares of near-equal cost; this process
    scans one and a forked child each of the others. Below FORK_MIN_WORK minors,
    or without os.fork, one walk here covers every line. The report (witness: the
    lexicographically first negative minor) does not depend on jobs."""
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
    for k in range(1, max_order + 1):  # cached before the fork, so the children inherit them
        _expander(len(ints[0]), k)
    workers = min(jobs, len(ints), os.cpu_count() or 1)
    if workers == 1 or work < FORK_MIN_WORK or not hasattr(os, "fork"):
        results = [_scan_top(ints, scales, wide, max_order, range(len(ints)))]
    else:
        shares = _shares(len(ints), len(ints[0]), max_order, workers)
        results = _fork_map(lambda tops: _scan_top(ints, scales, wide, max_order, tops), shares)
    total, min_minor, witness = _fold(results)
    return TnnReport(witness is None, total, min_minor, witness)
