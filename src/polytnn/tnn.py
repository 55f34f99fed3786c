"""Exact total-nonnegativity certification by exhaustive minor enumeration.

A matrix is totally nonnegative when every minor, of every order, is
nonnegative. This module walks the lines of the longer side (the minors of
the transpose are the same), scales each by the lcm of its denominators, and
builds the minors on lines (r0,) + S, r0 < S[0], from those on S by integer
Laplace expansion along line r0: one generated function per (short side,
max order), a nested loop per order with each expansion written out as
straight-line code. Every scan deals the top lines off one pipe in contiguous
blocks, largest first; with jobs > 1, forked workers share that pipe, each taking
the next block as it frees up. Each worker returns its least value, an integer over
its scale, and its first negative minor as (order, rows, cols), folded once into a
clean bill or the lexicographically first as a witness, valued by determinant. The
scan never stops early, so the report is identical whichever worker took which block.
It does skip what is provably 0: when every minor on a line set S is 0, the
lines of S are linearly dependent, so are those of every (r0,) + S, and the
walk records the 0 and does not descend below S. iter_minors eliminates each
minor on its own (Bareiss).
"""

import marshal
import os
import sys
from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod
from typing import NamedTuple, Optional, Sequence, Union

from .exactnum import _check_ints, _refuse

Scalar = Union[int, "Fraction"]
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


class ExactMatrix(NamedTuple("ExactMatrix", [("entries", tuple)])):
    """Immutable rectangular matrix over int/Fraction."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Scalar, ...], ...]):
        if not entries:
            raise ValueError("matrix must have at least one row")
        width = len(entries[0])
        if width == 0:
            raise ValueError("matrix rows must be nonempty")
        for row in entries:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
            if not all(type(x) is int for x in row):  # any other entry, a Fraction or a bool, takes the full check
                from fractions import Fraction

                _check_ints(row, "matrix entries must be int or Fraction", types=(int, Fraction))
        return super().__new__(cls, entries)

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
    lines = list(zip(*mat.entries)) if wide else mat.entries
    scales = [lcm(*[x.denominator for x in line]) for line in lines]
    ints = [[x.numerator * (s // x.denominator) for x in line] if s > 1 else [x.numerator for x in line]
            for line, s in zip(lines, scales)]
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
    return _exact(_bareiss(ints), prod(scales))


def _exact(value: int, scale: int) -> Scalar:
    """value / scale, an int exactly when it is whole."""
    if value % scale:
        from fractions import Fraction

        return Fraction(value, scale)
    return value // scale


class MinorWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Scalar


class TnnReport(NamedTuple):
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


@lru_cache(maxsize=64)  # a scan in SCAN_BUDGET has at most 12 orders: C(26, 13) > 10**7
def _walker(short: int, max_order: int):
    """walk(ints, scales, blocks, wide) -> (least, its scale, (order, rows, cols) of the
    first negative minor or None) over every line set of size <= max_order whose top
    (largest) line is in one of blocks.

    Loop k takes r_k from each block in turn (k = 1) or below r_(k-1) and holds the
    table of lines (r_k, ..., r_1): their scale times their minors on the order-k
    subsets T of the short side in lex order (subsets{k}, where _first_negative finds
    a negative entry's T), each a Laplace expansion along r_k written out, whose term
    l[c]*t[q] is signed by the position of c in T, q the lex rank of T without c in
    loop k-1's table. A table of zeros means lines (r_k, ..., r_1) are linearly
    dependent, so is every line set the loops below add to them, and each table
    there is zeros too (each entry a sum of products with this table's): after its
    least value is recorded, loop k skips to its next line. Zeros are never negative
    and the count is not walked, so the report is unchanged. The source holds only
    these indices, order * C(short, order) terms per loop, no more than the minor
    count, so SCAN_BUDGET bounds it too."""
    src = [
        "def walk(ints, scales, blocks, wide):",  # least/least_scale = 1/0 lies above every minor
        f"    least, least_scale, first, first_order, s0, t0_0 = 1, 0, None, {max_order}, 1, 1",
        "    for block in blocks:",
    ]
    for k in range(1, max_order + 1):
        pad, rank = "    " * (k + 1), {s: q for q, s in enumerate(combinations(range(short), k - 1))}
        entries = (
            "".join(f"{'+-'[i % 2]}l{c}*t{k - 1}_{rank[t[:i] + t[i + 1:]]}" for i, c in enumerate(t))[1:]
            for t in combinations(range(short), k)
        )
        src += [  # values stay integers over their scales, compared by cross-multiplying
            f"{pad}for r{k} in {'block' if k == 1 else f'range(r{k - 1})'}:",
            f"{pad}    {''.join(f'l{c}, ' for c in range(short))}= ints[r{k}]",
            f"{pad}    s{k} = s{k - 1} * scales[r{k}]",
            f"{pad}    t = [{', '.join(entries)}]",
            f"{pad}    low = min(t)",
            f"{pad}    if low * least_scale < least * s{k}:",
            f"{pad}        least, least_scale = low, s{k}",
            f"{pad}    if low < 0 and {k} <= first_order:  # a lower order wins",
            f"{pad}        lines = ({''.join(f'r{j}, ' for j in range(k, 0, -1))})",
            f"{pad}        first, first_order = _first_negative(first, lines, t, subsets{k}, wide), {k}",
        ]
        if k < max_order:  # a table of zeros: every line set added to these is dependent too
            src += [
                f"{pad}    if low == 0 and not any(t):",
                f"{pad}        continue",
                f"{pad}    {''.join(f't{k}_{q}, ' for q in range(comb(short, k)))}= t",
            ]
    src.append("    return least, least_scale, first")
    namespace = {"_first_negative": _first_negative}
    namespace.update((f"subsets{k}", list(combinations(range(short), k))) for k in range(1, max_order + 1))
    exec(compile("\n".join(src), f"<tnn walker short={short} max_order={max_order}>", "exec"), namespace)
    return namespace["walk"]


def _first_negative(first, lines: tuple, table: list, subsets: list, wide: bool) -> tuple:
    """The lesser of first and the table's first negative minor, on lines and a subset
    of the short side, as (order, rows, cols): subsets lists those in lex order, so
    tuple order is the lexicographic order of minors."""
    subset = subsets[next(i for i, v in enumerate(table) if v < 0)]
    here = (len(lines), subset, lines) if wide else (len(lines), lines, subset)
    return first if first is not None and first <= here else here


def iter_minors(m, order: int):
    """Yield MinorWitness for every order-by-order minor, lexicographically."""
    mat = as_matrix(m)
    limit = min(mat.rows, mat.cols)
    _check_ints((order,), "minor order must be in 1..{most}", least=1, most=limit)
    ints, scales, wide = _clear(mat)
    for rows in combinations(range(mat.rows), order):
        for cols in combinations(range(mat.cols), order):
            lines, subset = (cols, rows) if wide else (rows, cols)
            det = _bareiss([[ints[i][j] for j in subset] for i in lines])
            yield MinorWitness(rows, cols, _exact(det, prod(scales[i] for i in lines)))


def _tops(read: int, blocks: list):
    """The blocks of top lines this worker reads off the pipe as it frees up: one byte
    j at a time, for blocks[j]."""
    while j := os.read(read, 1):
        yield blocks[j[0]]


def _fork(scan) -> tuple:
    """Fork a child that writes marshal(scan()) to a pipe, or its traceback to
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
                marshal.dump(scan(), pipe)
            code = 0
        except BaseException:  # the caller only sees the exit code: show the cause here
            import traceback  # only a failing child pays for the import

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _fork_map(scan, lines: int, workers: int) -> list:
    """[scan(blocks) per worker]: this process and workers - 1 forked children (which
    inherit the matrix and walker) take the blocks of top lines off one pipe as they free
    up (_tops), largest first; a lone worker forks nothing and takes every block. A child
    that exits nonzero, dies by a signal or sends no result raises ChildProcessError; if
    this process's own scan raises, the children are killed. Every child is reaped."""
    size = -(-lines // 256)  # ceil(lines / 256) lines a block: at most 256 blocks, one byte each
    blocks = [range(top, max(top - size, -1), -1) for top in range(lines - 1, -1, -size)]
    read, write = os.pipe()
    children = []
    try:
        with open(write, "wb", 0) as deal:  # closed before any fork, so a read past the last block sees EOF
            deal.write(bytes(range(len(blocks))))  # one write of <= 256 bytes, under PIPE_BUF: whole
        for _ in range(workers - 1):
            children.append(_fork(lambda: scan(_tops(read, blocks))))
        mine = scan(_tops(read, blocks))
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal  # only a failing scan pays for the import

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read)
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for (pid, _), code, data in zip(children, codes, sent):
        if code or not data:
            how = f"died by signal {-code}" if code < 0 else f"exited with code {code}" if code else "sent no result"
            raise ChildProcessError(f"scan worker {pid} {how}")
    return [mine] + [marshal.loads(data) for data in sent]


def check_scan(rows: int, cols: int, max_order: Optional[int] = None, jobs: int = 1) -> tuple[int, int]:
    """(max_order, minors) of a scan of a rows x cols matrix; ValueError for a bad
    max_order or jobs, BudgetExceededError past SCAN_BUDGET minors."""
    limit = min(rows, cols)
    if max_order is None:
        max_order = limit
    _check_ints((max_order,), "max_order must be in 1..{most}", least=1, most=limit)
    _check_ints((jobs,), "jobs must be >= 1", least=1)
    if rows * cols > SCAN_BUDGET:  # order 1 alone is over: refuse before summing min(rows, cols) orders
        raise _refuse("the scan has {} x {} minors of order 1 alone, over the budget of {}", rows, cols, SCAN_BUDGET)
    work = sum(comb(rows, k) * comb(cols, k) for k in range(1, max_order + 1))
    if work > SCAN_BUDGET:
        raise _refuse("the scan has {} minors, over the budget of {}", work, SCAN_BUDGET)
    return max_order, work


def is_totally_nonnegative(m, max_order: Optional[int] = None, jobs: int = 1) -> TnnReport:
    """Scan all minors up to max_order (default: all orders) exactly.

    check_scan refuses bad arguments and more than SCAN_BUDGET minors up front. Every
    scan goes through _fork_map: min(jobs, lines, CPUs) workers, this process and forked
    children, take blocks of top lines largest first as they free up; without os.fork,
    this process is the one worker and forks nothing. The report (witness: the
    lexicographically first negative minor, valued by determinant), folded here from
    the workers' raw results, does not depend on jobs or on which worker took which block."""
    mat = as_matrix(m)
    max_order, work = check_scan(mat.rows, mat.cols, max_order, jobs)
    ints, scales, wide = _clear(mat)
    walk = _walker(len(ints[0]), max_order)  # bound before any fork, so the children inherit it
    workers = min(jobs, len(ints), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    results = _fork_map(lambda blocks: walk(ints, scales, blocks, wide), len(ints), workers)
    first = min((r[2] for r in results if r[2] is not None), default=None)  # (order, rows, cols)
    if first is not None:  # the witness, its value eliminated afresh
        _, rows, cols = first
        first = MinorWitness(rows, cols, determinant(mat.submatrix(rows, cols)))
    least = min(_exact(low, scale) for low, scale, _ in results if scale)  # scale 0: took no line
    return TnnReport(first is None, work, least, first)
