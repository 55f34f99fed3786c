"""The four workloads: seeded inputs, the ops that feed them to polytnn, and
the check each op's output must pass.

An op is one user-visible request: a `polytnn.cli.main(argv)` call, or a
library call where the CLI has no entry point. Building a workload only
generates inputs; every expected value is computed by the op's check, after
the timed loop, from `expect` (which never imports polytnn).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import expect


@dataclass
class Op:
    kind: str
    check: Callable[[object], Optional[str]]  # mismatch message, or None when the output is right
    argv: Optional[list] = None  # run as polytnn.cli.main(argv)
    call: Optional[Callable] = None  # or call(polytnn) for library-only ops
    code: int = 0  # expected exit code; library ops count as 0 unless they raise
    work: int = 0  # minors, certificates or verdicts delivered by a correct op
    timed: bool = True  # False for reference ops that only feed same_as
    same_as: Optional[int] = None  # index of an op whose stdout must match byte for byte


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _has_negative_2x2(m) -> bool:
    return any(
        expect.cofactor_det(expect.submatrix(m, r, c)) < 0
        for r in combinations(range(len(m)), 2)
        for c in combinations(range(len(m[0])), 2)
    )


def _shuffled_matrix(rng, rows, cols, pool):
    """The entries of pool (nonnegative) in seeded positions, reshuffled until
    some 2x2 minor is negative, so the scan takes the witness path (exit 3) at
    order 2. A fixed multiset of entries keeps the cost alike across seeds."""
    while True:
        rng.shuffle(pool)
        m = [pool[i * cols:(i + 1) * cols] for i in range(rows)]
        if _has_negative_2x2(m):
            return m


def _bidiagonal_product(rng, rows, cols):
    """L * D * U with L, U products of elementary bidiagonal matrices, one per
    letter of a reduced word of the longest permutation, with positive weights,
    and D positive on its diagonal: totally nonnegative by construction. The seed
    permutes a fixed multiset of weights."""

    def factors(n, lower):
        word = [i for start in range(n - 1) for i in range(n - 2, start - 1, -1)]
        weights = [1 + k % 2 for k in range(len(word))]
        rng.shuffle(weights)
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, t in zip(word, weights):
            e = [[int(r == c) for c in range(n)] for r in range(n)]
            if lower:
                e[i + 1][i] = t
            else:
                e[i][i + 1] = t
            m = expect.matmul(m, e)
        return m

    diagonal = [1 + k % 3 for k in range(rows)]
    rng.shuffle(diagonal)
    d = [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return expect.matmul(expect.matmul(factors(rows, True), d), factors(cols, False))


def _tnn_check(m, tnn: bool):
    """Check a `tnn --format json` report on matrix m against independent values."""
    rows, cols = len(m), len(m[0])

    def check(out):
        rep = json.loads(out)
        if sorted(rep) != ["is_tnn", "min_minor", "minors_checked", "witness"]:
            return f"report keys {sorted(rep)}"
        want = expect.minors_count(rows, cols)
        if rep["minors_checked"] != want:
            return f"minors_checked {rep['minors_checked']}, expected {want}"
        low = Fraction(rep["min_minor"])
        if tnn:
            if rep["is_tnn"] is not True or rep["witness"] is not None or low < 0:
                return f"expected a clean bill, got {out.strip()}"
            return None
        w = rep["witness"]
        if rep["is_tnn"] is not False or w is None:
            return f"expected a witness, got {out.strip()}"
        value = expect.cofactor_det(expect.submatrix(m, w["rows"], w["cols"]))
        if Fraction(w["value"]) != value or value >= 0 or low > value:
            return f"witness {w}, cofactor value {value}, min_minor {low}"
        for r, c, v in expect.minors_before(m, w["rows"], w["cols"]):
            if v < 0:
                return f"witness {w} is not the first negative minor: rows {r} cols {c} is {v}"
        return None

    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tnn_inputs(seed: int, workdir: Path, tiny: bool):
    """(argv tail, matrix, TNN expected) for the four tnn-scan inputs."""
    rng = _rng("tnn", seed)
    d = 5 if tiny else 13
    r, c = (4, 5) if tiny else (7, 11)
    ints = _shuffled_matrix(rng, r, c, [k % 10 for k in range(r * c)])
    rr, rc = (3, 4) if tiny else (6, 10)
    rats = _shuffled_matrix(rng, rr, rc, [Fraction(1 + k % 9, 1 + (k // 9 + 2 * k) % 9) for k in range(rr * rc)])
    product = _bidiagonal_product(rng, r, c)
    int_csv = _write(workdir / "ints.csv", "".join(expect.csv(row) + "\n" for row in ints))
    rat_csv = _write(
        workdir / "rationals.csv", "".join(",".join(f"{x.numerator}/{x.denominator}" for x in row) + "\n" for row in rats)
    )
    tnn_json = _write(workdir / "product.json", json.dumps({"rows": product}))
    return [
        (["--d", str(d)], expect.transfer_entries(d), True),
        (["--file", int_csv], ints, False),
        (["--file", rat_csv], rats, False),
        (["--file", tnn_json], product, True),
    ]


def _tnn_op(tail, m, tnn, jobs=1, timed=True, same_as=None):
    argv = ["tnn", *tail, "--format", "json"] + (["--jobs", str(jobs)] if jobs > 1 else [])
    return Op(
        "tnn",
        argv=argv,
        code=0 if tnn else 3,
        check=_tnn_check(m, tnn),
        work=expect.minors_count(len(m), len(m[0])),
        timed=timed,
        same_as=same_as,
    )


def tnn_scan(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    return [_tnn_op(*inp) for inp in _tnn_inputs(seed, workdir, tiny)]


def parallel_jobs() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def tnn_parallel(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    """The d input and the integer CSV with --jobs, then the same two scans
    serially as untimed reference ops whose stdout the parallel ones must match."""
    inputs = _tnn_inputs(seed, workdir, tiny)[:2]
    jobs = parallel_jobs()
    ops = [_tnn_op(*inp, jobs=jobs, same_as=len(inputs) + i) for i, inp in enumerate(inputs)]
    ops += [_tnn_op(*inp, timed=False) for inp in inputs]
    return ops


def lgv_certify(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    """`lgv --verify` on every minor of order <= 3 at n = 9 (shuffled), then
    path_weight_sum against path_weight_closed_form on every entry at n = 30."""
    rng = _rng("lgv", seed)
    n, top, big = (5, 2, 8) if tiny else (9, 3, 30)
    matrix = expect.path_entries(n)
    minors = [
        (r, c)
        for k in range(1, top + 1)
        for r in combinations(range(len(matrix)), k)
        for c in combinations(range(n), k)
    ]
    rng.shuffle(minors)

    def verify_op(rows, cols):
        def check(out):
            det = expect.cofactor_det(expect.submatrix(matrix, rows, cols))
            want = f"det={det}, lgv={det}, equal\n"
            return None if out == want else f"stdout {out!r}, expected {want!r}"

        argv = ["lgv", "--n", str(n), "--verify", "--rows", expect.csv(rows), "--cols", expect.csv(cols)]
        return Op("lgv-verify", argv=argv, check=check, work=1)

    ops = [verify_op(r, c) for r, c in minors]

    graph = {}

    def build(pt):
        graph["g"] = pt.lgv.lattice_graph(big)
        return graph["g"]

    def graph_check(g):
        half = (big + 1) // 2
        ok = g.n == big and len(g.sources) == half and len(g.sinks) == big
        return None if ok else f"lattice_graph({big}) has {len(g.sources)} sources, {len(g.sinks)} sinks"

    ops.append(Op("lgv-graph", call=build, check=graph_check))

    def path_op(i, j):
        def call(pt):
            return pt.lgv.path_weight_sum(graph["g"], i, j), pt.lgv.path_weight_closed_form(big, i, j)

        def check(out):
            want = expect.path_entry(big, i, j)
            return None if out == (want, want) else f"path sums {out} for ({i}, {j}), expected {want}"

        return Op("path-sum", call=call, check=check)

    pairs = [(i, j) for i in range((big + 1) // 2) for j in range(big)]
    rng.shuffle(pairs)
    ops += [path_op(i, j) for i, j in pairs]
    return ops


def _stdout_is(want):
    """Exact stdout check; want is the text, or a function computing it lazily."""

    def check(out):
        text = want() if callable(want) else want
        return None if out == text else f"stdout {out!r}, expected {text!r}"

    return check


def feasible_grid(tiny: bool):
    """Fixed (n, d) grid of cyclic polytopes: n from d+2 to 10^5, d from 3 to 20."""
    if tiny:
        return [(n, d) for d in range(3, 7) for n in (d + 2, 20)]
    grid = [(n, d) for d in range(3, 21) for n in (d + 2, 100, 1000, 10_000)]
    return grid + [(100_000, d) for d in (3, 12, 20)]


def _msequence_inputs(tiny: bool):
    """Every sequence 1, a_1, ..., a_{L-1} with L in 3..5 and entry sum <= 10."""
    lengths, total = ((3,), 5) if tiny else ((3, 4, 5), 10)
    out = []

    def rec(prefix, left, length):
        if len(prefix) == length:
            out.append(prefix)
            return
        for a in range(left + 1):
            rec(prefix + [a], left - a, length)

    for length in lengths:
        rec([1], total - 1, length)
    return out


def face_vectors(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    """feasible on cyclic f-vectors and one-entry perturbations, g2f/f2g round
    trips on seeded M-sequences, and msequence --oracle on every small sequence."""
    rng = _rng("face", seed)
    ops = []
    for n, d in feasible_grid(tiny):
        f = expect.f_from_g(expect.cyclic_g(n, d), d)
        ops.append(Op("feasible", argv=["feasible", "--f", expect.csv(f), "--d", str(d)],
                      check=_stdout_is("pass\n"), work=1))
        j = rng.randrange(d)
        bad = list(f)
        bad[j] += 1 if bad[j] == 1 else rng.choice((-1, 1))
        # any one-entry change moves the alternating sum, so Euler fails first
        ops.append(Op("feasible", argv=["feasible", "--f", expect.csv(bad), "--d", str(d)],
                      check=_stdout_is("fail, condition=euler\n"), work=1))
    for _ in range(5 if tiny else 150):
        d = rng.randint(3, 20)
        g = [1, rng.randint(0, 60)]
        for k in range(2, d // 2 + 1):
            g.append(rng.randint(0, expect.max_next(g[-1], k)))
        f = expect.f_from_g(g, d)
        ops.append(Op("g2f", argv=["g2f", "--g", expect.csv(g), "--d", str(d)],
                      check=_stdout_is(expect.csv(f) + "\n")))
        ops.append(Op("f2g", argv=["f2g", "--f", expect.csv(f), "--d", str(d)],
                      check=_stdout_is(expect.csv(g) + "\n")))
    seqs = _msequence_inputs(tiny)
    rng.shuffle(seqs)
    for seq in seqs:
        ops.append(Op("msequence", argv=["msequence", "--seq", expect.csv(seq), "--oracle"],
                      check=_stdout_is(lambda seq=seq: expect.msequence_text(seq)), work=1))
    return ops


WORKLOADS = {
    "tnn-scan": tnn_scan,
    "tnn-parallel": tnn_parallel,
    "lgv-certify": lgv_certify,
    "face-vectors": face_vectors,
}
