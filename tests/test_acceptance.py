"""Acceptance gate: one test per published criterion, each with its own
runtime budget. Every test prints a single [acceptance] PASS/FAIL line
(visible with -s or in captured output) and fails loudly past its limit.
"""

import subprocess
import sys
import time
from itertools import combinations, product

from polytnn import (
    ballot_paths,
    binomial,
    determinant,
    euler_check,
    f_to_g,
    g_to_f,
    GVector,
    is_m_sequence,
    is_totally_nonnegative,
    iter_minors,
    lattice_graph,
    minor_via_lgv,
    nonintersecting_families,
    oracle_is_m_sequence,
    path_matrix,
    path_weight_closed_form,
    path_weight_sum,
    strip_leading_column,
    transfer_matrix,
)
from polytnn.tnn import as_matrix
from oracles import count_ballot_paths


def _gate(num, name, limit_s, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    line = f"[acceptance] {num} {name}: "
    if elapsed >= limit_s:
        print(line + f"FAIL (took {elapsed:.2f}s, limit {limit_s}s)")
        raise AssertionError(f"{name} exceeded its {limit_s}s budget: {elapsed:.2f}s")
    print(line + f"PASS ({elapsed:.2f}s, limit {limit_s}s)")


def test_criterion_1_display_reproduction():
    def body():
        assert path_matrix(2).to_csv() == "1,2\n"
        assert path_matrix(3).to_csv() == "1,3,3\n0,1,1\n"
        assert path_matrix(4).to_csv() == "1,4,6,4\n0,1,3,2\n"
        for n in range(2, 31):
            assert strip_leading_column(path_matrix(n)) == transfer_matrix(n - 1)

    _gate(1, "display-reproduction", 1, body)


def test_criterion_2_exhaustive_total_nonnegativity(fork_always):
    def body():
        serial_start = time.monotonic()
        reports = {}
        for d in range(1, 14):
            reports[d] = is_totally_nonnegative(transfer_matrix(d))
            assert reports[d], f"negative minor in dimension {d}: {reports[d].witness}"
        serial_elapsed = time.monotonic() - serial_start
        assert serial_elapsed < 300, f"single-threaded sweep took {serial_elapsed:.1f}s"

        parallel_start = time.monotonic()
        for d in range(1, 14):
            report = is_totally_nonnegative(transfer_matrix(d), jobs=4)
            assert report == reports[d]
        parallel_elapsed = time.monotonic() - parallel_start
        assert parallel_elapsed < 60, f"4-worker sweep took {parallel_elapsed:.1f}s"

        for d in range(2, 21):
            assert all(m.value >= 0 for m in iter_minors(transfer_matrix(d), 2)), d

    _gate(2, "exhaustive-total-nonnegativity", 360, body)


def test_criterion_3_path_count_identity():
    def body():
        for n in range(2, 15):
            g = lattice_graph(n)
            for i in range((n + 1) // 2):
                for j in range(n):
                    total = path_weight_sum(g, i, j)
                    assert total.denominator == 1
                    assert total == path_weight_closed_form(n, i, j), (n, i, j)

    _gate(3, "path-count-identity", 10, body)


def test_criterion_4_lattice_path_oracle_equivalence():
    def body():
        for n in range(2, 9):
            graph = lattice_graph(n)
            w = as_matrix(path_matrix(n))
            height = (n + 1) // 2
            for order in range(1, min(3, height) + 1):
                for rows in combinations(range(height), order):
                    for cols in combinations(range(n), order):
                        det = determinant(w.submatrix(rows, cols))
                        assert minor_via_lgv(graph, rows, cols) == det, (n, rows, cols)
                        for fam in nonintersecting_families(graph, rows, cols):
                            seen = set()
                            for t, path in enumerate(fam.paths):
                                assert path[0] == graph.sources[rows[t]]
                                assert path[-1] == graph.sinks[cols[t]]
                                vs = set(path)
                                assert not (vs & seen)
                                seen |= vs

    _gate(4, "lattice-path-oracle-equivalence", 120, body)


def test_criterion_5_round_trip():
    def body():
        for d in range(1, 13):
            size = d // 2 + 1
            for tail in product(range(6), repeat=size - 1):
                values = (1,) + tail
                if not is_m_sequence(values):
                    continue
                g = GVector(d, values)
                f = g_to_f(g)
                assert f_to_g(f) == g, (d, values)
                assert euler_check(f), (d, values)

    _gate(5, "g-to-f-round-trip", 30, body)


def test_criterion_6_macaulay_agreement():
    def body():
        for length in range(1, 5):
            for seq in product(range(7), repeat=length):
                expected = bool(is_m_sequence(list(seq)))
                vars_hint = max(1, seq[1] if len(seq) > 1 else 1)
                assert oracle_is_m_sequence(list(seq), vars_hint) == expected, seq

    _gate(6, "macaulay-oracle-agreement", 120, body)


def test_criterion_7_ballot_erratum():
    def body():
        disagreements = []
        for m in range(9):
            for n in range(9):
                for t in range(1, 10):
                    truth = count_ballot_paths(m, n, t)
                    assert ballot_paths(m, n, t) == truth, (m, n, t)
                    variant = binomial(m + n, n) - binomial(m + n, m - t)
                    if variant != truth:
                        disagreements.append((m, n, t))
        assert (2, 1, 1) in disagreements
        assert disagreements, "misprinted variant should disagree somewhere"

    _gate(7, "ballot-erratum-resolution", 5, body)


def test_criterion_8_parallel_determinism(forking_cli):
    def body():
        outputs = set()
        for jobs in (1, 2, 8):
            res = subprocess.run(
                [*forking_cli, "tnn", "--d", "8",
                 "--jobs", str(jobs), "--format", "json"],
                capture_output=True,
            )
            assert res.returncode == 0
            outputs.add(res.stdout)
        assert len(outputs) == 1, "reports differ across worker counts"

    _gate(8, "parallel-determinism", 60, body)
