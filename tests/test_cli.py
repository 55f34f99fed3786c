import argparse
import importlib
import json
import os
import subprocess
import sys
import sysconfig
from math import comb
from pathlib import Path

import pytest

import polytnn
import polytnn.__main__
import polytnn.cli as cli
import polytnn.lgv as lgv
import polytnn.macaulay as macaulay
from polytnn import BudgetExceededError, TnnReport
from oracles import binomial_sum_h, full_parser_main, mcmullen_product

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
RATIONAL_CSV = Path(__file__).resolve().parent / "golden" / "rational.csv"

# the library modules, and the ones every CLI call loads (matrix and tnn run no others)
LIBRARY = {"errors", "exactnum", "transfer", "tnn", "macaulay", "polyvec", "lgv"}
CLI_LOADS = {"cli", "errors", "exactnum", "transfer", "tnn"}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "polytnn", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestMatrixCommand:
    def test_path_matrix_csv(self):
        res = run_cli("matrix", "--n", "4", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout == "1,4,6,4\n0,1,3,2\n"

    def test_smallest_transfer_matrix(self):
        res = run_cli("matrix", "--d", "1")
        assert res.returncode == 0
        assert res.stdout == "2\n"

    def test_text_alignment(self):
        res = run_cli("matrix", "--d", "3")
        assert res.stdout == "4 6 4\n1 3 2\n"

    def test_json(self):
        res = run_cli("matrix", "--d", "2", "--format", "json")
        assert json.loads(res.stdout) == {"d": 2, "rows": [[3, 3], [1, 1]]}

    def test_augmented(self):
        res = run_cli("matrix", "--d", "3", "--augmented", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout == "1,4,6,4\n0,1,3,2\n"

    def test_augmented_text_carries_label(self):
        res = run_cli("matrix", "--d", "3", "--augmented")
        assert res.stdout.startswith("#")
        assert "n=4" in res.stdout.splitlines()[0]

    def test_no_flags_is_usage_error(self):
        res = run_cli("matrix")
        assert res.returncode == 2

    def test_both_flags_is_usage_error(self):
        res = run_cli("matrix", "--d", "2", "--n", "4")
        assert res.returncode == 2

    def test_augmented_with_n_is_usage_error(self):
        res = run_cli("matrix", "--n", "4", "--augmented")
        assert res.returncode == 2

    def test_domain_error(self):
        res = run_cli("matrix", "--d", "0")
        assert res.returncode == 1
        assert "error" in res.stderr


class TestTnnCommand:
    def test_transfer_matrix_passes(self):
        res = run_cli("tnn", "--d", "6")
        assert res.returncode == 0
        assert "is_tnn: true" in res.stdout

    def test_counterexample_file(self, tmp_path):
        f = tmp_path / "counter.csv"
        f.write_text("1,2\n3,4\n")
        res = run_cli("tnn", "--file", str(f))
        assert res.returncode == 3
        assert "witness: rows={0,1} cols={0,1} value=-2" in res.stdout

    def test_json_file_input(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": [[1, 1], [0, 1]]}))
        res = run_cli("tnn", "--file", str(f))
        assert res.returncode == 0

    def test_zero_denominator_is_domain_error(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("1,1/0\n2,3\n")
        res = run_cli("tnn", "--file", str(f))
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_rational_file_rendering(self, tmp_path):
        csv_file = tmp_path / "half.csv"
        csv_file.write_text("1/2,1\n1,1\n")
        json_file = tmp_path / "half.json"
        json_file.write_text(json.dumps({"rows": [["1/2", 1], [1, 1]]}))
        text = run_cli("tnn", "--file", str(csv_file))
        assert text.returncode == 3
        assert text.stdout == (
            "is_tnn: false\nminors_checked: 5\nmin_minor: -1/2\n"
            "witness: rows={0,1} cols={0,1} value=-1/2\n"
        )
        as_json = run_cli("tnn", "--file", str(csv_file), "--format", "json")
        assert json.loads(as_json.stdout)["min_minor"] == "-1/2"
        assert '"min_minor": "-1/2"' in as_json.stdout
        for fmt in ("text", "json"):
            from_csv = run_cli("tnn", "--file", str(csv_file), "--format", fmt)
            from_json = run_cli("tnn", "--file", str(json_file), "--format", fmt)
            assert from_json.returncode == from_csv.returncode == 3
            assert from_json.stdout == from_csv.stdout

    def test_deeply_nested_json_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text('{"rows": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert cli.main(["tnn", "--file", str(f)]) == 1
        assert capsys.readouterr() == ("", "error: parse_matrix_json: nesting too deep\n")

    def test_report_prints_values_past_the_digit_limit(self, tmp_path, capsys):
        # the determinant 1 - 10**5000 has 5,000 digits, past the interpreter's default
        # limit of 4,300; an input entry past the limit is still refused, unless the
        # caller's own limit is 0
        limit = sys.get_int_max_str_digits()
        big = tmp_path / "big.csv"
        big.write_text(f"1,1{'0' * 2500}\n1{'0' * 2500},1\n")
        nines = "9" * 5000
        assert cli.main(["tnn", "--file", str(big)]) == 3
        assert capsys.readouterr() == (
            f"is_tnn: false\nminors_checked: 5\nmin_minor: -{nines}\n"
            f"witness: rows={{0,1}} cols={{0,1}} value=-{nines}\n",
            "",
        )
        assert cli.main(["tnn", "--file", str(big), "--format", "json"]) == 3
        assert capsys.readouterr().out.endswith(f'"value": -{nines}}}}}\n')
        assert sys.get_int_max_str_digits() == limit
        long = tmp_path / "long.csv"
        long.write_text(f"1,{'1' * (limit + 1)}\n1,1\n")
        assert cli.main(["tnn", "--file", str(long)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: Exceeds the limit ({limit} digits) for integer string conversion")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert cli.main(["tnn", "--file", str(long)]) == 3  # its determinant is 1 - 11...1
            assert sys.get_int_max_str_digits() == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().out.startswith("is_tnn: false\nminors_checked: 5\n")

    def test_missing_file(self):
        res = run_cli("tnn", "--file", "/nonexistent/matrix.csv")
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_jobs_byte_identical(self, forking_cli):
        runs = [
            subprocess.run([*forking_cli, "tnn", "--d", "8", "--jobs", str(k), "--format", "json"], capture_output=True)
            for k in (1, 2, 8)
        ]
        assert [r.returncode for r in runs] == [0, 0, 0]
        assert len({r.stdout for r in runs}) == 1

    def test_max_order(self):
        res = run_cli("tnn", "--file", "/dev/stdin", "--max-order", "1", input="1,2\n3,4\n")
        assert res.returncode == 0

    def test_budget_refused_up_front(self, tmp_path):
        f = tmp_path / "ones.csv"
        f.write_text(("1," * 29 + "1\n") * 30)
        res = run_cli("tnn", "--file", str(f), timeout=5)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert str(comb(60, 30) - 1) in res.stderr  # sum of C(30, k)^2 over k >= 1
        res = run_cli("tnn", "--file", str(f), "--max-order", "2", timeout=5)
        assert res.returncode == 0
        assert "minors_checked: 190125" in res.stdout

    def test_huge_shape_refused_before_building(self):
        # M_2000 is 1001x2000 and W_2000 1000x2000; building either takes over 100 s.
        # The sum of C(r, k) * C(c, k) over k >= 1 is C(r + c, r) - 1 (Vandermonde).
        for flag, rows in (("--d", 1001), ("--n", 1000)):
            res = run_cli("tnn", flag, "2000", timeout=5)
            assert res.returncode == 1
            assert res.stdout == ""
            assert res.stderr == f"error: the scan has {comb(rows + 2000, rows) - 1} minors, over the budget of 10000000\n"

    def test_shape_past_the_budget_in_order_1_is_refused_at_once(self):
        # rows * cols > SCAN_BUDGET: order 1 alone is over it, so check_scan refuses before
        # its sum, which took 6.8 s to count the minors of M_10000; the message gives rows
        # and cols, whose product a library caller could not print past the digit limit
        res = run_cli("tnn", "--d", "20000", timeout=5)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: the scan has 10001 x 20000 minors of order 1 alone, over the budget of 10000000\n"
        # rows * cols exactly at the budget is summed, and keeps its exact count
        with pytest.raises(BudgetExceededError) as exact:
            cli.check_scan(2, 5_000_000)
        assert str(exact.value) == f"the scan has {10**7 + comb(5_000_000, 2)} minors, over the budget of 10000000"
        with pytest.raises(BudgetExceededError) as cut:
            cli.check_scan(2237, 4472)  # the shape of M_4472
        assert str(cut.value) == "the scan has 2237 x 4472 minors of order 1 alone, over the budget of 10000000"

    def test_refusal_uses_the_built_shape(self, monkeypatch, capsys):
        checked, built = [], []
        check = cli.check_scan
        monkeypatch.setattr(cli, "check_scan", lambda rows, cols, *rest: checked.append((rows, cols)) or check(rows, cols, *rest))
        monkeypatch.setattr(cli, "is_totally_nonnegative", lambda m, **kw: built.append((m.rows, m.cols)) or TnnReport(True, 0, 0))
        for flag, sizes in (("--d", range(1, 41)), ("--n", range(2, 41))):
            for size in sizes:
                assert cli.main(["tnn", flag, str(size), "--max-order", "1"]) == 0
        assert checked == built
        assert len(built) == 79

    def test_errors_keep_their_order(self, capsys):
        # a bad --d or --n is the builder's error; then max_order, jobs and the budget, in that order
        for args, error in (
            (("--d", "0", "--jobs", "0"), "transfer_matrix: d must be >= 1, got 0"),
            (("--n", "1", "--max-order", "0"), "path_matrix: n must be >= 2, got 1"),
            (("--d", "2000", "--max-order", "0", "--jobs", "0"), "max_order must be in 1..1001, got 0"),
            (("--n", "2000", "--jobs", "0"), "jobs must be >= 1, got 0"),
            (("--d", "5", "--max-order", "4"), "max_order must be in 1..3, got 4"),
        ):
            assert cli.main(["tnn", *args]) == 1
            assert capsys.readouterr() == ("", f"error: {error}\n"), args

    def test_long_thin_parallel_finishes(self, tmp_path):
        # 40,000 top lines of one minor each: --jobs 2 deals them in 255 blocks
        # of 157 contiguous lines, not one read per line
        line = ",".join(str(i % 7 + 1) for i in range(40000))
        for name, text in (("wide.csv", line + "\n"), ("tall.csv", line.replace(",", "\n") + "\n")):
            f = tmp_path / name
            f.write_text(text)
            res = run_cli("tnn", "--file", str(f), "--jobs", "2", timeout=10)
            assert res.returncode == 0
            assert res.stdout == "is_tnn: true\nminors_checked: 40000\nmin_minor: 1\n"

    def test_json_schema(self):
        res = run_cli("tnn", "--n", "5", "--format", "json")
        obj = json.loads(res.stdout)
        assert set(obj) == {"is_tnn", "minors_checked", "min_minor", "witness"}
        assert obj["is_tnn"] is True


def _uncapped(render):
    """render() with the interpreter's int-to-str digit limit lifted, as the CLI writes."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render()
    finally:
        sys.set_int_max_str_digits(limit)


def _g_by_binomial_sum(d: int, counts) -> list:
    h = binomial_sum_h(d, counts)
    return [h[0]] + [h[i] - h[i - 1] for i in range(1, d // 2 + 1)]


NINES = [int("9" * 4300)] * 20  # 20 entries at the default limit of 4,300 digits: argv takes them
LONG_G = [1] + NINES[:10]
HUGE = 10**2200  # 2,201 digits; its graph's vertex count and its tnn minor count have about 4,400


class TestDigitLimitOnOutput:
    """argv is parsed under the caller's digit limit, and each subcommand writes every
    number in full, to stdout and in its error messages."""

    @pytest.mark.parametrize(
        "argv, code, view, expected",
        [
            pytest.param(
                ["f2g", "--d", "20", "--f", ",".join(map(str, NINES))],
                0,
                str,
                lambda: (",".join(map(str, _g_by_binomial_sum(20, NINES))) + "\n", ""),
                id="f2g",
            ),
            pytest.param(
                ["g2f", "--d", "20", "--g", ",".join(map(str, LONG_G))],
                0,
                str,
                lambda: (",".join(map(str, mcmullen_product(20, LONG_G)[1:])) + "\n", ""),
                id="g2f",
            ),
            pytest.param(
                ["feasible", "--d", "20", "--f", ",".join(map(str, NINES)), "--format", "json"],
                0,
                lambda out: json.loads(out)["g"],
                lambda: (_g_by_binomial_sum(20, NINES), ""),
                id="feasible-json",
            ),
            pytest.param(
                ["lgv", "--n", str(HUGE)],
                1,
                str,
                lambda: (
                    "",
                    f"error: the lattice graph of order {HUGE} has {(HUGE // 2) * (HUGE // 2 + 1)} "
                    "vertices, over the budget of 25000\n",
                ),
                id="lgv-budget",
            ),
            pytest.param(
                ["tnn", "--n", str(HUGE), "--max-order", "1"],
                1,
                str,
                lambda: (
                    "",
                    f"error: the scan has {HUGE // 2} x {HUGE} minors of order 1 alone, over the budget of 10000000\n",
                ),
                id="tnn-budget",
            ),
        ],
    )
    def test_numbers_past_the_limit_print_in_full(self, argv, code, view, expected, capsys):
        limit = sys.get_int_max_str_digits()
        assert cli.main(argv) == code
        assert sys.get_int_max_str_digits() == limit
        out, err = capsys.readouterr()
        assert (_uncapped(lambda: view(out)), err) == _uncapped(expected)

    def test_argv_past_the_limit_is_refused(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            cli.main(["f2g", "--d", "1", "--f", "1" * (limit + 1)])
        assert exc.value.code == 2
        assert sys.get_int_max_str_digits() == limit
        assert "expected comma-separated integers" in capsys.readouterr().err


class TestVectorCommands:
    def test_g2f_octahedron(self):
        res = run_cli("g2f", "--g", "1,2", "--d", "3")
        assert res.returncode == 0
        assert res.stdout == "6,12,8\n"

    def test_f2g_simplex(self):
        res = run_cli("f2g", "--f", "4,6,4", "--d", "3")
        assert res.stdout == "1,0\n"

    def test_feasible_fail(self):
        res = run_cli("feasible", "--f", "4,6,5", "--d", "3")
        assert res.returncode == 0
        assert res.stdout == "fail, condition=euler\n"

    def test_feasible_pass(self):
        res = run_cli("feasible", "--f", "6,12,8", "--d", "3")
        assert res.stdout == "pass\n"

    def test_feasible_json(self):
        res = run_cli("feasible", "--f", "6,12,8", "--d", "3", "--format", "json")
        obj = json.loads(res.stdout)
        assert obj["pass"] is True
        assert obj["g"] == [1, 2]

    def test_euler(self):
        assert run_cli("euler", "--f", "4,6,4", "--d", "3").stdout == "true\n"
        assert run_cli("euler", "--f", "4,6,5", "--d", "3").stdout == "false\n"

    def test_length_mismatch_names_expected_length(self):
        res = run_cli("f2g", "--f", "4,6", "--d", "3")
        assert res.returncode == 1
        assert "3" in res.stderr

    def test_malformed_vector_is_usage_error(self):
        res = run_cli("f2g", "--f", "4,six,4", "--d", "3")
        assert res.returncode == 2

    def test_json_vector_output(self):
        res = run_cli("f2g", "--f", "6,12,8", "--d", "3", "--format", "json")
        assert json.loads(res.stdout) == {"d": 3, "g": [1, 2]}


class TestMsequenceCommand:
    def test_true_case(self):
        res = run_cli("msequence", "--seq", "1,4,10,20")
        assert res.returncode == 0
        assert res.stdout == "true\n"

    def test_false_case_names_index(self):
        res = run_cli("msequence", "--seq", "1,2,4")
        assert res.returncode == 0
        assert res.stdout.startswith("false, k=2")

    def test_wrong_head(self):
        res = run_cli("msequence", "--seq", "2,1")
        assert res.stdout == "false, k=0\n"

    def test_huge_entry_finishes(self):
        res = run_cli("msequence", "--seq", "1,1000000000000", timeout=5)
        assert res.returncode == 0
        assert res.stdout == "true\n"

    def test_oracle_flag_agrees(self):
        # 1,3,2: the oracle must search all n_1 = 3 variables; 1,20000 and 1,3000,0
        # ran out of memory or time while whole exponent vectors were built
        for seq in ("1,3,5", "1,3,2", "1,20000", "1,3000,0", "1,5,12,22"):
            res = run_cli("msequence", "--seq", seq, "--oracle", timeout=5)
            assert res.returncode == 0
            assert res.stdout == "true\n"

    def test_max_vars_is_not_an_option(self):
        res = run_cli("msequence", "--seq", "1,3,2", "--oracle", "--max-vars", "1")
        assert res.returncode == 2
        assert "unrecognized arguments: --max-vars 1" in res.stderr

    def test_oracle_zero_gap_finishes(self):
        # 1,7,5,0,1 took 44 s and 1,6,4,0,1 2 s before the division-closure prune
        for seq in ("1,7,5,0,1", "1,6,4,0,1"):
            res = run_cli("msequence", "--seq", seq, "--oracle", timeout=5)
            assert res.returncode == 0
            assert res.stdout == "false, k=4, boundary=1, bound=0\n"

    def test_oracle_budget_exceeded(self):
        # 1,7,5,1,2 ran for over a minute under the entry-sum rule
        for seq in ("1,7,5,1,2", "1,1000000000000"):
            res = run_cli("msequence", "--seq", seq, "--oracle", timeout=5)
            assert res.returncode == 1
            assert res.stderr.startswith("error: oracle infeasible")
            assert "budget" in res.stderr
            assert "Traceback" not in res.stderr

    def test_oracle_disagreement_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(macaulay, "oracle_is_m_sequence", lambda seq, variables: False)
        assert cli.main(["msequence", "--seq", "1,2,3", "--oracle"]) == 4
        assert capsys.readouterr() == (
            "",
            "cross-check failure: is_m_sequence says True but the multicomplex oracle says False for 1,2,3\n",
        )

    def test_json_schema(self):
        res = run_cli("msequence", "--seq", "1,2,4", "--format", "json")
        assert json.loads(res.stdout) == {
            "is_m_sequence": False,
            "witness_k": 2,
            "boundary_value": 3,
        }


class TestLgvCommand:
    def test_verify_known_minor(self):
        res = run_cli("lgv", "--n", "4", "--verify", "--rows", "0,1", "--cols", "1,2")
        assert res.returncode == 0
        assert res.stdout == "det=6, lgv=6, equal\n"

    def test_verify_mismatch_exits_4(self, monkeypatch, capsys):
        count = lgv.minor_via_lgv
        monkeypatch.setattr(lgv, "minor_via_lgv", lambda graph, rows, cols: count(graph, rows, cols) + 1)
        assert cli.main(["lgv", "--n", "9", "--verify", "--rows", "0", "--cols", "1"]) == 4
        assert capsys.readouterr() == (
            "",
            "cross-check failure: minor mismatch on n=9, rows=[0], cols=[1]: det=9, lgv=10\n",
        )

    def test_verify_eliminates_the_minors_own_entries(self, monkeypatch, capsys):
        # the elimination side takes the minor's entries from the closed form, so a wrong entry exits 4
        entry = cli.path_weight_closed_form
        monkeypatch.setattr(cli, "path_weight_closed_form", lambda n, i, j: entry(n, i, j) + ((i, j) == (0, 1)))
        assert cli.main(["lgv", "--n", "9", "--verify", "--rows", "0", "--cols", "1"]) == 4
        assert capsys.readouterr() == (
            "",
            "cross-check failure: minor mismatch on n=9, rows=[0], cols=[1]: det=10, lgv=9\n",
        )

    def test_verify_refuses_before_it_eliminates(self, monkeypatch, capsys):
        calls = []

        def entry(n, i, j):
            calls.append((n, i, j))
            raise AssertionError("the elimination side ran before the refusal")

        monkeypatch.setattr(cli, "path_weight_closed_form", entry)
        for n, cols, message in (
            ("9", "9", "sink index out of range: j = 9, valid 0..8"),
            ("11", "1", "family enumeration budget is order <= 3 and n <= 10; got order 1, n 11"),
        ):
            assert cli.main(["lgv", "--n", n, "--verify", "--rows", "0", "--cols", cols]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []

    def test_verify_requires_indices(self):
        res = run_cli("lgv", "--n", "4", "--verify")
        assert res.returncode == 2

    def test_verify_with_dot_is_usage_error(self, tmp_path):
        # the pair used to write the DOT file and skip checking the minor
        out = tmp_path / "x.dot"
        res = run_cli("lgv", "--n", "8", "--verify", "--rows", "0,1", "--cols", "5,4", "--dot", str(out))
        assert res.returncode == 2
        assert "not allowed with argument" in res.stderr
        assert not out.exists()

    def test_dot_file(self, tmp_path):
        out = tmp_path / "t8.dot"
        res = run_cli("lgv", "--n", "8", "--dot", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.startswith("digraph lattice8 {")
        assert text.count("->") == 28

    def test_dot_stdout(self):
        res = run_cli("lgv", "--n", "2", "--format", "dot")
        assert res.stdout == (
            "digraph lattice2 {\n"
            '  "(0,0)";\n'
            '  "(0,1)";\n'
            '  "(0,0)" -> "(0,1)" [label="2"];\n'
            "}\n"
        )

    def test_too_small_order(self):
        res = run_cli("lgv", "--n", "1")
        assert res.returncode == 1

    def test_budget_exceeded(self):
        res = run_cli("lgv", "--n", "8", "--verify", "--rows", "0,1,2,3", "--cols", "0,1,2,3")
        assert res.returncode == 1
        assert "budget" in res.stderr

    def test_budget_refused_before_graph(self):
        # minor_via_lgv checks the family budget before it walks a path; no graph is built
        res = run_cli("lgv", "--n", "100000", "--verify", "--rows", "0", "--cols", "0", timeout=5)
        assert res.returncode == 1
        assert res.stderr == (
            "error: family enumeration budget is order <= 3 and n <= 10; got order 1, n 100000\n"
        )

    def test_graph_budget_refused_up_front(self, tmp_path):
        # about 2.5e9 vertices: building them would exhaust memory
        for extra in ([], ["--format", "json"], ["--format", "dot"], ["--dot", str(tmp_path / "g.dot")]):
            res = run_cli("lgv", "--n", "100000", *extra, timeout=5)
            assert res.returncode == 1
            assert res.stderr == (
                "error: the lattice graph of order 100000 has 2500050000 vertices, "
                "over the budget of 25000\n"
            )
            assert res.stdout == ""
        assert not (tmp_path / "g.dot").exists()

    def test_rows_cols_without_verify_is_usage_error(self, tmp_path, capsys):
        # they used to be ignored, and the graph printed with exit 0
        out = tmp_path / "x.dot"
        for indices in (["--rows", "0"], ["--cols", "1"], ["--rows", "0", "--cols", "1"]):
            for extra in ([], ["--format", "json"], ["--format", "dot"], ["--dot", str(out)]):
                assert cli.main(["lgv", "--n", "8", *indices, *extra]) == 2
                assert capsys.readouterr() == ("", "usage error: --rows and --cols require --verify\n")
        assert not out.exists()

    def test_verify_without_rows_and_cols_is_usage_error(self, capsys):
        for indices in ([], ["--rows", "0"], ["--cols", "1"]):
            assert cli.main(["lgv", "--n", "5", "--verify", *indices]) == 2
            assert capsys.readouterr() == ("", "usage error: --verify requires --rows and --cols\n"), indices

    def test_format_with_verify_or_dot_is_usage_error(self, tmp_path, capsys):
        # --verify and --dot have one output each; a --format json/dot beside them used to be ignored
        out = tmp_path / "x.dot"
        for route, name in ((["--verify", "--rows", "0", "--cols", "1"], "--verify"), (["--dot", str(out)], "--dot")):
            for fmt in ("json", "dot"):
                assert cli.main(["lgv", "--n", "8", *route, "--format", fmt]) == 2
                assert capsys.readouterr() == ("", f"usage error: --format {fmt} does not apply to {name}\n")
        assert not out.exists()
        # the default text format still runs both routes
        assert cli.main(["lgv", "--n", "8", "--verify", "--rows", "0", "--cols", "1", "--format", "text"]) == 0
        assert capsys.readouterr().out == "det=8, lgv=8, equal\n"
        assert cli.main(["lgv", "--n", "8", "--dot", str(out), "--format", "text"]) == 0
        assert out.read_text().startswith("digraph lattice8 {")

    def test_json_graph(self):
        res = run_cli("lgv", "--n", "4", "--format", "json")
        obj = json.loads(res.stdout)
        assert obj["n"] == 4
        assert len(obj["vertices"]) == 6


class TestParserAndWriter:
    # every subcommand's actions, in order: (option strings, required, choices, default)
    SHAPE = {
        "matrix": [
            (["-h", "--help"], False, None, argparse.SUPPRESS),
            (["--d"], False, None, None),
            (["--n"], False, None, None),
            (["--augmented"], False, None, False),
            (["--format"], False, ("text", "csv", "json"), "text"),
        ],
        "tnn": [
            (["-h", "--help"], False, None, argparse.SUPPRESS),
            (["--d"], False, None, None),
            (["--n"], False, None, None),
            (["--file"], False, None, None),
            (["--max-order"], False, None, None),
            (["--jobs"], False, None, 1),
            (["--format"], False, ("text", "json"), "text"),
        ],
        **{
            name: [
                (["-h", "--help"], False, None, argparse.SUPPRESS),
                ([vector], True, None, None),
                (["--d"], True, None, None),
                (["--format"], False, formats, "text"),
            ]
            for name, vector, formats in (
                ("f2g", "--f", ("text", "csv", "json")),
                ("g2f", "--g", ("text", "csv", "json")),
                ("euler", "--f", ("text", "json")),
                ("feasible", "--f", ("text", "json")),
            )
        },
        "msequence": [
            (["-h", "--help"], False, None, argparse.SUPPRESS),
            (["--seq"], True, None, None),
            (["--oracle"], False, None, False),
            (["--format"], False, ("text", "json"), "text"),
        ],
        "lgv": [
            (["-h", "--help"], False, None, argparse.SUPPRESS),
            (["--n"], True, None, None),
            (["--verify"], False, None, False),
            (["--rows"], False, None, None),
            (["--cols"], False, None, None),
            (["--dot"], False, None, None),
            (["--format"], False, ("text", "json", "dot"), "text"),
        ],
    }

    def test_parser_shape(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

        def shape(p):
            return [(a.option_strings, a.required, a.choices, a.default) for a in p._actions]

        full = {name: shape(p) for name, p in sub.choices.items()}
        assert list(full) == list(self.SHAPE)
        assert full == self.SHAPE
        # main parses a named subcommand with that subcommand's parser alone,
        # built from the same table: it must match the full parser's subparser
        assert list(cli._COMMANDS) == list(sub.choices)
        for name, p in sub.choices.items():
            alone = cli._command_parser(name)
            assert shape(alone) == self.SHAPE[name]
            assert (alone.prog, alone.get_default("func")) == (p.prog, p.get_default("func"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--d", "3"],
            ["tnn", "--d", "5"],
            ["tnn", "--file", "NEGATIVE"],
            ["f2g", "--f", "6,12,8", "--d", "3"],
            ["g2f", "--g", "1,2", "--d", "3"],
            ["euler", "--f", "4,6,5", "--d", "3"],
            ["feasible", "--f", "4,6,5", "--d", "3"],
            ["feasible", "--f", "6,12,8", "--d", "3"],
            ["msequence", "--seq", "1,3,6,10"],
            ["msequence", "--seq", "1,2,4"],
            ["lgv", "--n", "4"],
        ],
        ids=" ".join,
    )
    def test_json_is_one_sorted_line(self, argv, tmp_path, capsys):
        negative = tmp_path / "negative.csv"
        negative.write_text("1,2\n3,1\n")
        argv = [str(negative) if a == "NEGATIVE" else a for a in argv]
        assert cli.main([*argv, "--format", "json"]) in (0, 3)
        out, err = capsys.readouterr()
        (line,) = out.splitlines()
        assert out == line + "\n"
        assert line == json.dumps(json.loads(line), sort_keys=True)
        assert err == ""


# per subcommand: a cheap accepted call, and flags it takes only by abbreviation
CALLS = {
    "matrix": (["--d", "3"], ["--aug"]),
    "tnn": (["--d", "5"], ["--max", "2"]),
    "f2g": (["--f", "6,12,8", "--d", "3"], ["--fo", "csv"]),
    "g2f": (["--g", "1,2", "--d", "3"], ["--fo", "csv"]),
    "euler": (["--f", "4,6,5", "--d", "3"], ["--fo", "text"]),
    "feasible": (["--f", "6,12,8", "--d", "3"], ["--fo", "text"]),
    "msequence": (["--seq", "1,3,6,10"], ["--or"]),
    "lgv": (["--n", "4"], ["--ver", "--rows", "0", "--cols", "1"]),
}

ARGVS = [
    argv
    for name, (ok, abbreviated) in CALLS.items()
    for argv in (
        [name, *ok],
        [name, "-h"],
        [name, "--he"],
        [name, *ok, "-h"],
        [name, *ok[2:]],  # its first flag, a required one, left out
        [name, ok[0], "x", *ok[2:]],  # a value its type refuses
        [name, *ok, "--format", "yaml"],
        [name, *ok, "--format=json"],
        [name, *ok, "--form", "json"],
        [name, *ok, *abbreviated],
        [name, *ok, "--bogus"],
        [name, *ok, "extra"],
        [name, "--", *ok],
        [name, *ok, "--"],
        [name, *ok, "--", "extra"],
        [name, *ok, ok[0]],  # a flag without its value
    )
] + [
    [],
    ["-h"],
    ["--help", "tnn"],
    ["bogus"],
    ["--", "tnn", "--d", "3"],
    ["TNN"],
    ["tnn", "--f", "x"],  # ambiguous: --file or --format
]


class TestFastParse:
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_bytes_as_the_full_parser(self, argv, capsys):
        def outcome(call):
            try:
                code = call(argv)
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        assert outcome(cli.main) == outcome(lambda argv: full_parser_main(cli, argv))

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        argv = ["lgv", "--n", "9", "--verify", "--rows", "0,2,4", "--cols", "1,5,8"]
        monkeypatch.setattr(sys, "argv", ["polytnn", *argv])
        assert cli.main() == 0
        assert capsys.readouterr() == ("det=135, lgv=135, equal\n", "")
        monkeypatch.setattr(sys, "argv", ["polytnn", "tnn", "--d", "5", "extra"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "usage: polytnn [-h] {matrix,tnn,f2g,g2f,euler,feasible,msequence,lgv} ...\n"
            "polytnn: error: unrecognized arguments: extra\n"
        )


class TestGlobalBehavior:
    def test_no_subcommand_is_usage_error(self):
        res = run_cli()
        assert res.returncode == 2

    def test_unknown_subcommand(self):
        res = run_cli("frobnicate")
        assert res.returncode == 2

    def test_import_loads_no_dataclasses_inspect_pickle_or_signal(self):
        # only the modules importing polytnn.cli adds count: a site may preload any of these
        script = "import sys; before = set(sys.modules); import polytnn.cli; print(*sorted(set(sys.modules) - before))"
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        loaded = set(res.stdout.split())
        assert "polytnn.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "pickle", "signal"}

    @pytest.mark.parametrize(
        "code, loads",
        [
            ("import polytnn; assert not hasattr(polytnn, '__wrapped__')", set()),
            ("import polytnn, polytnn.cli", CLI_LOADS),
            ("import polytnn.cli; assert polytnn.cli.main(['tnn', '--d', '5']) == 0", CLI_LOADS),
            ("import polytnn.cli; assert polytnn.cli.main(['matrix', '--d', '3']) == 0", CLI_LOADS),
            ("import polytnn.cli; assert polytnn.cli.main(['msequence', '--seq', '1,2,1']) == 0", CLI_LOADS | {"macaulay"}),
            ("import polytnn.cli; assert polytnn.cli.main(['lgv', '--n', '5']) == 0", CLI_LOADS | {"lgv"}),
            (
                "import polytnn.cli; assert polytnn.cli.main(['feasible', '--f', '4,6,4', '--d', '3']) == 0",
                CLI_LOADS | {"polyvec", "macaulay"},
            ),
            ("import polytnn; assert set(polytnn.__all__) <= set(dir(polytnn))", LIBRARY),
            # a miss searches every module once; after that it imports and searches nothing
            ("import polytnn; assert not hasattr(polytnn, 'cli'); polytnn._module = None; assert not hasattr(polytnn, 'x')", LIBRARY),
            ("import polytnn; assert polytnn.is_m_sequence([1, 2, 1])", {"errors", "exactnum", "transfer", "tnn", "macaulay"}),
            # the face-vector transforms build no matrix
            ("import polytnn.polyvec", {"errors", "exactnum", "macaulay", "polyvec"}),
        ],
        ids=["probe", "import", "tnn", "matrix", "msequence", "lgv", "feasible", "dir", "miss", "name", "polyvec"],
    )
    def test_each_call_loads_only_the_modules_it_runs(self, code, loads):
        # a fresh interpreter, so no other test's imports count
        script = f"import sys\n{code}\nprint(*(m for m in sys.modules if m.startswith('polytnn.')), file=sys.stderr)"
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert set(res.stderr.split()) == {f"polytnn.{short}" for short in loads}

    @pytest.mark.parametrize(
        "argv, code, loads",
        [
            (None, 0, set()),
            (["tnn", "--d", "5"], 0, set()),
            (["tnn", "--d", "5", "--jobs", "2"], 0, set()),
            (["lgv", "--n", "9", "--verify", "--rows", "0,2", "--cols", "1,5"], 0, set()),
            (["f2g", "--f", "6,12,8", "--d", "3"], 0, set()),
            (["feasible", "--f", "6,12,8", "--d", "3"], 0, set()),
            (["msequence", "--seq", "1,3,4", "--oracle"], 0, set()),
            (["matrix", "--d", "4"], 0, set()),
            (["tnn", "--file", str(RATIONAL_CSV)], 3, {"fractions", "decimal", "numbers"}),
            (["tnn", "--d", "5", "--format", "json"], 0, {"json"}),
            (["lgv", "--n", "5", "--format", "json"], 0, {"fractions", "decimal", "numbers", "json"}),
        ],
        ids=["import", "tnn", "tnn-jobs", "lgv-verify", "f2g", "feasible", "msequence", "matrix", "tnn-file", "tnn-json", "lgv-json"],
    )
    def test_fractions_and_json_load_only_in_the_calls_that_use_them(self, argv, code, loads):
        # a fresh interpreter, and only what the import and the call add counts: a site may preload any
        lazy = ("fractions", "decimal", "numbers", "json")
        script = (
            f"import sys\nbefore = set(sys.modules)\nimport polytnn.cli\nargv = {argv!r}\n"
            "code = 0 if argv is None else polytnn.cli.main(argv)\n"
            f"print(code, *(m for m in {lazy!r} if m in sys.modules and m not in before), file=sys.stderr)\n"
            f"print(*(m for m in {lazy!r} if m in before), file=sys.stderr)\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        added, preloaded = res.stderr.splitlines()[-2:]
        assert added.split() == [str(code), *(m for m in lazy if m in loads - set(preloaded.split()))], res.stderr

    def test_determinism_across_runs(self):
        a = run_cli("lgv", "--n", "7", "--format", "json").stdout
        b = run_cli("lgv", "--n", "7", "--format", "json").stdout
        assert a == b

    def test_console_script_installed(self, tmp_path):
        # The `polytnn` command is what an installer generates from the
        # [project.scripts] entry, so check that entry from the checkout and
        # also the installed script when the running interpreter has one.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["polytnn"]
        module, _, qualname = entry.partition(":")

        target = importlib.import_module(module)
        for attr in qualname.split("."):
            target = getattr(target, attr)
        # `python -m polytnn` (run_cli) and the command must run the same code.
        assert target is polytnn.__main__.run

        # The wrapper pip writes for a console_scripts entry.
        wrapper = tmp_path / "polytnn"
        wrapper.write_text(
            "import sys\n"
            f"from {module} import {qualname.split('.')[0]}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = 'polytnn'\n"
            f"    sys.exit({qualname}())\n"
        )
        package_root = str(Path(polytnn.__file__).resolve().parent.parent)
        runs = [
            ([sys.executable, str(wrapper)], {**os.environ, "PYTHONPATH": package_root})
        ]
        installed = Path(sysconfig.get_path("scripts")) / "polytnn"
        if installed.exists():
            runs.append(([str(installed)], None))

        for command, env in runs:
            res = subprocess.run(
                [*command, "matrix", "--d", "1"], capture_output=True, text=True, env=env
            )
            assert res.returncode == 0, (command, res.stderr)
            assert res.stdout == "2\n"
