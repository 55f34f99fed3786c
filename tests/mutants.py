"""Mutant catalogue: small faults in src/ that the named tests must catch.

Each entry changes one file of a fresh copy of src/. Its old text must occur
there exactly once, so an entry whose target code has moved on fails loudly
instead of testing nothing. The runner then runs `pytest -x -q` on the entry's
test files with PYTHONPATH at the copy; the mutant is killed when pytest exits
nonzero. Before any mutant, the same test files must pass on an unchanged copy.

    python3 tests/mutants.py

prints one line per mutant, then killed/total, and exits 1 if a mutant survives
or no longer applies. A pytest run that takes more than 300 s is stopped: a
mutant that hangs counts as killed, and an unchanged copy that hangs fails the
run. The file has no test_ prefix, so a plain pytest run does not collect it;
the whole catalogue takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/polytnn
    old: str
    new: str
    tests: tuple[str, ...]
    found: str  # the change whose checks found it, by its commit subject


BUILD = "Build each matrix per call"
LAZY = "Load each subcommand's modules on first use"
WITNESS = "tnn: a worker records its first negative minor as (order, rows, cols)"
HORNER = "Face-vector transforms by Horner's rule"
ARGS = "One integer rule for arguments too"
SKIP = "tnn: skip every line set that holds a linearly dependent one"
PARSE = "cli: parse each call with only its subcommand's parser"
FORK = "tnn --jobs: fork one child per share and scan one share in the caller"
PIPE = "tnn --jobs: workers take the top lines off one pipe as they free up"
BLOCKS = "tnn: one scan route through the dealing pipe, in contiguous blocks"
SWEEP = "lgv: one lattice-path kernel; the sweep moves one head at a time"
ORACLE = "msequence --oracle: one work budget, counted as the search runs"
RANGE = "One integer rule, finished"
DIGITS = "One digit rule at the CLI boundary"
NUMBERS = "One number rule for library messages"
LAZY_STDLIB = "Import fractions and json where they are first used"

CLI = ("tests/test_cli.py",)
SCAN = ("tests/test_tnn.py", "tests/test_cli.py")
FACES = ("tests/test_polyvec.py", "tests/test_exports.py", "tests/test_cli.py")
VERIFY_ROW = "path_weight_closed_form(args.n, i, j) for j in args.cols]"
RECORDS = ("tests/test_records.py",)
LGV = ("tests/test_lgv.py",)
NESTED = ("tests/test_transfer.py", "tests/test_cli.py")
WORKERS = "min(jobs, len(ints), os.cpu_count() or 1)"
BLOCK = "range(top, max(top - size, -1), -1)"
MOVE = "if reach <= x < prev and _inside(n, x, s - x):"
COMMAND_PARSER = 'argparse.ArgumentParser(prog=f"polytnn {name}")'
TESTED = "        tested += binomial(v + k - 1, k)\n"
CAP_CHECK = """        if tested > ORACLE_WORK_CAP:
            text = "oracle infeasible: reaching degree {} takes the search past its budget of {} monomial tests"
            raise _refuse(text, k, ORACLE_WORK_CAP)
"""
COUNT = TESTED + CAP_CHECK
LISTING = """        prev = frozenset(chosen)
        avail = [m for m, divisors in _monomials(v, k) if prev.issuperset(divisors)]
"""
MAX_ORDER = '_check_ints((max_order,), "max_order must be in 1..{most}", least=1, most=limit)'
LIFT = """    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
"""
CUT = "    if rows * cols > SCAN_BUDGET:"
BUDGETS = ("tests/test_budgets.py",)
NUMBER_TESTS = ("tests/test_exactnum.py",)
SHOWN = "    if not cap or m < 10**cap:\n"
CHECK_LOOP = """    for v in values:
        wrong = not isinstance(v, types) or isinstance(v, bool) or (least is not None and v < least)
        if wrong or (most is not None and v > most):
            raise ValueError(f"{message.format(least=_render(least), most=_render(most))}, got {_render(v)}")
"""
FAMILY = "if len(rows) > FAMILY_MAX_ORDER or n > FAMILY_MAX_N:"
GOLDEN = ("tests/test_golden.py",)

MUTANTS = (
    # a process keeps every transfer matrix it built
    Mutant(
        "transfer.py",
        "\ndef transfer_matrix(d: int) -> TransferMatrix:\n",
        '\n@__import__("functools").lru_cache\ndef transfer_matrix(d: int) -> TransferMatrix:\n',
        ("tests/test_transfer.py",),
        BUILD,
    ),
    # lgv --verify eliminates the transposed minor, or the minor of order n + 1
    Mutant("cli.py", VERIFY_ROW, VERIFY_ROW.replace("i, j", "j, i"), CLI, BUILD),
    Mutant("cli.py", VERIFY_ROW, VERIFY_ROW.replace("args.n,", "args.n + 1,"), CLI, BUILD),
    # an eager import: `import polytnn` loads lgv, or every CLI call does
    Mutant("__init__.py", '__version__ = "0.1.0"\n', '__version__ = "0.1.0"\nfrom .lgv import *  # noqa\n', CLI, LAZY),
    Mutant(
        "cli.py",
        "from .errors import CrossCheckError\n",
        "from .errors import CrossCheckError\nfrom .lgv import minor_via_lgv\n",
        CLI,
        LAZY,
    ),
    # the first negative minor: rows and cols swapped on a wide matrix, the subset
    # before the negative entry's, the witness transposed, the latest record kept
    Mutant(
        "tnn.py",
        "here = (len(lines), subset, lines) if wide else",
        "here = (len(lines), lines, subset) if wide else",
        SCAN,
        WITNESS,
    ),
    Mutant(
        "tnn.py",
        "subset = subsets[next(i for i, v in enumerate(table) if v < 0)]",
        "subset = subsets[next(i for i, v in enumerate(table) if v < 0) - 1]",
        SCAN,
        WITNESS,
    ),
    Mutant("tnn.py", "determinant(mat.submatrix(rows, cols))", "determinant(mat.submatrix(cols, rows))", SCAN, WITNESS),
    Mutant("tnn.py", "return first if first is not None and first <= here else here", "return here", SCAN, WITNESS),
    # h rebuilt off by one, f shifted by x + 1, negative values off by one, and the
    # two imports the benchmark relies on: lgv's closed form gone, polyvec loading transfer
    Mutant("polyvec.py", "half[min(i, g.d - i)]", "half[min(i, g.d - i - 1)]", FACES, HORNER),
    Mutant("polyvec.py", "_horner((1,) + f.counts, -1)", "_horner((1,) + f.counts, 1)", FACES, HORNER),
    Mutant("polyvec.py", "        c[-1] += v\n", "        c[-1] += v - (v < 0)\n", FACES, HORNER),
    Mutant("lgv.py", "from .transfer import path_weight_closed_form\n", "", FACES, HORNER),
    Mutant(
        "polyvec.py",
        "from .macaulay import MSequenceVerdict, is_m_sequence\n",
        "from .macaulay import MSequenceVerdict, is_m_sequence\nfrom .transfer import path_matrix\n",
        FACES,
        HORNER,
    ),
    # an integer argument checked by hand again, so a bool or a float gets through
    Mutant(
        "polyvec.py",
        '_check_ints((d,), "FVector: d must be >= 1", least=1)',
        'if d < 1: raise ValueError(f"FVector: d must be >= 1, got {d}")',
        RECORDS,
        ARGS,
    ),
    Mutant(
        "lgv.py",
        '_check_ints((n,), "lattice_graph: n must be >= 2", least=2)',
        'if n < 2: raise ValueError(f"lattice_graph: n must be >= 2, got {n}")',
        RECORDS,
        ARGS,
    ),
    Mutant(
        "tnn.py",
        '_check_ints((jobs,), "jobs must be >= 1", least=1)',
        'if jobs < 1: raise ValueError(f"jobs must be >= 1, got {jobs}")',
        RECORDS,
        ARGS,
    ),
    # deeply nested JSON escapes as a RecursionError traceback
    Mutant("transfer.py", "except RecursionError", "except ZeroDivisionError", NESTED, ARGS),
    # the walker keeps walking past a zero table, or skips one that still has a nonzero entry
    Mutant("tnn.py", "if low == 0 and not any(t):", "if False:", SCAN, SKIP),
    Mutant("tnn.py", "if low == 0 and not any(t):", "if low == 0:", SCAN, SKIP),
    # leftover arguments accepted by the subcommand's parser instead of the full parser's usage error
    Mutant("cli.py", "        if not rest:\n", "        if True:\n", CLI, PARSE),
    # workers not capped by lines, or by CPUs, or jobs ignored
    Mutant("tnn.py", WORKERS, "min(jobs, os.cpu_count() or 1)", SCAN, FORK),
    Mutant("tnn.py", WORKERS, "min(jobs, len(ints))", SCAN, FORK),
    Mutant("tnn.py", WORKERS, "1", SCAN, FORK),
    # the fold reads the least value of a worker that took no line
    Mutant("tnn.py", "for low, scale, _ in results if scale)", "for low, scale, _ in results)", SCAN, PIPE),
    # the old exact-value rule: an int only when the scale is 1, so a whole value over a scale is a Fraction
    Mutant("tnn.py", "    if value % scale:\n", "    if scale != 1:\n", SCAN, PIPE),
    # the dealing pipe: its last block's byte not written, ceil(lines/255) lines a block,
    # the last block not clipped at line 0, and every block cut to its first line
    Mutant("tnn.py", "bytes(range(len(blocks)))", "bytes(range(len(blocks) - 1))", SCAN, BLOCKS),
    Mutant("tnn.py", "size = -(-lines // 256)", "size = -(-lines // 255)", SCAN, BLOCKS),
    Mutant("tnn.py", BLOCK, "range(top, top - size, -1)", SCAN, BLOCKS),
    Mutant("tnn.py", BLOCK, "range(top, top - 1, -1)", SCAN, BLOCKS),
    # the sweep without its reach bound, with heads that may meet, and without the out-of-order raise
    Mutant("lgv.py", MOVE, "if x < prev and _inside(n, x, s - x):", LGV, SWEEP),
    Mutant("lgv.py", MOVE, "if reach <= x <= prev and _inside(n, x, s - x):", LGV, SWEEP),
    Mutant("lgv.py", "if x > prev:", "if False:", LGV, SWEEP),
    # a subcommand's parser alone with another prog, or refusing abbreviated options
    Mutant("cli.py", COMMAND_PARSER, 'argparse.ArgumentParser(prog=f"polytnn-{name}")', CLI, PARSE),
    Mutant("cli.py", COMMAND_PARSER, 'argparse.ArgumentParser(prog=f"polytnn {name}", allow_abbrev=False)', CLI, PARSE),
    # the oracle counts a degree's monomials only after it has listed them
    Mutant("macaulay.py", COUNT + LISTING, LISTING + COUNT, ("tests/test_macaulay.py", "tests/test_cli.py"), ORACLE),
    # an upper bound ignored, check_scan's hand-written range check back (True reads as 1),
    # and lgv indices taken without the integer rule
    Mutant("exactnum.py", "if wrong or (most is not None and v > most):", "if wrong:", RECORDS, RANGE),
    Mutant(
        "tnn.py",
        MAX_ORDER,
        'if max_order < 1 or max_order > limit: raise ValueError(f"max_order must be in 1..{limit}, got {max_order}")',
        RECORDS,
        RANGE,
    ),
    Mutant("lgv.py", '    _check_ints((i, j), "source and sink indices must be integers")\n', "", RECORDS, RANGE),
    # every command's output under the interpreter's digit limit, the limit left lifted after
    # main, and tnn --file parsed without the caller's limit
    Mutant("cli.py", LIFT, LIFT.replace("    sys.set_int_max_str_digits(0)\n", ""), CLI, DIGITS),
    Mutant("cli.py", "        sys.set_int_max_str_digits(args.digits)\n", "        pass\n", CLI, DIGITS),
    Mutant("cli.py", "    sys.set_int_max_str_digits(digits)\n", "", CLI, DIGITS),
    # check_scan sums every order of an oversized shape, or cuts one at exactly the budget
    Mutant("tnn.py", CUT, "    if False:", SCAN, DIGITS),
    Mutant("tnn.py", CUT, CUT.replace(">", ">="), SCAN, DIGITS),
    # a number past the interpreter's int-to-str cap written in full, its digit count one short
    # at a power of ten, and a refusal that writes its numbers by str
    Mutant("exactnum.py", SHOWN, "    if True:\n", NUMBER_TESTS, NUMBERS),
    Mutant("exactnum.py", "    while m >= 10**n:\n", "    while m > 10**n:\n", NUMBER_TESTS, NUMBERS),
    Mutant("exactnum.py", "format(*map(_render, numbers))", "format(*map(str, numbers))", NUMBER_TESTS, NUMBERS),
    # _check_ints writes its message on every call, before it checks anything
    Mutant(
        "exactnum.py",
        CHECK_LOOP,
        "    text = message.format(least=_render(least), most=_render(most))\n"
        + CHECK_LOOP.replace("{message.format(least=_render(least), most=_render(most))}", "{text}"),
        NUMBER_TESTS,
        NUMBERS,
    ),
    # each budget refuses an input whose work is exactly at it
    Mutant("tnn.py", "    if work > SCAN_BUDGET:", "    if work >= SCAN_BUDGET:", BUDGETS, NUMBERS),
    Mutant("lgv.py", "if _vertex_count(n) > GRAPH_BUDGET:", "if _vertex_count(n) >= GRAPH_BUDGET:", BUDGETS, NUMBERS),
    Mutant("lgv.py", FAMILY, FAMILY.replace("len(rows) >", "len(rows) >="), BUDGETS, NUMBERS),
    Mutant("lgv.py", FAMILY, FAMILY.replace("n >", "n >="), BUDGETS, NUMBERS),
    Mutant("macaulay.py", CAP_CHECK, CAP_CHECK.replace(">", ">=", 1), BUDGETS, NUMBERS),
    # the oracle checks its cap only after it has listed the degree the cap guards
    Mutant("macaulay.py", COUNT + LISTING, TESTED + LISTING + CAP_CHECK, BUDGETS, NUMBERS),
    # the row scan lets a bool through, a p/q cell is read by int, --format json prints the
    # text, fractions loads at import again, and the path sum refuses a call at its budget
    Mutant(
        "tnn.py",
        "if not all(type(x) is int for x in row):",
        "if not all(isinstance(x, int) for x in row):",
        RECORDS,
        LAZY_STDLIB,
    ),
    Mutant("transfer.py", "            return fraction(s)\n", "            return int(s)\n", NESTED, LAZY_STDLIB),
    Mutant("cli.py", "        text = json.dumps(obj, sort_keys=True)\n", "        json.dumps(obj, sort_keys=True)\n", GOLDEN, LAZY_STDLIB),
    Mutant("tnn.py", "import sys\n", "import sys\nfrom fractions import Fraction\n", CLI, LAZY_STDLIB),
    Mutant("lgv.py", "> PATH_SUM_BUDGET:", ">= PATH_SUM_BUDGET:", BUDGETS, LAZY_STDLIB),
)


def _pytest(src: Path, tests) -> int | None:
    """pytest's exit code, or None when the run took more than 300 s and was killed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def _copy(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(_copy(tmp), tests) != 0:
            print(f"the unchanged copy fails {' '.join(tests)}; no mutant is meaningful")
            return 1
        killed = 0
        for n, m in enumerate(MUTANTS, 1):
            path = _copy(tmp) / "polytnn" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                verdict = f"STALE (old text occurs {text.count(m.old)} times)"
            else:
                path.write_text(text.replace(m.old, m.new), encoding="utf-8")
                code = _pytest(path.parents[1], m.tests)
                verdict = "killed (timeout)" if code is None else "killed" if code else "SURVIVED"
            killed += verdict.startswith("killed")
            print(f"{n:2} {verdict}: {m.file}: {m.old.strip()!r} -> {m.new.strip()!r} [{m.found}]", flush=True)
    print(f"{killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
