"""Mutant catalogue: small faults in src/ that the named tests must catch.

Each entry changes one file of a fresh copy of src/. Its old text must occur
there exactly once, so an entry whose target code has moved on fails loudly
instead of testing nothing. The runner then runs `pytest -x -q` on the entry's
test files with PYTHONPATH at the copy; the mutant is killed when pytest exits
nonzero. Before any mutant, the same test files must pass on an unchanged copy.

    python3 tests/mutants.py

prints one line per mutant, then killed/total, and exits 1 if a mutant survives
or no longer applies. The file has no test_ prefix, so a plain pytest run does
not collect it; the whole catalogue takes a few minutes.
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

CLI = ("tests/test_cli.py",)
SCAN = ("tests/test_tnn.py", "tests/test_cli.py")
FACES = ("tests/test_polyvec.py", "tests/test_exports.py", "tests/test_cli.py")
VERIFY_ROW = "path_weight_closed_form(args.n, i, j) for j in args.cols]"

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
)


def _pytest(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


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
                verdict = "killed" if _pytest(path.parents[1], m.tests) != 0 else "SURVIVED"
            killed += verdict == "killed"
            print(f"{n:2} {verdict}: {m.file}: {m.old.strip()!r} -> {m.new.strip()!r} [{m.found}]", flush=True)
    print(f"{killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
