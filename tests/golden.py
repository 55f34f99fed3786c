"""Golden CLI corpus: the exit code, stdout and stderr of fixed `polytnn` calls.

    python3 tests/golden.py --record

runs each argv in CALLS as `python -m polytnn` on this checkout's src/, from the
repository root, and writes tests/golden/cli.jsonl, one JSON object a line:
{"argv", "exit", "stdout", "stderr"}.
A stream of up to 2 KB (UTF-8) is kept as its text, so a failing replay shows a diff;
a longer one as {"sha256", "bytes"}. tests/test_golden.py replays every line in-process
through polytnn.cli.main. A change that alters output on purpose re-records the file
and names each changed line; a new call is added to CALLS and recorded the same way.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli.jsonl"
LIMIT = 2048  # bytes kept in full

BIG = "1" + "0" * 2200  # 10^2200: its graph has a 4,400-digit vertex count

CALLS = (
    # every tnn refusal: the scan budget, its order-1 cut, max_order and jobs
    ("tnn", "--d", "19"),
    ("tnn", "--d", "2000"),
    ("tnn", "--d", "20000"),
    ("tnn", "--n", "30"),
    ("tnn", "--d", "5", "--max-order", "9"),
    ("tnn", "--d", "5", "--jobs", "0"),
    # the graph budget on both sides of its edge and past the digit cap, and the family budget
    ("lgv", "--n", "315"),
    ("lgv", "--n", "316"),
    ("lgv", "--n", "100000"),
    ("lgv", "--n", BIG),
    ("lgv", "--n", BIG, "--verify", "--rows", "0", "--cols", "0"),
    ("lgv", "--n", "10", "--verify", "--rows", "0,1,2", "--cols", "5,6,9"),
    ("lgv", "--n", "11", "--verify", "--rows", "0", "--cols", "1"),
    ("lgv", "--n", "9", "--verify", "--rows", "0,1,2,3", "--cols", "0,1,2,3"),
    # the oracle's work cap, refused and answered
    ("msequence", "--seq", "1,7,5,1,2", "--oracle"),
    ("msequence", "--seq", "1,20000", "--oracle"),
    # every subcommand in each --format it accepts
    ("matrix", "--d", "4"),
    ("matrix", "--d", "4", "--format", "csv"),
    ("matrix", "--d", "4", "--format", "json"),
    ("matrix", "--d", "4", "--augmented"),
    ("matrix", "--n", "5", "--format", "json"),
    ("tnn", "--d", "5"),
    ("tnn", "--d", "5", "--format", "json"),
    ("f2g", "--f", "6,12,8", "--d", "3"),
    ("f2g", "--f", "6,12,8", "--d", "3", "--format", "csv"),
    ("f2g", "--f", "6,12,8", "--d", "3", "--format", "json"),
    ("g2f", "--g", "1,3", "--d", "3"),
    ("g2f", "--g", "1,3", "--d", "3", "--format", "csv"),
    ("g2f", "--g", "1,3", "--d", "3", "--format", "json"),
    ("euler", "--f", "6,12,8", "--d", "3"),
    ("euler", "--f", "6,12,8", "--d", "3", "--format", "json"),
    ("feasible", "--f", "6,12,8", "--d", "3"),
    ("feasible", "--f", "6,12,8", "--d", "3", "--format", "json"),
    ("feasible", "--f", "4,6,5", "--d", "3"),
    ("msequence", "--seq", "1,2,4"),
    ("msequence", "--seq", "1,2,4", "--format", "json"),
    ("lgv", "--n", "5"),
    ("lgv", "--n", "5", "--format", "json"),
    ("lgv", "--n", "5", "--format", "dot"),
    # rational input: p/q cells in a CSV and "p/q" strings in a .json file, with a p/q
    # min_minor and witness (paths from the repository root, where both runs start)
    ("tnn", "--file", "tests/golden/rational.csv"),
    ("tnn", "--file", "tests/golden/rational.csv", "--format", "json"),
    ("tnn", "--file", "tests/golden/rational.json"),
    ("tnn", "--file", "tests/golden/rational.json", "--format", "json"),
)


def stored(text: str):
    """text as the corpus keeps it: in full up to LIMIT bytes, else its sha256 and length."""
    data = text.encode("utf-8")
    return text if len(data) <= LIMIT else {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    lines = []
    for argv in CALLS:
        run = subprocess.run([sys.executable, "-m", "polytnn", *argv], cwd=ROOT, env=env, capture_output=True, timeout=60)
        row = {"argv": list(argv), "exit": run.returncode}
        row.update(stdout=stored(run.stdout.decode("utf-8")), stderr=stored(run.stderr.decode("utf-8")))
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} calls written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 tests/golden.py --record")
    record()
