"""Replay the golden CLI corpus in-process: each recorded call prints the same bytes and
exit code through polytnn.cli.main as `python -m polytnn` did when it was recorded, from
the repository root, which its file arguments are relative to."""

import json

import pytest

from golden import CORPUS, ROOT, stored
from polytnn import cli

ROWS = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _id(row) -> str:
    return " ".join(a if len(a) <= 20 else f"<{len(a)} chars>" for a in row["argv"])


@pytest.mark.parametrize("row", ROWS, ids=map(_id, ROWS))
def test_replay_prints_the_recorded_bytes(row, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        code = cli.main(row["argv"])
    except SystemExit as exc:  # argparse's usage errors leave this way
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, stored(out), stored(err)) == (row["exit"], row["stdout"], row["stderr"])
