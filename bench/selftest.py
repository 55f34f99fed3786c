"""Self-test of the benchmark harness, at tiny input sizes (about 20 s).

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs an untraced and a traced run
and asserts that every declared metric is reported with its unit and that no
op failed. It then gives one op a deliberately wrong expected output and
asserts that the failure is counted in fail_ratio and the run exits 1, and
it checks that the benchmark refuses to run where the polytnn sources are
missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), Path(next(x for x in lines if x.startswith("result: "))[8:])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            done = run("--workload", w["name"], "--trace", str(trace), "--tiny")
            assert done.returncode == 0, (w["name"], trace, done.stderr)
            res, _ = result_of(done)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == declared[trace], (w["name"], trace, set(got) ^ set(declared[trace]))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            print(f"ok   {w['name']} trace {trace}: {len(got)} metrics, {res['attempted']} ops")

    done = run("--workload", "face-vectors", "--trace", "0", "--tiny", "--inject-fault")
    res, path = result_of(done)
    record = json.loads(path.read_text(encoding="utf-8"))
    assert done.returncode == 1 and not res["correct"] and res["failed"] == 1, (done.returncode, res)
    assert record["details"]["fail_ratio"] == 1 / res["attempted"], record["details"]
    print(f"ok   injected fault counted: fail_ratio {record['details']['fail_ratio']:.4f}")

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("--workload", "tnn-scan", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok   refuses to run without the polytnn sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
