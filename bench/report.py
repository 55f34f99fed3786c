"""Print benchmark result files written by bench/run.py.

    python3 bench/report.py show FILE...      every metric by name and unit, per file
    python3 bench/report.py summary FILE...   median and quartiles per workload and metric

`show` exits 1 if any file records a failed op. `summary` groups files by
workload and tracing state, so paired runs of two commits can be compared
from their two sets of files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

META = ["workload", "seed", "trace", "tiny", "git_revision", "python", "nproc",
        "passes", "traced_passes", "ops_per_pass", "attempted", "failed"]


def load(paths):
    return [(p, json.loads(Path(p).read_text(encoding="utf-8"))) for p in paths]


def show(records) -> int:
    failed = 0
    for path, r in records:
        print(path)
        for key in META:
            print(f"  {key}: {r[key]}")
        for key, value in r["details"].items():
            print(f"  {key}: {value}")
        width = max(map(len, r["metrics"]))
        for name, m in r["metrics"].items():
            print(f"  {name:<{width}}  {m['value']:>16.6g}  {m['unit']}")
        for f in r["failures"]:
            print(f"  FAILED op {f['op']} ({f['kind']}): {f['error']}")
        failed += r["failed"]
    return 1 if failed else 0


def summary(records) -> int:
    groups = defaultdict(list)
    for _, r in records:
        groups[(r["workload"], r["trace"])].append(r)
    for (workload, trace), rs in sorted(groups.items()):
        print(f"{workload} (trace {trace}, {len(rs)} runs, seeds {sorted(r['seed'] for r in rs)})")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}  unit")
        for name, m in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f}  {m['unit']}")
        print(f"  failed ops: {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("show", "summary"))
    p.add_argument("files", nargs="+")
    args = p.parse_args()
    records = load(args.files)
    return show(records) if args.mode == "show" else summary(records)


if __name__ == "__main__":
    sys.exit(main())
