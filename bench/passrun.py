"""One pass of one workload, in a fresh process.

    python3 bench/passrun.py --workload NAME --seed N --workdir DIR --out FILE
                             [--trace] [--spans FILE] [--tiny] [--inject-fault]

Set-up (importing polytnn, then generating the inputs) is timed first; then
every op runs in order and is timed, with a calibration loop timed between
ops every CAL_GAP_S; then, untimed, every output is checked. The pass writes
its op times and speed readings, check failures and counters as JSON to --out.
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import polytnn  # noqa: E402
import polytnn.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import expect  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# the calibration runs before the first op, before any op that starts at
# least this long after the previous calibration, and after the last op
CAL_GAP_S = 0.2

# fixed work for the calibration: exact determinants of a small integer
# matrix, pure Python with allocation like polytnn's own inner loops
CAL_MATRIX = [[(7 * i + 13 * j) % 17 + 1 for j in range(5)] for i in range(5)]


def calibrate() -> float:
    """How fast this CPU runs Python right now: the median of three timings
    of a fixed piece of harness work that never touches polytnn, so no change
    to the program can move it. An op's speed reading is the mean of the
    calibrations just before and just after it; run.py scales by it."""
    took = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(4):
            expect.cofactor_det(CAL_MATRIX)
        took.append(time.perf_counter() - start)
    return sorted(took)[1]


def execute(op, pt):
    """Run one op; return (output, exit code, stderr, exception message or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.argv is None:
                return op.call(pt), 0, "", None
            code = pt.cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception as exc:  # the pass goes on; the failure is reported
        return None, None, err.getvalue(), f"{type(exc).__name__}: {exc}"
    return out.getvalue(), code, err.getvalue(), None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject-fault", action="store_true")
    args = p.parse_args()
    if not Path(polytnn.__file__).resolve().is_relative_to(SRC):
        print(f"polytnn was imported from {polytnn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    t = time.perf_counter()
    workdir = Path(args.workdir)
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    setup_s = IMPORT_S + time.perf_counter() - t
    if args.inject_fault:
        ops[0].code += 1  # a deliberately wrong expected exit code for the first op

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(polytnn)
    results, times = [], []
    cals, last_cal = [], -CAL_GAP_S
    for i, op in enumerate(ops):
        if time.perf_counter() - last_cal >= CAL_GAP_S:
            cals.append((i, calibrate()))
            last_cal = time.perf_counter()
        start = time.perf_counter()
        if tracer:
            results.append(tracer.run_op(i, op.kind, lambda: execute(op, polytnn)))
        else:
            results.append(execute(op, polytnn))
        times.append(time.perf_counter() - start)
    cals.append((len(ops), calibrate()))
    speed = []
    for i in range(len(ops)):
        before = max(c for c in cals if c[0] <= i)
        after = min(c for c in cals if c[0] > i)
        speed.append((before[1] + after[1]) / 2)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    failures = []
    for i, (op, (output, code, stderr, error)) in enumerate(zip(ops, results)):
        if error is None and code != op.code:
            error = f"exit code {code}, expected {op.code}; stderr {stderr.strip()!r}"
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # a malformed output must count, not crash the pass
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and op.same_as is not None and output != results[op.same_as][0]:
            error = f"stdout differs from the serial stdout of op {op.same_as}"
        if error is not None:
            failures.append({"op": i, "kind": op.kind, "argv": op.argv, "error": error})

    serial = sum(t for op, t in zip(ops, times) if not op.timed)
    parallel = sum(t for op, t in zip(ops, times) if op.same_as is not None)
    jobs = workloads.parallel_jobs()
    result = {
        "setup_s": setup_s,
        "setup_cal_s": cals[0][1],
        "wall_s": sum(t for op, t in zip(ops, times) if op.timed),
        "ops": [[op.kind, t, op.work, op.timed, c] for op, t, c in zip(ops, times, speed)],
        "failures": failures,
        "peak_rss_mb": (self_rss + child_rss) / 1024,
        "parallel_efficiency": serial / (jobs * parallel) if parallel else 0.0,
        "jobs": jobs,
    }
    if tracer:
        result["stats"] = tracer.stats
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
