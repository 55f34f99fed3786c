"""The polytnn benchmark: run one workload for about --seconds and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh process (bench/passrun.py) on inputs generated
from --seed, so every pass starts with cold caches as a fresh polytnn
command does. Passes repeat until the next would end past --seconds (at
least three untraced passes); every op's latency is the median over the
passes of its time scaled to a reference CPU speed by a calibration loop
timed around it.
With --trace 0 all passes are untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics (unscaled) are reported, with the tracing overhead. Every
op's output is checked; the last stdout line is the JSON result, and the
exit code is 1 if any op failed. A copy of the result, with the run's
metadata, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

# untraced passes in every run, however long they take, so every op time and
# the set-up time are medians of at least three samples
MIN_PASSES = 3

# time of passrun.calibrate() on the reference CPU. End-to-end times are
# reported as seconds on a CPU that runs Python at that speed: a 2-vCPU VM
# shared with other tenants was seen to switch, for seconds to minutes at a
# time, between speeds about 1.5x apart, which moves unscaled times between
# runs and between sets of runs. 1 ms lies between that VM's two speeds.
CAL_REF_S = 0.001

# a run must exit within 180 s; no pass starts that would likely end past this
DEADLINE_S = 165

# the unit of work each workload's throughput counts
WORK_UNIT = {"tnn-scan": "minors", "tnn-parallel": "minors", "lgv-certify": "certs", "face-vectors": "checks"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _layer_metrics() -> dict:
    timed = {
        "cli.main": ("self_s",),
        "tnn.scan": ("self_s",),
        "tnn.determinant": ("self_s", "per_s"),
        "tnn.submatrix": (),
        "tnn.as_matrix": (),
        "transfer.build": (),
        "transfer.parse": ("bytes",),
        "lgv.graph": (),
        "lgv.families": ("count", "per_s"),
        "lgv.path_sum": (),
        "polyvec.feasible": (),
        "polyvec.g_to_f": (),
        "polyvec.f_to_g": (),
        "macaulay.boundary": (),
        "macaulay.is_m_sequence": (),
        "macaulay.oracle": (),
    }
    units = {"calls": "count", "s": "s", "self_s": "s", "per_s": "1/s", "count": "count", "bytes": "B"}
    out = {}
    for span, extra in timed.items():
        for suffix in ("calls", "s", *extra):
            out[f"{span}.{suffix}"] = units[suffix]
    out.update({"tnn.tasks": "count", "tnn.workers": "count", "tnn.parallel_efficiency": "1"})
    out["exactnum.binomial.calls"] = "count"
    for caller in ("transfer", "polyvec", "macaulay", "lgv"):
        out[f"exactnum.binomial.calls.{caller}"] = "count"
    out.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return out


PER_LAYER = _layer_metrics()

def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest sample; the maximum below 11 samples."""
    s = sorted(times)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # git is not installed
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_pass(args, index: int, traced: bool, workdir: Path, spans: Path | None, deadline: float) -> dict:
    """Run passrun.py in its own process group and return its result."""
    out = workdir / f"pass{index}.json"
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--out", str(out)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault and index == 0:
        cmd.append("--inject-fault")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, process_group=0)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"pass {index} did not finish before the {DEADLINE_S} s deadline")
    finally:
        try:  # pool workers left behind by a crashed pass
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}: {err.strip()}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(passes: list) -> tuple[dict, dict]:
    """End-to-end metrics and details from untraced passes.

    Every pass runs the same ops in the same order. Each op's time is scaled
    to the reference speed by CAL_REF_S over the calibration loop's time
    around it (see passrun.calibrate), and an op's latency is the median of
    its scaled times over the passes. The median, the tail, wall_s and
    work_per_s are taken over these per-op latencies; setup_s, scaled by the
    calibration right after it, is a median over the passes.
    """
    ops = passes[0]["ops"]
    timed = [i for i, op in enumerate(ops) if op[3]]
    latency = {i: statistics.median(p["ops"][i][1] * CAL_REF_S / p["ops"][i][4] for p in passes)
               for i in timed}
    busy = sum(latency[i] for i in timed if ops[i][2])
    tail_s, pct = tail(list(latency.values()))
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * CAL_REF_S / p["setup_cal_s"] for p in passes),
        "wall_s": sum(latency.values()),
        "op_p50_ms": statistics.median(latency.values()) * 1000,
        "op_tail_ms": tail_s * 1000,
        "work_per_s": sum(ops[i][2] for i in timed) / busy,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "op_samples": len(latency),
        "op_tail_percentile": pct,
        "unscaled_setup_s": statistics.median(p["setup_s"] for p in passes),
        "unscaled_wall_s": statistics.median(p["wall_s"] for p in passes),
        "calibration_ms": statistics.median(op[4] for p in passes for op in p["ops"]) * 1000,
    }
    return metrics, details


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer metrics: medians over traced passes, with the overhead of
    tracing measured against the untraced passes of the same run."""
    values = {name: [] for name in PER_LAYER}
    for p in traced:
        got = dict.fromkeys(PER_LAYER, 0.0)
        for span, (calls, total, own) in p["stats"].items():
            got.update({f"{span}.calls": calls, f"{span}.s": total, f"{span}.self_s": own})
        for key, count in p["counts"].items():
            got[key] = count
        got["exactnum.binomial.calls"] = sum(
            v for k, v in p["counts"].items() if k.startswith("exactnum.binomial.calls."))
        if got["tnn.determinant.s"]:
            got["tnn.determinant.per_s"] = got["tnn.determinant.calls"] / got["tnn.determinant.s"]
        if got["lgv.families.s"]:
            got["lgv.families.per_s"] = got["lgv.families.count"] / got["lgv.families.s"]
        got["trace.spans"] = p["spans"]
        for name in PER_LAYER:
            values[name].append(got[name])
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["tnn.parallel_efficiency"] = statistics.median(p["parallel_efficiency"] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def render(metrics: dict, units: dict) -> str:
    width = max(map(len, metrics))
    return "\n".join(f"{name:<{width}}  {value:>16.6g}  {units[name]}" for name, value in metrics.items())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="give the first op a wrong expected exit code, to show checks are live")
    args = p.parse_args()
    if not (ROOT / "src" / "polytnn" / "__init__.py").is_file():
        print(f"polytnn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = WORK / stem
    workdir.mkdir()
    spans = RESULTS / f"{stem}.spans.csv.gz" if args.trace else None
    # cycles of passes run until the next would end past --seconds; a traced
    # run alternates untraced and traced passes and keeps the first traced
    # pass's spans
    cycle = (False, True) if args.trace else (False,)
    passes = []
    try:
        for cycles in itertools.count(1):
            began = time.monotonic()
            for traced in cycle:
                first_traced = traced and not any(t for t, _ in passes)
                passes.append((traced, run_pass(args, len(passes), traced, workdir,
                                                spans if first_traced else None, deadline)))
            now = time.monotonic()
            step = now - began
            if cycles >= (1 if args.trace else MIN_PASSES) and now + step > start + args.seconds:
                break
            if now + 1.5 * step > deadline:
                break
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for traced, r in passes if not traced]
    traced = [r for traced, r in passes if traced]
    attempted = sum(len(r["ops"]) for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]
    e2e, details = end_to_end(plain)
    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    details.update({
        "fail_ratio": len(failures) / attempted,
        f"{WORK_UNIT[args.workload]}_per_s": e2e["work_per_s"],
    })
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "ops_per_pass": len(passes[0][1]["ops"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "details": details,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(render(metrics, units))
    print(f"result: {RESULTS / (stem + '.json')}")
    for f in failures[:5]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['error']}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
