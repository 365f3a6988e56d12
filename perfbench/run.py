"""qr2m benchmark: exact verdicts of ``qr2m verify`` and ``qr2m weight``, timed.

    python3 perfbench/run.py --workload family --seed 1 --seconds 40 --trace 0

Workloads are ``family``, ``nonfamily_grid`` and ``weight`` (see
workloads.py and README.md), or ``all`` for every one in turn.  Each pass
over a workload runs in a fresh interpreter (worker.py), one point after the
other: a closed loop with one client.  Passes repeat while another one fits
in ``--seconds``; every metric is a median over the run's passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of tracer.py.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Results and spans are also written under perfbench/_out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Every run must end within 180 s, even when a pass hangs.
HARD_LIMIT_S = 170
# Set-up is short and noisy, so it is measured in extra set-up-only passes.
SETUP_REPEATS = 9

END_TO_END = {
    "wall_s": "s",
    "point_s_p50": "s",
    "point_s_max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lincode.dual.self_s": "s",
    "lincode.dual.calls": "count",
    "lincode.canonical_form.self_s": "s",
    "lincode.canonical_form.calls": "count",
    "lincode.canonical_form.rows_in": "count",
    "lincode.canonical_form.rows_out": "count",
    "lincode.intersect.self_s": "s",
    "lincode.sum_codes.self_s": "s",
    "lincode.code_from_polynomial.self_s": "s",
    "lincode.contains_code.self_s": "s",
    "lincode.is_self_orthogonal.self_s": "s",
    "lincode.min_weight.self_s": "s",
    "lincode.min_weight.calls": "count",
    "qr.span_idempotents.self_s": "s",
    "qr.span_idempotents.calls": "count",
    "qr.span_idempotents.hit_ratio": "ratio",
    "qr.solve_idempotent_system.self_s": "s",
    "qr.product_identities_report.self_s": "s",
    "qr.build_family.self_s": "s",
    "qr.build_family.raised": "count",
    "qr.lifted_residue_code.hit_ratio": "ratio",
    "polyring.ring_mul.self_s": "s",
    "polyring.ring_mul.calls": "count",
    "polyring.ring_mul.terms": "count",
    "polyring.hensel_lift_factors.self_s": "s",
    "polyring.idempotent_from_generator.self_s": "s",
    "polyring.binary_qr_factors.hit_ratio": "ratio",
    "modring.self_s": "s",
    "modring.calls": "count",
    "modring.quad_partition.hit_ratio": "ratio",
    "padic.self_s": "s",
    "padic.calls": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "cli.self_s": "s",
    "lincode.self_s": "s",
    "qr.self_s": "s",
    "polyring.self_s": "s",
    "trace.total_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """One worker pass; its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"a {workload} pass printed no result:\n{proc.stderr[-2000:]}")


def _end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    per_point: dict[str, list[float]] = {}
    for p in passes:
        for point in p["points"]:
            per_point.setdefault(point["key"], []).append(point["seconds"])
    point_s = [statistics.median(v) for v in per_point.values()]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "point_s_p50": statistics.median(point_s),
        "point_s_max": max(point_s),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    # Untimed: compiles bytecode, which a user does not pay on every run.
    _spawn(workload, seed, deadline, "--setup-only")
    setups = [_spawn(workload, seed, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS)]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        t = time.perf_counter()
        if not trace:
            untraced.append(_spawn(workload, seed, deadline))
        else:
            # alternate which side runs first, so drift favours neither
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    traced.append(_spawn(workload, seed, deadline, "--trace-spans", str(spans)))
                else:
                    untraced.append(_spawn(workload, seed, deadline))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            break

    results = [pt for p in untraced + traced for pt in p["points"]]
    failures = [f"{pt['key']}: {pt['error']}" for pt in results if pt["error"]]
    if trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced) - 1)
        units = PER_LAYER
    else:
        metrics = _end_to_end(untraced, setups)
        units = END_TO_END
    return {
        "workload": workload,
        "points": len(workloads.points(workload)),
        "passes": len(untraced) + len(traced),
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:20],
        "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced],
                        "traced": [p["wall_s"] for p in traced]},
        "pass_point_s": [{pt["key"]: pt["seconds"] for pt in p["points"]} for p in untraced],
        "setup_s": setups,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_context(seed: int, seconds: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "points": {w: len(workloads.points(w)) for w in workloads.WORKLOADS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    try:
        for name in names:
            rows.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    context = run_context(args.seed, args.seconds)
    print("context " + json.dumps(context, sort_keys=True))
    for row in rows:
        print(f"{row['workload']}: {row['points']} points x {row['passes']} passes, "
              f"failed_ratio {row['failed'] / row['attempted']:g} "
              f"({row['failed']}/{row['attempted']})")
        for name, m in row["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        for failure in row["failures"]:
            print(f"  FAILED {failure}")
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"context": context, "rows": rows}, indent=2) + "\n",
                           encoding="utf-8")

    if len(rows) == 1:
        metrics = rows[0]["metrics"]
    else:
        metrics = {f"{row['workload']}.{name}": m
                   for row in rows for name, m in row["metrics"].items()}
    failed = sum(row["failed"] for row in rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
