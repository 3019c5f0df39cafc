"""Projection-scan benchmark: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide-mom --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own child process (``workloads.py``) with BLAS
and ``PROJCLUST_THREADS`` pinned to one thread.  The child imports the
package from ``src/`` of the checkout.  This script prints a report,
one metric per line with unit and sample count, followed by machine
facts, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the child also runs
the first 100 ops under the span tracer and the metrics are the
per-layer ones.  ``--workload all`` runs every workload in turn and
prefixes each metric with the workload's name.

Exit status is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("wide-mom", "small-em", "harness-rank")
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PROJCLUST_THREADS")
CHILD_TIMEOUT_S = 165.0      # one workload run must end within 180 s
CHILD_DEADLINE_S = 140.0     # the child starts no op after this
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name -> (unit, key in the child's result)
END_TO_END = {
    "setup_s": ("s", "setup_s"),
    "op_p50_ms": ("ms", "op_p50_ms"),
    "op_p90_ms": ("ms", "op_p90_ms"),
    "directions_per_s": ("1/s", "directions_per_s"),
    "peak_rss_mb": ("MiB", "peak_rss_mb"),
}


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def child_env() -> dict:
    env = dict(os.environ)
    for cap in THREAD_CAPS:
        env[cap] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--deadline-s", str(CHILD_DEADLINE_S), "--workdir", str(WORKDIR)]
    spawned = time.monotonic()
    with subprocess.Popen(cmd + ["--spawn-monotonic", repr(spawned)],
                          stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"{workload}: child timed out") from exc
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def llc_bytes() -> int | None:
    """Size of the highest-level cache the kernel reports for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best = -1, None
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, size = _read(f"{base}/{entry}/level"), _read(f"{base}/{entry}/size")
        if level is None or size is None or not size[:-1].isdigit():
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        if int(level) > best_level:
            best_level, best = int(level), int(size[:-1]) * scale
    return best


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_facts(results: list[dict]) -> list[str]:
    llc = llc_bytes()
    lines = [
        f"machine nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"llc={'unknown' if llc is None else f'{llc / (1 << 20):.0f} MiB'}",
    ]
    v = results[0]["versions"]
    lines.append(
        f"machine python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
        f"blas={v['blas']} {v['blas_version']}"
    )
    env = child_env()
    lines.append("machine thread caps: " + " ".join(f"{k}={env[k]}" for k in THREAD_CAPS))
    for r in results:
        ratio = "" if llc is None else f" ({r['dataset_bytes'] / llc:.2f}x LLC)"
        lines.append(f"machine {r['workload']} dataset={r['dataset_bytes'] / 1e6:.1f} MB{ratio}")
    return lines


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value, spec: str) -> str:
    return "missing" if value is None else format(value, spec)


def report_lines(r: dict, trace: int) -> list[str]:
    w = r["workload"]
    ops, qn, reps = r["ops"], r["quality_ops"], r["setup_reps_s"]
    setup = f"import {r['import_s']:.3f} s"
    if reps:
        setup += (f" + median of {len(reps)} setups "
                  f"{', '.join(f'{x:.3f}' for x in reps)} s")
    lines = [
        f"{w} setup_s = {r['setup_s']:.4f} s ({setup})",
        f"{w} op_p50_ms = {_fmt(r['op_p50_ms'], '.3f')} ms (n={ops} ops)",
        f"{w} op_p90_ms = {_fmt(r['op_p90_ms'], '.3f')} ms (n={ops} ops)",
        f"{w} directions_per_s = {_fmt(r['directions_per_s'], '.2f')} 1/s "
        f"({r['directions']} directions in {r['op_time_s']:.2f} s of ops)",
        f"{w} peak_rss_mb = {r['peak_rss_mb']:.1f} MiB (n=1 process)",
        f"{w} failed_share = {r['failed_share']:.4f} ({r['failed']} of {r['attempted']} ops)",
        f"{w} achieved_share = {r['achieved_share']:.4f} (n={qn} first ops)",
    ]
    if "realized_error_mean" in r:
        lines += [
            f"{w} realized_error_mean = {r['realized_error_mean']:.5f} (n={qn} first ops)",
            f"{w} false_success_share = {r['false_success_share']:.4f} "
            f"({r['false_success_count']} of {r['achieved_count']} achieved ops)",
        ]
    for problem in r["problems"]:
        lines.append(f"{w} FAILED CHECK: {problem}")
    if trace:
        lines.append(
            f"{w} tracing overhead: op_p50 {r['traced_p50_ms']:.3f} ms traced - "
            f"{r['untraced_p50_ms']:.3f} ms untraced = {r['tracing_overhead_ms']:+.3f} ms "
            f"(first {r['traced_ops']} ops; {r['spans']} spans in "
            f"{os.path.relpath(r['spans_file'], ROOT)})"
        )
        for name, (value, unit) in {**r["layers"], **r["layers_report_only"]}.items():
            lines.append(f"{w} {name} = {value:.6g} {unit}")
        lines.append(f"{w} self time by span, largest first:")
        for name, calls, self_s in r["self_time_ranking"]:
            lines.append(f"{w}   {name:44s} {self_s:10.4f} s {calls:9d} calls")
    return lines


def result_metrics(r: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in r["layers"].items()}
    return {name: {"value": r[key], "unit": unit}
            for name, (unit, key) in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "projclust" / "__init__.py").is_file():
        print(f"run.py: no projclust package under {SRC}", file=sys.stderr)
        return 1

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    WORKDIR.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_child(name, args.seed, args.seconds, args.trace))
    except (RuntimeError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for r in results:
        print("\n".join(report_lines(r, args.trace)))
        for name, metric in result_metrics(r, args.trace).items():
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            if not valid_metric_name(key) or metric["value"] is None:
                print(f"run.py: {r['workload']}: metric {name} is missing or "
                      "badly named", file=sys.stderr)
                return 1
            metrics[key] = metric
    print("\n".join(machine_facts(results)))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
