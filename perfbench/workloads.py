"""Workload child process of the projection-scan benchmark.

``run.py`` starts this file once per workload, in a fresh interpreter
with BLAS pinned to one thread, and reads the JSON result it prints as
its last stdout line.  Each workload is one client in a closed loop: an
op starts only when the previous one has returned.  Every input (the
dataset stream and the per-op scan seeds) is derived from ``--seed``;
the program sees only the generated inputs.

Workloads, and why each was chosen:

* ``wide-mom``: spherical c=1, n=50,000, p=1000 (400 MB of float64,
  larger than the reported last-level cache), moment learner, default
  budget 3*ceil(ln p) = 21.  Four ops in five use target 0.25, which a
  direction passes about half the time, so the median op scans two
  directions; every fifth op uses target 0.002 and about nine in ten of
  those scan the whole budget, so p90 is a full-budget scan.  The scan's
  one matrix-vector product per direction dominates op time; setup
  carries data generation and file I/O.  Both percentiles sit on steps
  of the direction-count distribution, which keeps them steady across
  seeds.
* ``small-em``: spherical c=1, n=10,000, p=100 (8 MB each, in cache),
  default ``mom+em`` learner and budget 15.  The target (1e-12) is out
  of reach, so every op scans the whole budget and EM dominates op time.
  An EM fit's cost depends heavily on the projection (about one fit in
  seven runs to the 200-iteration cap), so an op sums 15 fits and the
  ops cycle over 8 datasets: both keep the percentiles steady across
  seeds.
* ``harness-rank``: one ``experiments.rank_proj`` cell per op, cycling
  over the three default zetas, every other setting at its default but
  ``max_budget=100`` (default 2000).  Scans on small in-cache data, with
  data generation inside each op.  At zeta=0.335 the directions needed
  have median ~200 and a tail past 1000; the cap ends three in four of
  those cells on a 100-direction plateau, where p90 sits, instead of in
  a geometric tail whose quantiles swing by a third between seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy

from projclust import bounds, clusterer, datagen, experiments, learner1d, mathkit
from projclust.learner1d import EM_MAX_ITER
from spantrace import Tracer

MIN_OPS = 100          # p90 needs at least 10 samples beyond it
QUALITY_OPS = 100      # quality metrics and the traced loop use this prefix
SETUP_REPS = 3         # setup is repeated and its median reported
MIB = float(1 << 20)
UNIT_NORM_TOL = 1e-9


class BenchError(RuntimeError):
    """The benchmark could not produce its metrics."""


def op_seed(seed: int, workload: str, i: int) -> int:
    """63-bit scan seed of op ``i``; depends only on (seed, workload, i)."""
    state = np.random.SeedSequence([seed, WORKLOAD_IDS[workload], i])
    return int(state.generate_state(1, np.uint64)[0] >> np.uint64(1))


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None when fewer than 10 samples lie
    beyond it (too few to place it)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, the op, its output check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterWorkload:
    """``cluster_gmm`` ops on spherical datasets built in setup.

    Op i scans dataset ``i % datasets`` with target ``targets[i % len]``.
    """

    name: str
    n: int
    p: int
    c: float
    learner: str
    targets: tuple
    datasets: int = 1

    @property
    def budget(self) -> int:
        return clusterer.projections_budget_default(
            self.p, spherical_known=False, e=min(self.targets))

    @property
    def dataset_bytes(self) -> int:
        return 8 * self.n * self.p * self.datasets

    def make_dataset(self, seed: int, j: int, path: str):
        """Sample dataset j of the run, write it and read it back."""
        spec = datagen.make_spherical_spec(self.p, self.c)
        data = datagen.sample_dataset(spec, self.n, mathkit.RngStream(seed, j))
        datagen.write_dataset(data, path)
        del data
        return datagen.read_dataset(path)

    def setup(self, seed: int, workdir: str):
        """Build the datasets SETUP_REPS times; returns the last build and
        the duration of each repetition."""
        data, reps = [], []
        for _ in range(SETUP_REPS):
            data = []                    # free the previous build first
            t0 = time.perf_counter()
            for j in range(self.datasets):
                path = os.path.join(workdir, f"{self.name}-{j}")
                data.append(self.make_dataset(seed, j, path))
            reps.append(time.perf_counter() - t0)
        return data, reps

    def config(self, seed: int, i: int):
        return clusterer.ClusterConfig(
            target_error=self.targets[i % len(self.targets)], budget=self.budget,
            learner=self.learner, seed=op_seed(seed, self.name, i))

    def run(self, data, seed: int, i: int):
        return clusterer.cluster_gmm(data[i % len(data)], self.config(seed, i))

    def check(self, seed: int, i: int, outcome) -> list[str]:
        return check_outcome(outcome, self.config(seed, i), self.p)

    @staticmethod
    def key(outcome):
        return outcome_key(outcome)

    @staticmethod
    def directions(outcome) -> int:
        return outcome.projections_used

    def quality(self, data, seed: int, kept) -> dict:
        """Realized error of the first QUALITY_OPS outcomes, outside any
        timed region; deterministic per seed."""
        errors, achieved, false_success = [], 0, 0
        for i, outcome in enumerate(kept):
            if outcome is None:
                continue
            ds = data[i % len(data)]
            err = clusterer.clustering_error(
                clusterer.classify(ds, outcome.boundary), ds.labels)
            errors.append(err)
            if outcome.achieved:
                achieved += 1
                false_success += err > self.config(seed, i).target_error
        return {
            "achieved_share": achieved / len(errors),
            "realized_error_mean": float(np.mean(errors)),
            "false_success_share": false_success / achieved if achieved else 0.0,
            "false_success_count": false_success,
            "achieved_count": achieved,
            "quality_ops": len(errors),
        }


@dataclass(frozen=True)
class HarnessWorkload:
    """One ``experiments.rank_proj`` cell per op; zeta cycles over ``zetas``."""

    name: str
    zetas: tuple
    max_budget: int
    # rank_proj defaults, restated for the metrics
    p: int = 200
    n: int = 5000

    @property
    def dataset_bytes(self) -> int:
        return 8 * self.n * self.p

    def setup(self, seed: int, workdir: str):
        return None, []                  # every op samples its own data

    def args(self, seed: int, i: int) -> dict:
        return {"zeta_list": (self.zetas[i % len(self.zetas)],), "repeats": 1,
                "max_budget": self.max_budget, "seed": op_seed(seed, self.name, i)}

    def run(self, data, seed: int, i: int):
        return experiments.rank_proj(**self.args(seed, i))

    def check(self, seed: int, i: int, rows) -> list[str]:
        return check_harness_rows(rows, self)

    @staticmethod
    def key(rows):
        return tuple(tuple(sorted(row.items())) for row in rows)

    @staticmethod
    def directions(rows) -> int:
        return sum(int(row["projections"]) for row in rows)

    def quality(self, data, seed: int, kept) -> dict:
        rows = [row for r in kept if r is not None for row in r]
        return {"achieved_share": float(np.mean([row["achieved"] for row in rows])),
                "quality_ops": len(kept)}


WORKLOADS = {
    "wide-mom": ClusterWorkload(
        "wide-mom", n=50_000, p=1000, c=1.0, learner="mom",
        targets=(0.25, 0.25, 0.25, 0.25, 0.002)),
    "small-em": ClusterWorkload(
        "small-em", n=10_000, p=100, c=1.0, learner="mom+em",
        targets=(1e-12,), datasets=8),
    "harness-rank": HarnessWorkload(
        "harness-rank", zetas=(0.035, 0.1, 0.335), max_budget=100),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def check_outcome(outcome, cfg, p: int) -> list[str]:
    """Problems with one ``cluster_gmm`` outcome; empty when it is valid."""
    problems = []
    if not 1 <= outcome.projections_used <= cfg.budget:
        problems.append(f"projections_used {outcome.projections_used} "
                        f"outside [1, {cfg.budget}]")
    err = outcome.estimated_error
    if not (math.isfinite(err) and 0.0 <= err <= 0.5):
        problems.append(f"estimated_error {err} outside [0, 0.5]")
    if outcome.achieved != (err < cfg.target_error):
        problems.append(f"achieved={outcome.achieved} but estimated_error "
                        f"{err} vs target {cfg.target_error}")
    b = outcome.boundary
    direction = np.asarray(b.direction, dtype=float)
    if direction.shape != (p,) or not np.all(np.isfinite(direction)):
        problems.append("direction is not a finite vector of length p")
    elif abs(float(np.linalg.norm(direction)) - 1.0) > UNIT_NORM_TOL:
        problems.append("direction does not have unit norm")
    ts = np.asarray(b.thresholds, dtype=float)
    if ts.ndim != 1 or ts.size not in (1, 2) or not np.all(np.isfinite(ts)):
        problems.append("thresholds are not one or two finite numbers")
    elif np.any(np.diff(ts) < 0.0):
        problems.append("thresholds are not sorted")
    if b.orientation not in (0, 1):
        problems.append(f"orientation {b.orientation} is not 0 or 1")
    return problems


def check_harness_rows(rows, w: HarnessWorkload) -> list[str]:
    """Problems with the rows of one ``rank_proj`` cell."""
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    problems = []
    row = rows[0]
    for key, value in row.items():
        if key == "bound_projections":
            # rank_proj documents +inf as "bound swamped at this scale"
            ok = value == math.inf or (math.isfinite(value) and value > 0.0)
        else:
            ok = math.isfinite(value)
        if not ok:
            problems.append(f"field {key}={value} is not finite")
    used = row.get("projections", 0)
    if not 1 <= used <= w.max_budget:
        problems.append(f"projections {used} outside [1, {w.max_budget}]")
    if row.get("achieved") not in (0, 1):
        problems.append("achieved is not 0 or 1")
    elif not row["achieved"] and used != w.max_budget:
        problems.append("not achieved before the budget ran out")
    return problems


def outcome_key(outcome) -> tuple:
    """Every field of a scan outcome, bytes-exact, for determinism checks."""
    b = outcome.boundary
    return (
        outcome.projections_used, outcome.achieved, outcome.estimated_error,
        outcome.gamma_hat, outcome.c_hat, b.orientation,
        np.asarray(b.direction).tobytes(), np.asarray(b.thresholds).tobytes(),
    )


# ---------------------------------------------------------------------------
# Op loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    latencies: list            # seconds, successful ops only
    directions: int
    attempted: int
    failed: int
    problems: list
    kept: list                 # results of the first QUALITY_OPS ops


def run_loop(w, data, seed: int, seconds: float, deadline: float,
             count: int | None = None, tracer=None) -> LoopResult:
    """Closed loop: run ops 0, 1, 2, ... one after another.

    With ``count`` run exactly that many; otherwise run until ``seconds``
    have passed and at least MIN_OPS ops are done.  With a tracer, each
    op's spans carry the op's index.
    """
    res = LoopResult([], 0, 0, 0, [], [])
    begin = time.monotonic()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= MIN_OPS and time.monotonic() - begin >= seconds:
            break
        if time.monotonic() > deadline:
            raise BenchError(f"deadline reached after {i} ops")
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = w.run(data, seed, i)
        except Exception as exc:  # an op that raises is a failed op
            result, problems = None, [f"op {i} raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - t0
            problems = w.check(seed, i, result)
        res.attempted += 1
        if problems:
            res.failed += 1
            res.problems.extend(problems[:3])
        else:
            res.latencies.append(elapsed)
            res.directions += w.directions(result)
        if i < QUALITY_OPS:
            res.kept.append(result)
        i += 1
    return res


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def install_tracer(tracer) -> None:
    """Wrap every public function the scan, the harness and setup call."""
    for name in ("sample_direction", "separability_1d"):
        tracer.wrap(clusterer, name, "projection." + name)
    for name in ("fit_mixture", "bayes_thresholds", "bayes_error"):
        tracer.wrap(clusterer, name, "learner1d." + name)
    tracer.wrap(clusterer, "cluster_gmm", "clusterer.cluster_gmm")
    for module in (clusterer, experiments):
        tracer.wrap(module, "scan_directions", "clusterer.scan_directions",
                    generator=True)
    tracer.wrap(learner1d, "fit_mom", "learner1d.fit_mom")
    tracer.wrap(learner1d, "fit_em", "learner1d.fit_em",
                observe=lambda rep: rep.iterations)
    tracer.wrap(learner1d, "central_moments", "learner1d.central_moments")
    tracer.wrap(learner1d, "fit_mom_from_moments", "learner1d.fit_mom_from_moments",
                observe=lambda rep: rep.fitted.mu1 == rep.fitted.mu2)
    tracer.wrap(mathkit.RngStream, "generator", "mathkit.generator")
    tracer.wrap(experiments, "rank_proj", "experiments.rank_proj")
    tracer.wrap(experiments, "projected_mixture", "projection.projected_mixture")
    tracer.wrap(bounds, "expected_projections_nonspherical",
                "bounds.expected_projections_nonspherical")
    for module in (datagen, experiments):
        tracer.wrap(module, "sample_dataset", "datagen.sample_dataset",
                    track_memory=True)
    tracer.wrap(datagen, "write_dataset", "datagen.write_dataset")
    tracer.wrap(datagen, "read_dataset", "datagen.read_dataset", track_memory=True)


def layer_metrics(tracer, w, op_s: float, setup_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced run, as two dicts of
    name -> (value, unit): the metrics the JSON result carries, and the
    report-only times.

    ``op_s`` is the wall time of the traced ops and ``setup_s`` that of
    the traced setup; shares are taken of these.
    """
    t = tracer.totals()
    zero = {"calls": 0, "self_s": 0.0, "raised": 0}

    def get(name):
        return t.get(name, zero)

    def share(x, whole):
        return x / whole if whole > 0.0 else 0.0

    def peak_mb(name):
        peaks = tracer.observed.get(name + ":peak_bytes", [])
        return max(peaks) / MIB if peaks else 0.0

    fits = get("learner1d.fit_mixture")["calls"]
    drawn = get("projection.sample_direction")["calls"]
    scan_self = (get("clusterer.cluster_gmm")["self_s"]
                 + get("clusterer.scan_directions")["self_s"])
    em_iters = tracer.observed.get("learner1d.fit_em", [])
    single = tracer.observed.get("learner1d.fit_mom_from_moments", [])
    bayes_t = get("learner1d.bayes_thresholds")
    em_s = get("learner1d.fit_em")["self_s"]
    write_s = get("datagen.write_dataset")["self_s"]
    read_s = get("datagen.read_dataset")["self_s"]
    pushforward = get("projection.projected_mixture")
    bound = get("bounds.expected_projections_nonspherical")
    experiments_s = get("experiments.rank_proj")["self_s"]
    metrics = {
        "datagen.sample_s": (get("datagen.sample_dataset")["self_s"], "s"),
        "datagen.sample_calls": (get("datagen.sample_dataset")["calls"], "count"),
        "datagen.sample_peak_mb": (peak_mb("datagen.sample_dataset"), "MiB"),
        "datagen.read_peak_mb": (peak_mb("datagen.read_dataset"), "MiB"),
        "datagen.write_share": (share(write_s, setup_s), "share"),
        "datagen.read_share": (share(read_s, setup_s), "share"),
        "mathkit.generator_calls": (get("mathkit.generator")["calls"], "count"),
        "mathkit.generator_s": (get("mathkit.generator")["self_s"], "s"),
        "projection.direction_calls": (drawn, "count"),
        "projection.direction_s": (get("projection.sample_direction")["self_s"], "s"),
        "projection.pushforward_calls": (pushforward["calls"], "count"),
        "projection.pushforward_share": (share(pushforward["self_s"], op_s), "share"),
        "clusterer.scan_self_s": (scan_self, "s"),
        "clusterer.directions_fit": (fits, "count"),
        "clusterer.directions_drawn": (drawn, "count"),
        "clusterer.useful_share": (share(fits, drawn), "share"),
        "clusterer.projection_gbps_computed": (
            share(8.0 * w.n * w.p * fits, scan_self) / 1e9, "GB/s"),
        "learner1d.moments_s": (get("learner1d.central_moments")["self_s"], "s"),
        "learner1d.moments_calls_per_fit": (
            share(get("learner1d.central_moments")["calls"], fits), "count"),
        "learner1d.mom_s": (get("learner1d.fit_mom")["self_s"]
                            + get("learner1d.fit_mom_from_moments")["self_s"], "s"),
        "learner1d.em_share": (share(em_s, op_s), "share"),
        "learner1d.em_calls": (len(em_iters), "count"),
        "learner1d.em_iters_mean": (
            float(np.mean(em_iters)) if em_iters else 0.0, "count"),
        "learner1d.em_capped_share": (
            share(sum(it == EM_MAX_ITER for it in em_iters), len(em_iters)), "share"),
        "learner1d.single_gaussian_share": (share(sum(single), len(single)), "share"),
        "learner1d.bayes_s": (bayes_t["self_s"]
                              + get("learner1d.bayes_error")["self_s"], "s"),
        "learner1d.no_boundary_share": (
            share(bayes_t["raised"], bayes_t["calls"]), "share"),
        "bounds.calls": (bound["calls"], "count"),
        "bounds.share": (share(bound["self_s"], op_s), "share"),
        "experiments.self_share": (share(experiments_s, op_s), "share"),
    }
    # Times that are structurally zero on some workload go to the report
    # only; the JSON carries them as shares of traced time.
    report_only = {
        "datagen.write_s": (write_s, "s"),
        "datagen.read_s": (read_s, "s"),
        "projection.pushforward_s": (pushforward["self_s"], "s"),
        "learner1d.em_s": (em_s, "s"),
        "bounds.s": (bound["self_s"], "s"),
        "experiments.self_s": (experiments_s, "s"),
    }
    return metrics, report_only


def self_time_ranking(tracer) -> list:
    """(name, calls, self seconds) per span name, largest self time first;
    the two halves of the scan are merged into ``clusterer.scan_self``."""
    t = tracer.totals()
    rows = {}
    for name, row in t.items():
        key = "clusterer.scan_self" if name in (
            "clusterer.cluster_gmm", "clusterer.scan_directions") else name
        calls, self_s = rows.get(key, (0, 0.0))
        rows[key] = (calls + row["calls"], self_s + row["self_s"])
    return sorted(([k, c, s] for k, (c, s) in rows.items()), key=lambda r: -r[2])


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spawn_monotonic: float, deadline: float, datadir: str,
                 spans_path: str) -> dict:
    import_s = time.monotonic() - spawn_monotonic
    w = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if trace:
        install_tracer(tracer)
    try:
        data, reps = w.setup(seed, datadir)
    finally:
        if trace:
            tracer.uninstall()
    untraced = run_loop(w, data, seed, seconds, deadline)
    op_time = sum(untraced.latencies)
    out = {
        "workload": name,
        "import_s": import_s,
        "setup_reps_s": reps,
        "setup_s": import_s + (statistics.median(reps) if reps else 0.0),
        "dataset_bytes": w.dataset_bytes,
        "ops": len(untraced.latencies),
        "op_p50_ms": _ms(percentile(untraced.latencies, 0.5)),
        "op_p90_ms": _ms(percentile(untraced.latencies, 0.9)),
        "directions": untraced.directions,
        "op_time_s": op_time,
        "directions_per_s": untraced.directions / op_time if op_time else None,
    }
    attempted, failed, problems = untraced.attempted, untraced.failed, list(untraced.problems)

    if trace:
        install_tracer(tracer)
        try:
            traced = run_loop(w, data, seed, seconds, deadline,
                              count=QUALITY_OPS, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
        # Tracing must not change outcomes: compare op by op.
        for i, (a, b) in enumerate(zip(untraced.kept, traced.kept)):
            if a is not None and b is not None and w.key(a) != w.key(b):
                problems.append(f"op {i} differs between traced and untraced runs")
                failed += 1
        untraced_p50 = 1e3 * statistics.median(untraced.latencies[:QUALITY_OPS])
        traced_p50 = 1e3 * statistics.median(traced.latencies)
        layers, report_only = layer_metrics(
            tracer, w, op_s=sum(traced.latencies), setup_s=sum(reps))
        tracer.write(spans_path)
        out.update({
            "layers": layers,
            "layers_report_only": report_only,
            "self_time_ranking": self_time_ranking(tracer),
            "traced_ops": len(traced.latencies),
            "untraced_p50_ms": untraced_p50,
            "traced_p50_ms": traced_p50,
            "tracing_overhead_ms": traced_p50 - untraced_p50,
            "spans": len(tracer.spans),
            "spans_file": spans_path,
        })
    else:
        # Determinism: the first op, repeated in-process, must match.
        first = untraced.kept[0]
        if first is not None and w.key(w.run(data, seed, 0)) != w.key(first):
            problems.append("op 0 repeated in-process gave a different outcome")
            failed += 1

    out.update(w.quality(data, seed, untraced.kept))
    out.update({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "failed_share": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        "versions": library_versions(),
    })
    return out


def library_versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-monotonic", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned us")
    parser.add_argument("--deadline-s", type=float, required=True,
                        help="seconds after spawn by which ops must stop")
    parser.add_argument("--workdir", required=True,
                        help="directory for the dataset files and span dump")
    args = parser.parse_args(argv)
    spans_path = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    datadir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.spawn_monotonic, args.spawn_monotonic + args.deadline_s,
            datadir, spans_path)
    except BenchError as exc:
        print(f"workloads.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(datadir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
