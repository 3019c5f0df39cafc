"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at run
time.  Criterion 4 brackets the best true error over 50 directions between
the Bayes error Q(c*sqrt(p)) of means 2c*sqrt(p) apart at unit variance and
the error Q(c) of a typical direction, whose E[gamma^2] = c^2.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from projclust.bounds import kgmm_failure_bound, spherical_direction_prob
from projclust.datagen import SHAPES
from projclust.experiments import (
    acc_vs_sep,
    proj_vs_sep,
    rank_proj,
    sample_gamma_values,
)
from projclust.learner1d import bayes_error, bayes_thresholds, fit_mom
from projclust.mathkit import RngStream, q_function
from projclust.model import Mixture1D, MixtureSpec
from projclust.projection import separability_1d

SEED = 0


def report(name: str, ok: bool, detail: str, started: float, limit_s: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s) :: {detail}")
    assert elapsed < limit_s, f"{name}: runtime {elapsed:.1f}s over {limit_s}s limit"
    assert ok, f"{name}: {detail}"


def test_criterion_1_mean_square_projected_separation():
    started = time.perf_counter()
    gammas = sample_gamma_values(p=1000, c=1.0, directions=100_000, seed=SEED)
    mean_sq = float(np.mean(gammas**2))
    report(
        "criterion 1: mean squared 1-D separation equals c^2",
        0.98 <= mean_sq <= 1.02,
        f"mean gamma^2 = {mean_sq:.4f}, required [0.98, 1.02]",
        started, 60.0,
    )


def test_criterion_2_direction_probability_lower_bound():
    started = time.perf_counter()
    ratios = (0.25, 0.5, 1.0, 1.5, 2.0)
    n_dirs = 100_000
    failures = []
    details = []
    for p in (100, 1000):
        gammas = sample_gamma_values(p=p, c=1.0, directions=n_dirs,
                                     seed=SEED, stream_base=10_000 * p)
        for ratio in ratios:
            emp = float(np.mean(gammas >= ratio))
            rep = spherical_direction_prob(ratio, 1.0, p)
            se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / n_dirs)
            ok = rep.value <= emp + 3.0 * se
            details.append(f"p={p} g/c={ratio}: bound={rep.value:.4f} emp={emp:.4f}")
            if not ok:
                failures.append(details[-1])
    report(
        "criterion 2: finite-p direction-probability bound below empirical",
        not failures,
        "; ".join(failures) if failures else f"10 cells ok, e.g. {details[0]}",
        started, 120.0,
    )


def test_criterion_3_projections_to_gamma_worked_example():
    started = time.perf_counter()
    p, gamma, trials = 10_000, 1.49, 500
    counts = np.empty(trials)
    scale = math.sqrt(p)
    for trial in range(trials):
        gen = RngStream(SEED, 20_000 + trial).generator()
        count = 0
        found = False
        while not found:
            block = gen.standard_normal((8, p))
            g = scale * np.abs(block[:, 0]) / np.linalg.norm(block, axis=1)
            hits = np.nonzero(g >= gamma)[0]
            if hits.size:
                count += int(hits[0]) + 1
                found = True
            else:
                count += 8
    # safety: cap loop is implicit; separation prob ~0.136 so this ends fast
        counts[trial] = count
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(trials)
    asymptotic = 1.0 / (2.0 * q_function(gamma))
    ok = mean <= 9.24 and abs(mean - asymptotic) <= 3.0 * se
    report(
        "criterion 3: mean projections to gamma=1.49 at p=1e4",
        ok,
        f"mean={mean:.3f} (<= 9.24), asymptotic={asymptotic:.3f}, 3se={3*se:.3f}",
        started, 120.0,
    )


def test_criterion_4_fixed_budget_error_bracketing():
    started = time.perf_counter()
    # Floor = Bayes error Q(c*sqrt(p)): unit variance, equal weights, gap 2c*sqrt(p).
    envelopes = {
        (p, c): (q_function(c * math.sqrt(p)) - 0.005, q_function(c) + 0.02)
        for p in (3, 100) for c in (0.5, 1.0, 1.5, 2.0)
    }
    empty = [
        f"p={p} c={c}: [{floor:.4f}, {ceiling:.4f}]"
        for (p, c), (floor, ceiling) in envelopes.items() if floor >= ceiling
    ]
    assert not empty, "criterion 4: empty error bracket " + "; ".join(empty)
    rows = acc_vs_sep(
        p_list=(3, 100), c_list=(0.5, 1.0, 1.5, 2.0), n=10_000, budget=50,
        repeats=10, seed=SEED,
    )
    failures = []
    for (p, c), (floor, ceiling) in envelopes.items():
        cell = [r for r in rows if r["p"] == p and r["c"] == c]
        vals = [r["min_true_error"] for r in cell]
        if not all(floor <= v <= ceiling for v in vals):
            failures.append(
                f"p={p} c={c}: errors [{min(vals):.4f}, {max(vals):.4f}] "
                f"outside [{floor:.4f}, {ceiling:.4f}]"
            )
    report(
        "criterion 4: fixed-budget true error bracketed by Q(c sqrt(p)) and Q(c)",
        not failures,
        "; ".join(failures) if failures else "all 8 cells bracketed",
        started, 300.0,
    )


def test_criterion_5_projections_until_prescribed_error():
    started = time.perf_counter()
    c_list = (0.6, 0.8, 1.0, 1.5)
    rows = proj_vs_sep(
        p=100, c_list=c_list, n=10_000, target_error=0.2, repeats=30, seed=SEED,
    )
    failures = []
    details = []
    for c in c_list:
        cell = [r for r in rows if r["c"] == c]
        mean = float(np.mean([r["projections"] for r in cell]))
        bound = cell[0]["bound_projections"]
        details.append(f"c={c}: mean={mean:.2f} bound={bound:.2f}")
        if mean > bound:
            failures.append(details[-1])
    report(
        "criterion 5: mean projections to 20% error below inverse bound",
        not failures,
        "; ".join(failures) if failures else "; ".join(details),
        started, 300.0,
    )


def test_criterion_6_rank_scan():
    started = time.perf_counter()
    zetas = (0.035, 0.1, 0.335)   # ranks 21, 60, 200 at p=200
    rows = rank_proj(
        p=200, c=0.5, zeta_list=zetas, n=5000, target_error=0.04,
        repeats=20, seed=SEED, max_budget=2000, tau1=0.2, tau2=0.5,
    )
    means, bounds, ranks = [], [], []
    for z in zetas:
        cell = [r for r in rows if r["zeta"] == z]
        means.append(float(np.mean([r["projections"] for r in cell])))
        bounds.append(cell[0]["bound_projections"])
        ranks.append(cell[0]["r"])
    decreasing = means[0] <= means[1] <= means[2]
    below = all(m <= b for m, b in zip(means, bounds))
    detail = "; ".join(
        f"r={r}: mean={m:.1f} bound={b if math.isfinite(b) else 'inf'}"
        for r, m, b in zip(ranks, means, bounds)
    )
    report(
        "criterion 6: projections to 4% error decrease with rank, below rank bound",
        decreasing and below,
        detail,
        started, 300.0,
    )


def test_criterion_7_three_component_pairwise_failure():
    started = time.perf_counter()
    p, gamma_min, n_dirs = 1000, 0.1, 100_000
    side = 2.0 * math.sqrt(p)   # pairwise c = 1 with sigma = 1
    means = np.zeros((3, p))
    means[1, 0] = side
    means[2, 0] = 0.5 * side
    means[2, 1] = side * math.sqrt(3.0) / 2.0
    spec = MixtureSpec(means, np.ones((3, p)), [1 / 3, 1 / 3, 1 / 3])
    pairs = [(0, 1), (0, 2), (1, 2)]
    diffs = np.stack([spec.means[i] - spec.means[j] for i, j in pairs])

    fails = 0
    done, chunk = 0, 0
    while done < n_dirs:
        todo = min(5000, n_dirs - done)
        gen = RngStream(SEED, 30_000 + chunk).generator()
        a = gen.standard_normal((todo, p))
        norms = np.linalg.norm(a, axis=1)
        gammas = np.abs(a @ diffs.T) / (2.0 * norms[:, None])
        fails += int(np.sum(np.any(gammas < gamma_min, axis=1)))
        done += todo
        chunk += 1
    emp = fails / n_dirs
    bound = kgmm_failure_bound(gamma_min, 1.0, 3, p).value
    se = math.sqrt(emp * (1.0 - emp) / n_dirs)
    report(
        "criterion 7: empirical pairwise under-separation within k-component bound",
        emp <= bound + 3.0 * se,
        f"empirical={emp:.4f}, bound={bound:.4f}",
        started, 60.0,
    )


def test_criterion_8_one_dimensional_learning_suite():
    started = time.perf_counter()
    problems = []

    # (a) analytic lower bounds on the optimal error
    for w in (0.05, 0.1, 0.2, 0.3, 0.5):
        for g in (0.25, 0.5, 1.0, 2.0):
            mix = Mixture1D(0.0, 2.0 * g, 1.0, 1.0, w)
            e_opt = bayes_error(mix, bayes_thresholds(mix))
            bound = w * q_function((-1.0 / g + g) if w <= 0.1 else g)
            if e_opt < bound - 1e-15:
                problems.append(f"(a) w={w} g={g}")

    # (b) discard rule at gamma = 1/10
    hits = 0
    trials_b = 200
    for trial in range(trials_b):
        gen = RngStream(SEED, 40_000 + trial).generator()
        low = gen.random(10_000) < 0.5
        x = np.where(low, 0.0, 0.2) + gen.standard_normal(10_000)
        if separability_1d(fit_mom(x).fitted) < 0.5:
            hits += 1
    if hits < 0.95 * trials_b:
        problems.append(f"(b) only {hits}/{trials_b} fits below 1/2")

    # (c) moment-fit accuracy at gamma = 1
    good = 0
    trials_c = 100
    for trial in range(trials_c):
        gen = RngStream(SEED, 50_000 + trial).generator()
        low = gen.random(10_000) < 0.5
        x = np.where(low, -1.0, 1.0) + gen.standard_normal(10_000)
        f = fit_mom(x).fitted
        if (
            max(abs(f.mu1 + 1.0), abs(f.mu2 - 1.0)) <= 0.1
            and max(abs(f.sigma1**2 - 1.0), abs(f.sigma2**2 - 1.0)) <= 0.2
            and abs(f.w - 0.5) <= 0.05
        ):
            good += 1
    if good < 0.95 * trials_c:
        problems.append(f"(c) only {good}/{trials_c} accurate fits")

    report(
        "criterion 8: 1-D learning suite (optimal-error bounds, discard, accuracy)",
        not problems,
        "; ".join(problems) if problems else
        f"(a) 20 grid cells ok; (b) {hits}/200; (c) {good}/100",
        started, 180.0,
    )


def test_criterion_9_distribution_free_projection():
    started = time.perf_counter()
    common = dict(p_list=(1000,), c_list=(1.0,), n=10_000, budget=50,
                  repeats=10, seed=SEED)
    means = {shape: float(np.mean([r["min_true_error"]
                                   for r in acc_vs_sep(**common, shape=shape)]))
             for shape in SHAPES}
    diff = max(abs(means[shape] - means["gaussian"]) for shape in SHAPES)
    report(
        "criterion 9: every coordinate shape clusters like the Gaussian one",
        diff <= 0.02,
        ", ".join(f"{shape}={m:.4f}" for shape, m in means.items())
        + f", max |diff|={diff:.4f} (<= 0.02)",
        started, 120.0,
    )


def test_criterion_10_runtime_scaling(child_env):
    started = time.perf_counter()
    env = child_env(**dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))
    probe = os.path.join(os.path.dirname(__file__), "perf_probe.py")
    # One child times the base 100,000 x 1000, 2n and 2p shapes in
    # interleaved rounds, so drift in host speed between processes cannot
    # skew the ratios.
    proc = subprocess.run(
        [sys.executable, probe],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    seconds = json.loads(proc.stdout)
    base, double_n, double_p = seconds["base"], seconds["2n"], seconds["2p"]
    r_n = double_n / base
    r_p = double_p / base
    ok = 1.7 <= r_n <= 2.3 and 1.7 <= r_p <= 2.3
    report(
        "criterion 10: scan wall time linear in n and in p",
        ok,
        f"base={base:.2f}s, 2n ratio={r_n:.2f}, 2p ratio={r_p:.2f} "
        f"(required within [1.7, 2.3])",
        started, 180.0,
    )
