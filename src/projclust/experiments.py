"""Desk-scale experiment harness emitting CSV rows.

Each experiment is a pure function of its parameters and a master seed:
every cell (parameter combination x repetition) gets its own random
streams, derived from the master seed and the cell index, so reruns are
byte-identical.  Each row carries the master seed and repetition index,
plus the matching theoretical-bound column so downstream plots need no
recomputation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from . import bounds as bnd
from .clusterer import (NO_BOUNDARY_ERROR, ClusterConfig, classify_values,
                        clustering_error, scan_directions)
from .datagen import (RANK_SPEC_STREAM, make_rank_spec, make_spherical_spec,
                      sample_dataset)
from .errors import DomainError
from .learner1d import rule_error
from .mathkit import RngStream, q_function, q_inverse
from .projection import projected_mixture

_DATA_STREAM_BASE = 1_000_000
_SEED_STREAM_BASE = 2_000_000
_GAMMA_CHUNK = 5_000
HARNESS_LEARNER = "mom"

# Scans below consume the full budget themselves, so the config target is
# inert; any valid value works.
_FULL_SCAN_TARGET = 0.25


def _scanned_cells(seed: int, params_list, repeats: int, spec_of, n: int,
                   budget: int, learner: str, target_error: float = _FULL_SCAN_TARGET,
                   shape: str = "gaussian"):
    """Yield ``(params, rep, spec, data, cfg)`` for every parameter
    combination x repetition in cell-index order: cell i samples n points of
    ``spec_of(params)`` from stream ``_DATA_STREAM_BASE + i`` and scans them
    with the seed derived from stream ``_SEED_STREAM_BASE + i``."""
    combos = ((params, rep) for params in params_list for rep in range(repeats))
    for cell, (params, rep) in enumerate(combos):
        spec = spec_of(params)
        data = sample_dataset(spec, n, RngStream(seed, _DATA_STREAM_BASE + cell),
                              shape)
        cfg = ClusterConfig(
            target_error=target_error, budget=budget, learner=learner,
            seed=RngStream(seed, _SEED_STREAM_BASE + cell).derive_seed(),
        )
        yield params, rep, spec, data, cfg


def _realized_error(scan, labels) -> float:
    """Clustering error of the scanned boundary on the sampled points."""
    b = scan.boundary
    if b is None:
        return NO_BOUNDARY_ERROR
    predicted = classify_values(scan.values, b.thresholds, b.orientation)
    return clustering_error(predicted, labels)


def _population_error(spec, scan) -> float:
    """Exact error of a ``"pass"`` scan's boundary, which it always has,
    under the generating mixture.

    The scan projects onto unit directions, matching the normalisation of
    :func:`projected_mixture`, so the thresholds apply directly to the
    exact projected component parameters.
    """
    b = scan.boundary
    err = rule_error(projected_mixture(spec, scan.direction), b.thresholds,
                     b.orientation)
    return min(err, 1.0 - err)


def _running_errors(data, cfg):
    """``(m, best_true, true_at_best_estimate)`` for each scanned direction
    m: the least realized error over directions 1..m, and the realized
    error of the earliest of them with the least estimated error."""
    rows = []
    best_true = best_est = math.inf
    for scan in scan_directions(data, cfg):
        true_err = _realized_error(scan, data.labels)
        best_true = min(best_true, true_err)
        if scan.estimated_error < best_est:
            best_est, true_at_best_est = scan.estimated_error, true_err
        rows.append((scan.index, best_true, true_at_best_est))
    return rows


def _count_until(data, cfg, spec) -> tuple[int, bool]:
    """Directions scanned until one passes the scan's verdict and its true
    (population) error is also below the target."""
    for scan in scan_directions(data, cfg):
        if (
            scan.verdict == "pass"
            and _population_error(spec, scan) < cfg.target_error
        ):
            return scan.index, True
    return cfg.budget, False


def write_csv(path: str, fieldnames, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# gamma-cdf: empirical distribution of the projected separation
# ---------------------------------------------------------------------------

GAMMA_CDF_FIELDS = (
    "seed", "rep", "p", "c", "directions",
    "gamma", "cdf_empirical", "prob_exceed_empirical", "prob_exceed_bound",
)


def gamma_cdf(p: int = 1000, c: float = 1.0, directions: int = 100_000,
              seed: int = 0, grid_points: int = 120) -> list[dict]:
    """Empirical CDF of the 1-D separation under random directions.

    Directions are simulated exactly (the separation of a spherical pair
    along a direction A is c*sqrt(p)*|A_1|/||A||), so no dataset is
    needed.  The bound column is the spherical direction-probability
    lower bound on P(separation >= gamma) at its best tau per row.
    """
    gammas = sample_gamma_values(p, c, directions, seed)
    hi = float(np.quantile(gammas, 0.999))
    grid = np.linspace(0.0, max(hi, 1.5 * c), grid_points)
    sorted_g = np.sort(gammas)
    rows = []
    for g in grid:
        cdf = float(np.searchsorted(sorted_g, g, side="right")) / directions
        bound_val = 1.0 if g == 0.0 else bnd.spherical_direction_prob(g, c, p).value
        rows.append({
            "seed": seed, "rep": 0, "p": p, "c": c, "directions": directions,
            "gamma": g, "cdf_empirical": cdf,
            "prob_exceed_empirical": 1.0 - cdf,
            "prob_exceed_bound": bound_val,
        })
    return rows


def sample_gamma_values(p: int, c: float, directions: int, seed: int,
                        stream_base: int = 0) -> np.ndarray:
    """Projected separations of a spherical c-separated pair over many
    random directions, computed in chunks with per-chunk streams."""
    if not (p >= 1 and directions >= 1):
        raise DomainError("p and directions must be >= 1")
    if not 0.0 <= c < math.inf:
        raise DomainError(f"c must be nonnegative and finite, got {c}")
    out = np.empty(directions)
    done = 0
    chunk_index = 0
    scale = c * math.sqrt(p)
    while done < directions:
        todo = min(_GAMMA_CHUNK, directions - done)
        gen = RngStream(seed, stream_base + chunk_index).generator()
        a = gen.standard_normal((todo, p))
        out[done: done + todo] = scale * np.abs(a[:, 0]) / np.linalg.norm(a, axis=1)
        done += todo
        chunk_index += 1
    return out


# ---------------------------------------------------------------------------
# acc-vs-sep: best true error at a fixed projection budget
# ---------------------------------------------------------------------------

ACC_VS_SEP_FIELDS = (
    "seed", "rep", "p", "c", "n", "budget",
    "min_true_error", "true_error_at_best_estimate",
    "bound_q_1d", "bound_q_hd",
)


def acc_vs_sep(p_list=(3, 100), c_list=(0.5, 1.0, 1.5, 2.0), n: int = 10_000,
               budget: int = 50, repeats: int = 10, seed: int = 0,
               learner: str = HARNESS_LEARNER, shape: str = "gaussian") -> list[dict]:
    """Minimum true clustering error over a fixed number of directions,
    next to the 1-D bound Q(c) and the high-dimensional bound
    Q(c*sqrt(p)/2).

    ``bound_q_hd`` is the upper bound of :func:`bounds.hd_bayes_error_bound`
    on the optimal error, not a floor: for these equal-weight spherical
    specs the optimal error is exactly Q(c*sqrt(p)), which is smaller.
    """
    rows = []
    pairs = [(p, c) for p in p_list for c in c_list]
    for (p, c), rep, _, data, cfg in _scanned_cells(
            seed, pairs, repeats, lambda pc: make_spherical_spec(*pc), n, budget,
            learner, shape=shape):
        _, min_true, true_at_best_est = _running_errors(data, cfg)[-1]
        rows.append({
            "seed": seed, "rep": rep, "p": p, "c": c, "n": n, "budget": budget,
            "min_true_error": min_true,
            "true_error_at_best_estimate": true_at_best_est,
            "bound_q_1d": q_function(c),
            "bound_q_hd": bnd.hd_bayes_error_bound(c, p).value,
        })
    return rows


# ---------------------------------------------------------------------------
# proj-vs-sep: directions needed to hit a prescribed error
# ---------------------------------------------------------------------------

PROJ_VS_SEP_FIELDS = (
    "seed", "rep", "p", "c", "n", "target_error",
    "projections", "achieved", "bound_projections",
)


def proj_vs_sep(p: int = 100, c_list=(0.6, 0.8, 1.0, 1.5), n: int = 10_000,
                target_error: float = 0.2, repeats: int = 30, seed: int = 0,
                max_budget: int = 500, learner: str = HARNESS_LEARNER) -> list[dict]:
    """Directions scanned until both the true and the estimated error of
    some projection drop below the target, next to the finite-p inverse
    probability bound."""
    gamma = q_inverse(target_error)
    bound_cache = {
        c: bnd.expected_projections_spherical(gamma, c, p).value for c in c_list
    }
    rows = []
    for c, rep, spec, data, cfg in _scanned_cells(
            seed, c_list, repeats, lambda c: make_spherical_spec(p, c), n,
            max_budget, learner, target_error):
        count, achieved = _count_until(data, cfg, spec)
        rows.append({
            "seed": seed, "rep": rep, "p": p, "c": c, "n": n,
            "target_error": target_error,
            "projections": count, "achieved": int(achieved),
            "bound_projections": bound_cache[c],
        })
    return rows


# ---------------------------------------------------------------------------
# err-vs-proj: error as the budget grows
# ---------------------------------------------------------------------------

ERR_VS_PROJ_FIELDS = (
    "seed", "rep", "p", "c", "n", "m",
    "best_true_error", "true_error_at_best_estimate",
    "bound_q_1d", "bound_q_hd",
)


def err_vs_proj(p: int = 100, c: float = 2.0, n: int = 10_000, budget: int = 50,
                repeats: int = 10, seed: int = 0,
                learner: str = HARNESS_LEARNER) -> list[dict]:
    """Prefix-minimum true error after m = 1..budget directions, plus the
    true error of the best-estimate direction seen so far.

    ``bound_q_hd`` is the Q(c*sqrt(p)/2) of
    :func:`bounds.hd_bayes_error_bound`; it bounds the optimal error from
    above and is not a floor: for this equal-weight spherical spec the
    optimal error is exactly Q(c*sqrt(p)).
    """
    bound_q_hd = bnd.hd_bayes_error_bound(c, p).value
    rows = []
    for _, rep, _, data, cfg in _scanned_cells(
            seed, (c,), repeats, lambda c: make_spherical_spec(p, c), n, budget,
            learner):
        for index, best_true, true_at_best_est in _running_errors(data, cfg):
            rows.append({
                "seed": seed, "rep": rep, "p": p, "c": c, "n": n, "m": index,
                "best_true_error": best_true,
                "true_error_at_best_estimate": true_at_best_est,
                "bound_q_1d": q_function(c),
                "bound_q_hd": bound_q_hd,
            })
    return rows


# ---------------------------------------------------------------------------
# rank-acc / rank-proj: rank-controlled covariances
# ---------------------------------------------------------------------------

RANK_ACC_FIELDS = (
    "seed", "rep", "p", "c", "zeta", "r", "n", "budget", "min_true_error",
    "bound_q_1d",
)


def rank_acc(p: int = 200, c: float = 0.5, zeta_list=(0.035, 0.1, 0.335),
             n: int = 5000, budget: int = 50, repeats: int = 10, seed: int = 0,
             learner: str = HARNESS_LEARNER) -> list[dict]:
    """Best true error at a fixed budget as the covariance rank varies."""
    cells = [(zeta, *make_rank_spec(p, c, zeta, RngStream(seed, RANK_SPEC_STREAM)))
             for zeta in zeta_list]
    rows = []
    for (zeta, _, rank), rep, _, data, cfg in _scanned_cells(
            seed, cells, repeats, lambda cell: cell[1], n, budget, learner):
        _, min_true, _ = _running_errors(data, cfg)[-1]
        rows.append({
            "seed": seed, "rep": rep, "p": p, "c": c, "zeta": zeta, "r": rank,
            "n": n, "budget": budget,
            "min_true_error": min_true,
            "bound_q_1d": q_function(c),
        })
    return rows


RANK_PROJ_FIELDS = (
    "seed", "rep", "p", "c", "zeta", "r", "n", "target_error",
    "projections", "achieved", "bound_projections",
)


def rank_proj(p: int = 200, c: float = 0.5, zeta_list=(0.035, 0.1, 0.335),
              n: int = 5000, target_error: float = 0.04, repeats: int = 20,
              seed: int = 0, max_budget: int = 2000,
              learner: str = HARNESS_LEARNER) -> list[dict]:
    """Directions needed for a prescribed error as the rank varies, next
    to the rank-mode inverse probability bound at
    (``bounds.RANK_TAU1``, ``bounds.RANK_TAU2``).
    An infinite bound means the concentration terms swallow the main term
    at this scale."""
    gamma = q_inverse(target_error)
    cells = []
    for zeta in zeta_list:
        spec, rank = make_rank_spec(p, c, zeta, RngStream(seed, RANK_SPEC_STREAM))
        bound = bnd.expected_projections_nonspherical(
            spec, gamma, mode="rank", tau1=bnd.RANK_TAU1, tau2=bnd.RANK_TAU2
        )
        cells.append((zeta, spec, rank, bound.value))
    rows = []
    for (zeta, _, rank, bound_value), rep, spec, data, cfg in _scanned_cells(
            seed, cells, repeats, lambda cell: cell[1], n, max_budget, learner,
            target_error):
        count, achieved = _count_until(data, cfg, spec)
        rows.append({
            "seed": seed, "rep": rep, "p": p, "c": c, "zeta": zeta, "r": rank,
            "n": n, "target_error": target_error,
            "projections": count, "achieved": int(achieved),
            "bound_projections": bound_value,
        })
    return rows


EXPERIMENTS = {
    "gamma-cdf": (gamma_cdf, GAMMA_CDF_FIELDS),
    "acc-vs-sep": (acc_vs_sep, ACC_VS_SEP_FIELDS),
    "proj-vs-sep": (proj_vs_sep, PROJ_VS_SEP_FIELDS),
    "err-vs-proj": (err_vs_proj, ERR_VS_PROJ_FIELDS),
    "rank-acc": (rank_acc, RANK_ACC_FIELDS),
    "rank-proj": (rank_proj, RANK_PROJ_FIELDS),
}
