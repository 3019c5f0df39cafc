"""Scan algorithm: determinism, budget semantics, classification rules."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projclust import clusterer
from projclust.bounds import expected_projections_spherical
from projclust.clusterer import (
    B_MAX,
    NO_BOUNDARY_ERROR,
    W_MIN,
    ClusterConfig,
    _block_ranges,
    classify,
    classify_values,
    cluster_gmm,
    clustering_error,
    estimate_c_hat,
    projections_budget_default,
    scan_directions,
    score_direction,
)
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.errors import DimensionMismatchError, DomainError, NoBoundaryError
from projclust.learner1d import (bayes_error, bayes_orientation, bayes_thresholds,
                                 fit_mixture)
from projclust.mathkit import RngStream, q_inverse
from projclust.model import Boundary1D, Dataset, to_json
from projclust.projection import project_block, sample_direction


def small_dataset(p=30, c=2.0, n=3000, seed=5):
    spec = make_spherical_spec(p, c)
    return sample_dataset(spec, n, RngStream(seed, 0)), spec


def unit_direction(p, seed, index):
    direction = sample_direction(p, RngStream(seed, index).generator())
    return direction / np.linalg.norm(direction)


def reference_first_passer(data, cfg):
    """Lowest passing index from one matrix-vector product per direction."""
    for index in range(1, cfg.budget + 1):
        values = data.points @ unit_direction(data.p, cfg.seed, index)
        fit = fit_mixture(values, cfg.learner)
        try:
            thresholds = bayes_thresholds(fit.fitted)
        except NoBoundaryError:
            continue
        if bayes_error(fit.fitted, thresholds) < cfg.target_error:
            return index
    return None


THREAD_PROBE = """
import json
from projclust.clusterer import ClusterConfig, cluster_gmm
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.mathkit import RngStream
data = sample_dataset(make_spherical_spec(500, 0.8), 20_000, RngStream(1, 0))
out = cluster_gmm(data, ClusterConfig(target_error=0.1, budget=20, seed=1))
print(json.dumps({"used": out.projections_used, "achieved": out.achieved,
                  "thresholds": out.boundary.thresholds.tolist(),
                  "error": out.estimated_error}))
"""


class TestDeterminism:
    def test_rerun_identical(self):
        data, _ = small_dataset()
        cfg = ClusterConfig(target_error=0.05, budget=20, seed=12)
        a = to_json(cluster_gmm(data, cfg))
        b = to_json(cluster_gmm(data, cfg))
        assert a == b

    def test_block_rows_match_matrix_vector_products(self):
        # Budget 30 gives blocks 1..8, 9..24 and a cut third block 25..30;
        # every row, from block starts, middles and ends, must match its own
        # product to rounding on the scale |x_i| of each dot product.
        data, _ = small_dataset()
        cfg = ClusterConfig(target_error=1e-12, budget=30, seed=11)
        scans = list(scan_directions(data, cfg))
        assert [s.index for s in scans] == list(range(1, 31))
        row_norms = np.linalg.norm(data.points, axis=1)
        for scan in scans:
            np.testing.assert_allclose(
                scan.direction, unit_direction(data.p, cfg.seed, scan.index),
                rtol=1e-15,
            )
            assert scan.values.flags["C_CONTIGUOUS"]
            exact = data.points @ scan.direction
            assert np.all(np.abs(scan.values - exact) <= 1e-12 * row_norms)

    def test_same_outcome_at_one_and_two_blas_threads(self, child_env):
        # At this shape the block product's bits differ between 1 and 2
        # OpenBLAS threads; the winner (index 9, past the first block) and
        # its estimates must agree to rounding.
        outcomes = []
        for threads in ("1", "2"):
            env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                            MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE], capture_output=True,
                text=True, env=env, timeout=300, check=True,
            )
            outcomes.append(json.loads(proc.stdout))
        one, two = outcomes
        assert one["used"] == two["used"] == 9
        assert one["achieved"] is two["achieved"] is True
        np.testing.assert_allclose(two["thresholds"], one["thresholds"], rtol=1e-9)
        assert two["error"] == pytest.approx(one["error"], rel=1e-9)


class TestBlockPartition:
    SIZES = {
        1: [1],
        8: [8],
        9: [8, 1],
        21: [8, 13],
        100: [8, 16, 32, 44],
        300: [8, 16, 32, 64, 64, 64, 52],
    }

    @pytest.mark.parametrize("budget", sorted(SIZES))
    def test_sizes_double_to_the_cap(self, budget):
        blocks = list(_block_ranges(budget))
        assert [len(r) for r in blocks] == self.SIZES[budget]
        assert [i for r in blocks for i in r] == list(range(1, budget + 1))
        assert max(len(r) for r in blocks) <= B_MAX

    def test_prefix_of_larger_budget(self):
        # Apart from its cut last block, the partition for a budget is the
        # partition for any larger one: blocks depend on the index alone.
        large = list(_block_ranges(300))
        for budget in range(1, 300):
            small = list(_block_ranges(budget))
            assert small[:-1] == large[:len(small) - 1]
            last, outer = small[-1], large[len(small) - 1]
            assert last.start == outer.start and last.stop <= outer.stop

    def test_scan_projects_these_blocks(self, monkeypatch):
        rows = []
        kernel = clusterer.project_block

        def recording_kernel(data, directions):
            rows.append(directions.shape[0])
            return kernel(data, directions)

        monkeypatch.setattr(clusterer, "project_block", recording_kernel)
        data, _ = small_dataset(p=5, n=200)
        cfg = ClusterConfig(target_error=1e-12, budget=100, seed=3,
                            learner="mom")
        assert [s.index for s in scan_directions(data, cfg)] == list(range(1, 101))
        assert rows == self.SIZES[100]

    def test_directions_are_the_index_streams_bit_for_bit(self, monkeypatch):
        # One Philox re-keyed per index draws what a fresh RngStream(seed, i)
        # draws, at block starts and ends alike (blocks 1-8, 9-24, 25-56, 57-).
        drawn = []
        draw = clusterer.sample_direction

        def recording_draw(p, rng):
            drawn.append(draw(p, rng))
            return drawn[-1]

        monkeypatch.setattr(clusterer, "sample_direction", recording_draw)
        data, _ = small_dataset(p=7, n=100)
        cfg = ClusterConfig(target_error=1e-12, budget=60, seed=21,
                            learner="mom")
        scans = list(scan_directions(data, cfg))
        for i in (1, 8, 9, 24, 25, 57):
            want = sample_direction(data.p, RngStream(cfg.seed, i).generator())
            assert drawn[i - 1].tobytes() == want.tobytes()
            unit = want[np.newaxis] / np.linalg.norm(want[np.newaxis], axis=1,
                                                     keepdims=True)
            assert scans[i - 1].direction.tobytes() == unit[0].tobytes()


class TestMemoryContract:
    # numpy reports its buffers to tracemalloc.  At most two blocks are
    # alive at once (the last one fitted while the next one is computed),
    # and each scan holds its own row, so the best scan kept by
    # cluster_gmm does not pin an older block.  Without the B_MAX cap this
    # budget's last two blocks would hold 64 + 80 rows.
    N, P = 20_000, 100

    def test_scan_holds_at_most_two_capped_blocks(self):
        data, _ = small_dataset(p=self.P, c=0.5, n=self.N, seed=43)
        cfg = ClusterConfig(target_error=1e-12, budget=200, seed=4)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = cluster_gmm(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.projections_used == 200 and not out.achieved
        # two 64-row blocks plus a few n-float buffers for the fits
        assert (peak - start) / (8 * self.N) <= 2 * B_MAX + 8

    def test_kept_scans_and_outcomes_own_their_direction(self):
        # A view of a block row would pin the block's B x p directions.
        data, _ = small_dataset(p=self.P, n=2000, seed=43)
        cfg = ClusterConfig(target_error=0.05, budget=10, seed=4)
        kept = [s.direction for s in scan_directions(data, cfg)]
        kept.append(cluster_gmm(data, cfg).boundary.direction)
        assert all(d.base is None and d.shape == (self.P,) for d in kept)


class TestBudgetSemantics:
    def test_projections_within_budget(self):
        data, _ = small_dataset(c=0.3)
        cfg = ClusterConfig(target_error=0.01, budget=7, seed=13)
        out = cluster_gmm(data, cfg)
        assert out.projections_used <= 7

    def test_prefix_min_monotonicity(self):
        data, _ = small_dataset(c=1.0)
        errs = [
            s.estimated_error
            for s in scan_directions(
                data, ClusterConfig(target_error=0.001, budget=50, seed=14)
            )
        ]
        assert min(errs[:50]) <= min(errs[:10])

    def test_near_vacuous_target_succeeds_immediately(self):
        # First direction must not be degenerate (a projection that looks
        # single-Gaussian honestly reports 0.5 and cannot pass any target).
        data, _ = small_dataset(c=2.0, seed=6)
        cfg = ClusterConfig(target_error=0.4999, budget=50, seed=22)
        first = next(iter(scan_directions(data, cfg)))
        assert first.boundary is not None
        out = cluster_gmm(data, cfg)
        assert out.achieved and out.projections_used == 1

    def test_infeasible_target_returns_flagged_best(self):
        spec = make_spherical_spec(100, 0.1)
        data = sample_dataset(spec, 2000, RngStream(7, 0))
        cfg = ClusterConfig(target_error=0.01, budget=10, seed=16)
        out = cluster_gmm(data, cfg)
        assert not out.achieved
        assert out.projections_used == 10
        assert out.estimated_error >= 0.01

    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    @pytest.mark.parametrize("c, target, achieved", [
        (2.0, 0.05, True),
        (1.0, 0.001, False),    # every fit has a boundary, none meets the target
        (0.0, 0.05, False),     # the moment learners' fits admit no boundary
    ], ids=["achieved", "exhausted", "c0"])
    def test_achieved_iff_estimate_below_target(self, learner, c, target, achieved):
        # The benchmark's outcome check enforces the first assertion on
        # every op; an unachieved outcome describes the earliest direction
        # of least estimated error.
        data, _ = small_dataset(c=c)
        cfg = ClusterConfig(target_error=target, budget=10, seed=16, learner=learner)
        out = cluster_gmm(data, cfg)
        assert out.achieved is achieved
        assert out.achieved == (out.estimated_error < cfg.target_error)
        scans = list(scan_directions(data, cfg))[:out.projections_used]
        assert [s.verdict for s in scans] == [
            "pass" if s.estimated_error < target else "above-target" for s in scans]
        if c == 0.0 and learner != "em":
            assert all(s.boundary is None for s in scans)
        if not achieved:
            assert out.projections_used == cfg.budget
            least = min(s.estimated_error for s in scans)
            best = next(s for s in scans if s.estimated_error == least)
            assert out.estimated_error == least
            assert out.fitted == best.fit.fitted
            assert out.gamma_hat == best.gamma_hat

    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    @pytest.mark.parametrize("c", [2.0, 0.0])
    def test_each_scan_carries_its_bayes_rule(self, learner, c):
        # A direction's boundary is its fit's Bayes rule, or None exactly
        # when the fit has none; the outcome reports the best one's.
        data, _ = small_dataset(c=c)
        cfg = ClusterConfig(target_error=0.05, budget=10, seed=16, learner=learner)
        scans = list(scan_directions(data, cfg))
        for scan in scans:
            try:
                ts = bayes_thresholds(scan.fit.fitted)
            except NoBoundaryError:
                assert scan.boundary is None
                assert scan.estimated_error == NO_BOUNDARY_ERROR
                assert scan.verdict == "above-target"
                continue
            b = scan.boundary
            np.testing.assert_array_equal(b.thresholds, ts)
            assert b.orientation == bayes_orientation(scan.fit.fitted, ts)
            assert b.direction is scan.direction
        out = cluster_gmm(data, cfg)
        best = min(scans[:out.projections_used], key=lambda s: s.estimated_error)
        if best.boundary is None:
            # The median split on the best direction stands in.
            assert out.boundary.thresholds.tolist() == [np.median(best.values)]
            assert out.boundary.orientation == 1
        else:
            assert out.boundary.thresholds.tobytes() == best.boundary.thresholds.tobytes()
            assert out.boundary.orientation == best.boundary.orientation
        assert out.boundary.direction.tobytes() == best.direction.tobytes()

    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    def test_outcome_direction_is_the_scanned_direction(self, learner):
        # The scan's unit direction is not normalised a second time, so
        # the outcome reports the direction it scanned, bit for bit.
        data, _ = small_dataset(p=20)
        for seed in range(10):
            cfg = ClusterConfig(target_error=0.05, budget=10, seed=seed, learner=learner)
            scans = list(scan_directions(data, cfg))
            out = cluster_gmm(data, cfg)
            best = min(scans[:out.projections_used], key=lambda s: s.estimated_error)
            assert out.boundary.direction.tobytes() == best.direction.tobytes()
            assert all(s.boundary is None or s.boundary.direction is s.direction
                       for s in scans)

    def test_first_passing_index_wins(self):
        data, _ = small_dataset(c=2.0)
        cfg = ClusterConfig(target_error=0.05, budget=40, seed=17)
        out = cluster_gmm(data, cfg)
        assert out.achieved
        assert out.projections_used == reference_first_passer(data, cfg)

    @pytest.mark.parametrize("winner", [1, 8, 9, 24, 25])
    def test_lowest_passer_wins_across_block_edges(self, winner):
        # The clusters are split along directions `winner` and `winner + 1`
        # only, so both pass and every other direction sees little
        # separation.  Indices 8 and 24 end the first two blocks; 9 and 25
        # start the next ones.
        p, n, seed = 64, 4000, 23
        axis = unit_direction(p, seed, winner) + unit_direction(p, seed, winner + 1)
        axis /= np.linalg.norm(axis)
        gen = RngStream(seed, 0).generator()
        labels = gen.integers(0, 2, n)
        points = gen.standard_normal((n, p)) + np.outer(6.0 * (2 * labels - 1), axis)
        data = Dataset(points, labels=labels)
        cfg = ClusterConfig(target_error=0.01, budget=30, seed=seed)
        passers = [s.index for s in scan_directions(data, cfg)
                   if s.estimated_error < cfg.target_error]
        assert passers == [winner, winner + 1]
        out = cluster_gmm(data, cfg)
        assert out.achieved and out.projections_used == winner
        assert reference_first_passer(data, cfg) == winner
        np.testing.assert_allclose(
            out.boundary.direction, unit_direction(p, seed, winner), rtol=1e-12
        )

    def test_chat_uses_all_scanned_directions(self):
        data, _ = small_dataset(c=2.0)
        cfg = ClusterConfig(target_error=0.05, budget=40, seed=18)
        out = cluster_gmm(data, cfg)
        gammas = []
        for scan in scan_directions(data, cfg):
            gammas.append(scan.gamma_hat)
            if scan.index == out.projections_used:
                break
        assert out.c_hat == pytest.approx(
            float(np.sqrt(np.mean(np.square(gammas)))), rel=1e-12
        )


class TestScoreDirection:
    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    def test_scan_scores_each_block_row_with_score_direction(self, learner):
        # Budget 10 crosses the block edge after index 8; every field of
        # every scan (fit, boundary, error, verdict) matches byte for byte.
        data, _ = small_dataset()
        cfg = ClusterConfig(target_error=0.05, budget=10, seed=17, learner=learner)
        scans = list(scan_directions(data, cfg))
        assert [s.index for s in scans] == list(range(1, 11))
        expected = []
        for indices in _block_ranges(cfg.budget):
            dirs = np.stack([scans[i - 1].direction for i in indices])
            for index, direction, row in zip(indices, dirs, project_block(data, dirs)):
                expected.append(score_direction(index, direction, row.copy(), cfg))
        assert [to_json(s) for s in scans] == [to_json(s) for s in expected]

    def test_a_direction_the_stream_never_draws(self):
        # e1 carries the whole mean difference of a spherical pair, so
        # scoring it alone clusters, with e1 as the boundary's direction.
        data = sample_dataset(make_spherical_spec(20, 1.0), 2000, RngStream(3, 0))
        e1 = np.eye(data.p)[0]
        values = project_block(data, e1[np.newaxis])[0]
        scan = score_direction(0, e1, values, ClusterConfig(target_error=0.05, budget=1))
        assert scan.verdict == "pass" and scan.estimated_error < 0.05
        assert scan.boundary.direction.tobytes() == e1.tobytes()
        assert scan.direction is e1 and scan.values is values

    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    def test_light_component_is_rejected_and_keeps_its_boundary(self, learner):
        # One value at 1e6 among 499 standard normals becomes a component
        # of its own, with w about 0.002.
        values = np.random.default_rng(0).standard_normal(500)
        values[0] = 1e6
        scan = score_direction(0, np.array([1.0]), values,
                               ClusterConfig(0.05, 1, learner))
        assert min(scan.fit.fitted.w, 1.0 - scan.fit.fitted.w) < W_MIN
        assert scan.verdict == "rejected:w-min"
        assert scan.estimated_error == NO_BOUNDARY_ERROR
        assert scan.boundary is not None

    @given(p=st.integers(2, 8), c=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           n=st.integers(40, 300), data_seed=st.integers(0, 2**32 - 1),
           outlier=st.booleans(), learner=st.sampled_from(["mom", "mom+em", "em"]),
           target=st.sampled_from([0.05, 0.2]))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_verdicts_keep_the_gate(self, p, c, n, data_seed, outlier, learner,
                                    target):
        data = sample_dataset(make_spherical_spec(p, c), n, RngStream(data_seed, 0))
        if outlier:
            points = data.points.copy()
            points[0] = 1e8
            data = Dataset(points, data.labels)
        for scan in scan_directions(data, ClusterConfig(target, 6, learner, seed=1)):
            w = scan.fit.fitted.w
            if scan.verdict == "pass":
                assert scan.boundary is not None and min(w, 1.0 - w) >= W_MIN
                assert scan.estimated_error < target
            if scan.boundary is None or scan.verdict == "rejected:w-min":
                assert scan.estimated_error == NO_BOUNDARY_ERROR
            assert scan.verdict in ("pass", "above-target", "rejected:w-min")


class TestEndToEnd:
    def test_separated_case_fast_and_accurate(self):
        # c=2 at p=100: expect success within 10 projections in >= 90% of
        # 50 seeded runs and true error at most 0.05.
        spec = make_spherical_spec(100, 2.0)
        wins = 0
        for seed in range(50):
            data = sample_dataset(spec, 10_000, RngStream(1000 + seed, 0))
            cfg = ClusterConfig(target_error=0.05, budget=50, seed=seed)
            out = cluster_gmm(data, cfg)
            if out.achieved and out.projections_used <= 10:
                err = clustering_error(classify(data, out.boundary), data.labels)
                if err <= 0.05:
                    wins += 1
        assert wins >= 45

    def test_learners_all_work(self):
        data, _ = small_dataset(c=2.0, n=4000)
        for learner in ("mom", "em", "mom+em"):
            cfg = ClusterConfig(target_error=0.1, budget=30, seed=20, learner=learner)
            out = cluster_gmm(data, cfg)
            err = clustering_error(classify(data, out.boundary), data.labels)
            assert err <= 0.1

    def test_empty_dataset_rejected(self):
        with pytest.raises(Exception):
            data = Dataset(np.zeros((0, 3)))
            cfg = ClusterConfig(target_error=0.1, budget=5, seed=0)
            next(iter(scan_directions(data, cfg)))


def _achieved_means_target_met(data, cfg):
    out = cluster_gmm(data, cfg)
    if out.achieved:
        err = clustering_error(classify(data, out.boundary), data.labels)
        assert err <= cfg.target_error + 0.02


_NO_STRUCTURE_REASON = (
    "em false success on data with no structure (c=0): the quartile-start fit "
    "(w 0.0903, above W_MIN) reads its plug-in error as 0.0874, below the 0.1 "
    "target, while the clustering error is 0.476; ROADMAP item 2's fit gate "
    "is not in place yet")


class TestFalseSuccess:
    """ROADMAP item 2's repros: an achieved outcome must cluster within
    0.02 of its target."""

    @pytest.mark.parametrize("learner", ["mom", "mom+em", "em"])
    def test_one_outlier(self, learner):
        # Direction 1's fit gives the outlier alone w 0.0005 and an estimated
        # error of 0.0; W_MIN rejects it.
        base = sample_dataset(make_spherical_spec(20, 2.0), 2000, RngStream(3, 0))
        points = base.points.copy()
        points[0] = 1e8
        _achieved_means_target_met(Dataset(points, base.labels),
                                   ClusterConfig(0.05, 10, learner, seed=1))

    @pytest.mark.parametrize("learner", [
        "mom", "mom+em",
        pytest.param("em", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=_NO_STRUCTURE_REASON))])
    def test_no_structure(self, learner):
        data = sample_dataset(make_spherical_spec(5, 0.0), 500, RngStream(5, 0))
        _achieved_means_target_met(data, ClusterConfig(0.1, 10, learner, seed=3))


class TestClassify:
    def test_tie_goes_right(self):
        boundary = Boundary1D(np.array([1.0, 0.0]), np.array([0.5]), 1)
        data = Dataset(np.array([[0.5, 9.0], [0.49, 0.0], [0.51, 0.0]]))
        np.testing.assert_array_equal(classify(data, boundary), [1, 0, 1])

    def test_two_threshold_interval(self):
        boundary = Boundary1D(np.array([1.0]), np.array([-1.0, 1.0]), 0)
        data = Dataset(np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]]))
        np.testing.assert_array_equal(classify(data, boundary), [1, 0, 0, 1, 1])

    def test_orientation_flip(self):
        values = np.array([-1.0, 2.0])
        np.testing.assert_array_equal(
            classify_values(values, np.array([0.0]), 0), [1, 0]
        )

    def test_dimension_mismatch(self):
        boundary = Boundary1D(np.array([1.0, 0.0]), np.array([0.0]), 1)
        data = Dataset(np.zeros((1, 3)))
        with pytest.raises(DimensionMismatchError):
            classify(data, boundary)

    def test_fitted_component_lands_on_own_label(self):
        data, spec = small_dataset(c=2.0)
        cfg = ClusterConfig(target_error=0.05, budget=20, seed=21)
        out = cluster_gmm(data, cfg)
        predicted = classify(data, out.boundary)
        # points near each fitted centre get that component's side
        values = data.points @ out.boundary.direction
        near1 = np.abs(values - out.fitted.mu1) < 0.1 * abs(
            out.fitted.mu2 - out.fitted.mu1
        )
        if np.any(near1):
            assert np.all(predicted[near1] == predicted[near1][0])


class TestClusteringError:
    def test_exact_match(self):
        labels = np.array([0, 1, 1, 0])
        assert clustering_error(labels, labels) == 0.0

    def test_flipped_match(self):
        labels = np.array([0, 1, 1, 0])
        assert clustering_error(1 - labels, labels) == 0.0

    def test_random_labels_near_half(self):
        gen = RngStream(30, 0).generator()
        truth = gen.integers(0, 2, 10_000)
        predicted = gen.integers(0, 2, 10_000)
        assert clustering_error(predicted, truth) == pytest.approx(0.5, abs=0.02)

    def test_never_above_half(self):
        gen = RngStream(31, 0).generator()
        for _ in range(20):
            a = gen.integers(0, 2, 101)
            b = gen.integers(0, 2, 101)
            assert clustering_error(a, b) <= 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            clustering_error(np.zeros(3), np.zeros(4))


class TestEstimateCHat:
    def test_simple_values(self):
        assert estimate_c_hat(np.array([1.0, 1.0, 1.0])) == 1.0
        assert estimate_c_hat(np.array([0.0, 2.0])) == pytest.approx(math.sqrt(2.0))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            estimate_c_hat(np.array([]))

    def test_monte_carlo_recovers_c(self):
        p, c = 1000, 1.0
        gen = RngStream(32, 0).generator()
        dirs = gen.standard_normal((10_000, p))
        gammas = c * math.sqrt(p) * np.abs(dirs[:, 0]) / np.linalg.norm(dirs, axis=1)
        assert estimate_c_hat(gammas) == pytest.approx(c, abs=0.02)


class TestBudgetDefault:
    def test_unknown_shape(self):
        assert projections_budget_default(10_000, False, 0.1) == 30
        # 3 * ceil(ln p), at least 1: p = 1 gets one direction.
        budgets = [projections_budget_default(p, False, 0.1) for p in (1, 2, 3, 8, 60)]
        assert budgets == [1, 3, 6, 9, 15]

    def test_spherical_with_c_estimate(self):
        e = 0.0681
        m = projections_budget_default(10_000, True, e, c_hat=1.0)
        assert m <= 19
        rep = expected_projections_spherical(q_inverse(e), 1.0, 10_000)
        assert m == math.ceil(2.0 * rep.value)

    def test_loose_target_needs_few(self):
        m = projections_budget_default(10_000, True, 0.499, c_hat=1.0)
        assert m <= 4

    def test_validation(self):
        with pytest.raises(DomainError):
            projections_budget_default(0, False, 0.1)
        with pytest.raises(DomainError):
            projections_budget_default(1, True, 0.1, c_hat=1.0)
        with pytest.raises(DomainError):
            projections_budget_default(100, True, 0.1, c_hat=0.0)


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(DomainError):
            ClusterConfig(target_error=0.5, budget=5)
        with pytest.raises(DomainError):
            ClusterConfig(target_error=0.1, budget=0)
        # bool is a numbers.Integral, yet True is not a budget of 1.
        for budget in (2.5, float("nan"), True):
            with pytest.raises(DomainError, match="budget"):
                ClusterConfig(target_error=0.1, budget=budget)
        assert ClusterConfig(target_error=0.1, budget=np.int64(5)).budget == 5
        with pytest.raises(DomainError):
            ClusterConfig(target_error=0.1, budget=5, learner="nope")

    @pytest.mark.parametrize("seed", [2.5, math.nan, -1, 2**64, True],
                             ids=["2.5", "nan", "-1", "2**64", "True"])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # Checked up front: 2.5 must not scan as seed 2, nor True as seed 1,
        # nor NaN fail mid-scan.
        with pytest.raises(DomainError, match="seed"):
            ClusterConfig(target_error=0.01, budget=3, seed=seed)

    def test_numpy_integer_seed_scans_as_int(self):
        data, _ = small_dataset()
        a, b = (cluster_gmm(data, ClusterConfig(target_error=0.01, budget=3, seed=seed))
                for seed in (np.int64(3), 3))
        assert to_json(a) == to_json(b)
