"""The scan's answer under affine maps of the data and reordering of rows.

The plug-in Bayes error of a 1-D fit does not change when the data are
mapped by x -> a*x + b, so neither may the direction that wins a scan.
Shifted data carry only the precision that the shift leaves them: each
coordinate is rounded to |b|*eps/2, which moves a projected value by at
most delta = eps*sqrt(p)*(|b| + a*max|x|).  Every tolerance below is a
multiple of that delta.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projclust.clusterer import (
    ClusterConfig,
    classify,
    cluster_gmm,
    clustering_error,
    scan_directions,
)
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.mathkit import RngStream
from projclust.model import Dataset

EPS = float(np.finfo(float).eps)
LEARNERS = ("mom", "mom+em", "em")
TARGET = 0.05
BUDGET = 10

# Hypothesis examples are drawn from a fixed seed and never stored, so
# every run checks the same cases.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


@pytest.fixture(scope="module")
def data():
    spec = make_spherical_spec(20, 2.0)
    return sample_dataset(spec, 2000, RngStream(3, 0))


def config(learner):
    return ClusterConfig(TARGET, BUDGET, learner=learner, seed=1)


def moved(data, points):
    return Dataset(points, data.labels)


class TestRepros:
    """Shifts and scales that once broke the scan: a shift by 1e12 gave
    estimate 0.5 for the EM learners, x1e150 overflowed and x1e-150
    divided by zero in the moment solve."""

    @pytest.mark.parametrize("learner", LEARNERS)
    @pytest.mark.parametrize("transform", ["+1e12", "x1e150", "x1e-150"])
    def test_same_winner(self, data, learner, transform):
        points = {
            "+1e12": data.points + 1e12,
            "x1e150": data.points * 1e150,
            "x1e-150": data.points * 1e-150,
        }[transform]
        for d in (data, moved(data, points)):
            outcome = cluster_gmm(d, config(learner))
            assert outcome.achieved
            assert outcome.projections_used == 4
            true_error = clustering_error(classify(d, outcome.boundary), d.labels)
            assert true_error == pytest.approx(0.004)


def base_scans(data, cfg):
    """The scanned prefix up to and including the first passer."""
    scans = []
    for scan in scan_directions(data, cfg):
        scans.append(scan)
        if scan.estimated_error < cfg.target_error:
            break
    return scans


def assert_margin(scans, tol):
    for scan in scans:
        assert abs(scan.estimated_error - TARGET) > tol, (
            f"direction {scan.index} sits within rounding of the target"
        )


@PROPERTY
@given(
    learner=st.sampled_from(LEARNERS),
    log_a=st.floats(-100.0, 100.0),
    beta=st.floats(-1e12, 1e12),
)
def test_affine_map_keeps_winner_and_maps_thresholds(data, learner, log_a, beta):
    a = 10.0 ** log_a
    b = beta * a * float(np.std(data.points))
    cfg = config(learner)
    delta = EPS * np.sqrt(data.p) * (abs(b) + a * float(np.max(np.abs(data.points))))
    scans = base_scans(data, cfg)
    # Estimated errors move by far less than delta/a (measured: 0.003 of
    # it); they must sit further than that from the target.
    assert_margin(scans, delta / a)
    base = cluster_gmm(data, cfg)
    out = cluster_gmm(moved(data, a * data.points + b), cfg)

    assert out.projections_used == base.projections_used == scans[-1].index
    assert out.achieved == base.achieved
    assert out.estimated_error == pytest.approx(base.estimated_error, abs=delta / a)
    np.testing.assert_array_equal(out.boundary.direction, base.boundary.direction)
    # A threshold t units of spread away from the mean of the projections
    # moves by up to (1 + t^2) times the perturbation of the fit: an outer
    # threshold of two comes from a near-equal pair of sigmas.
    values = scans[-1].values
    t = base.boundary.thresholds
    reach = 1.0 + ((t - values.mean()) / values.std()) ** 2
    expected = a * t + b * float(np.sum(base.boundary.direction))
    assert out.boundary.thresholds.shape == t.shape
    assert np.all(np.abs(out.boundary.thresholds - expected) <= 10.0 * delta * reach)


@PROPERTY
@given(learner=st.sampled_from(LEARNERS), seed=st.integers(0, 2**32 - 1))
def test_row_permutation_keeps_winner(data, learner, seed):
    cfg = config(learner)
    delta = EPS * np.sqrt(data.p) * float(np.max(np.abs(data.points)))
    assert_margin(base_scans(data, cfg), delta)
    order = np.random.default_rng(seed).permutation(data.n)
    base = cluster_gmm(data, cfg)
    out = cluster_gmm(Dataset(data.points[order]), cfg)
    assert out.projections_used == base.projections_used
    assert out.achieved == base.achieved
    np.testing.assert_allclose(out.boundary.thresholds, base.boundary.thresholds,
                               rtol=1e-9)


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize("target,budget", [
    (TARGET, BUDGET),
    (1e-6, 9),     # never met: every direction is scanned, and
    (1e-6, 25),    # the last block holds one direction
])
def test_column_major_points_keep_the_scan(data, learner, target, budget):
    # The layout of the points picks the BLAS kernel of a block product
    # (GEMM with or without a transpose, GEMV for one row), which may sum
    # in another order: every float agrees to rounding, every count and
    # verdict exactly.
    cfg = ClusterConfig(target, budget, learner=learner, seed=1)
    base = cluster_gmm(data, cfg)
    out = cluster_gmm(moved(data, np.asfortranarray(data.points)), cfg)
    assert out.projections_used == base.projections_used
    assert out.achieved == base.achieved
    assert out.boundary.orientation == base.boundary.orientation
    np.testing.assert_array_equal(out.boundary.direction, base.boundary.direction)
    for got, want in [
        (out.boundary.thresholds, base.boundary.thresholds),
        (out.estimated_error, base.estimated_error),
        (out.gamma_hat, base.gamma_hat),
        (out.c_hat, base.c_hat),
        (list(vars(out.fitted).values()), list(vars(base.fitted).values())),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
