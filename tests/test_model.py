"""Domain type validation, covariance sums, JSON."""

import json
import math

import numpy as np
import pytest

from projclust.bounds import nonspherical_direction_prob
from projclust.errors import DimensionMismatchError, DomainError
from projclust.model import (
    Boundary1D,
    ClusterOutcome,
    Dataset,
    Mixture1D,
    MixtureSpec,
    Provenance,
    SIGMA_FLOOR_REL,
    clamped_mixture1d,
    to_json,
)


UNIT_APART = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]   # ||m1 - m2|| = 1


class TestVariances:
    def test_spherical(self):
        spec = MixtureSpec(UNIT_APART, np.full((2, 3), 3.0), [0.5, 0.5])
        np.testing.assert_array_equal(spec.variances, np.full((2, 3), 3.0))

    def test_axis_aligned(self):
        variances = [[1.0, 2.0, 4.0], [1.0, 1.0, 1.0]]
        spec = MixtureSpec(UNIT_APART, variances, [0.5, 0.5])
        np.testing.assert_array_equal(spec.variances, variances)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_entries_must_be_finite_and_nonnegative(self, bad):
        variances = np.ones((2, 3))
        variances[1, 2] = bad
        with pytest.raises(DomainError):
            MixtureSpec(np.zeros((2, 3)), variances, [0.5, 0.5])

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3), (1, 3), (3,)])
    def test_shape_must_be_k_by_p(self, shape):
        with pytest.raises(DimensionMismatchError):
            MixtureSpec(np.zeros((2, 3)), np.ones(shape), [0.5, 0.5])


class TestSpecArrays:
    @pytest.mark.parametrize("field", ["means", "variances", "weights"])
    def test_caller_writes_do_not_reach_the_spec(self, field):
        # Regression: the spec kept the caller's arrays, so a later write
        # could put a negative variance in a spec that no check had seen.
        arrays = {"means": np.zeros((2, 3)), "variances": np.ones((2, 3)),
                  "weights": np.array([0.5, 0.5])}
        spec = MixtureSpec(**arrays)
        arrays[field].flat[0] = -1.0
        assert getattr(spec, field).flat[0] != -1.0

    def test_sizes_are_read_from_the_means(self):
        spec = MixtureSpec(np.zeros((3, 4)), np.ones((3, 4)), [0.2, 0.3, 0.5])
        assert (spec.k, spec.p) == (3, 4)

    @pytest.mark.parametrize("field", ["means", "variances", "weights"])
    def test_spec_arrays_are_read_only(self, field):
        spec = MixtureSpec(np.zeros((2, 3)), np.ones((2, 3)), [0.5, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, field).flat[0] = -1.0


def _combined(var1, var2):
    """(lambda_max, rank) of Sigma1 + Sigma2 as the bounds read them: beta
    of the full-mode report and r of the rank-mode report of a pair whose
    means are 1 apart."""
    p = len(var1)
    means = np.zeros((2, p))
    means[1, 0] = 1.0
    spec = MixtureSpec(means, [var1, var2], [0.5, 0.5])
    full = nonspherical_direction_prob(spec, 1.0, 0.1)
    rank = nonspherical_direction_prob(spec, 1.0, 0.1, mode="rank", tau1=0.2, tau2=0.5)
    # Full-mode beta is 2 * gamma^2 * lambda_max * p / ||m1 - m2||^2.
    return full.inputs["beta"] / (2.0 * p), rank.inputs["r"]


class TestCombined:
    def test_spherical_pair(self):
        assert _combined([1.0] * 7, [2.0] * 7) == (3.0, 7)

    def test_axis_aligned(self):
        assert _combined([1.0, 0.0, 0.0], [1.0, 1.0, 0.0]) == (2.0, 2)

    def test_unequal_diagonals_match_dense_sum(self):
        v1 = np.array([0.3, 2.5, 0.0, 1.0, 0.0, 0.7])
        v2 = np.array([1.9, 0.0, 0.0, 0.4, 0.0, 2.2])
        sph = np.full(6, 0.5)
        for other, rank in ((v2, 4), (sph, 6)):
            total = np.diag(v1) + np.diag(other)
            lmax, r = _combined(v1, other)
            assert lmax == pytest.approx(float(np.linalg.eigvalsh(total)[-1]), rel=1e-12)
            assert r == np.linalg.matrix_rank(total) == rank


class TestMixtureSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            MixtureSpec(np.zeros((2, 3)), np.ones((2, 3)), [0.5, 0.6])

    def test_weight_range(self):
        # NaN compares False both ways, so a NaN weight must still fail.
        for weights in ([0.0, 1.0], [math.nan, math.nan], [math.nan, 0.5],
                        [math.inf, -math.inf]):
            with pytest.raises(DomainError):
                MixtureSpec(np.zeros((2, 3)), np.ones((2, 3)), weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_means_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            MixtureSpec(
                [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]], np.ones((2, 3)), [0.5, 0.5]
            )

    def test_k_and_dims(self):
        with pytest.raises(DomainError):
            MixtureSpec(np.zeros((1, 3)), np.ones((1, 3)), [1.0])
        with pytest.raises(DimensionMismatchError):
            MixtureSpec(np.zeros((2, 3)), np.ones((2, 3)), [0.3, 0.3, 0.4])
        with pytest.raises(DimensionMismatchError, match="2-D"):
            MixtureSpec(np.zeros((2, 3, 1)), np.ones((2, 3)), [0.5, 0.5])


class TestSmallTypes:
    def test_mixture1d_validation(self):
        with pytest.raises(DomainError):
            Mixture1D(0.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            Mixture1D(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            Mixture1D(float("nan"), 1.0, 1.0, 1.0, 0.5)

    def test_clamped_mixture1d_floors(self):
        mix = clamped_mixture1d(0.0, 2.0, 0.0, 1.0, 0.0)
        assert mix.sigma1 == SIGMA_FLOOR_REL * 2.0
        assert mix.w == 1e-4

    def test_boundary_validation(self):
        with pytest.raises(DomainError):
            Boundary1D(np.array([0.0, 0.0]), np.array([1.0]), 0)
        with pytest.raises(DomainError):
            Boundary1D(np.array([1.0]), np.array([1.0, 2.0, 3.0]), 0)
        with pytest.raises(DomainError):
            Boundary1D(np.array([1.0]), np.array([1.0]), 2)

    @pytest.mark.parametrize("direction, thresholds, orientation", [
        ([np.nan, 0.0], [0.5], 0),
        ([1.0, 0.0], [np.inf], 0),
        ([1.0, 0.0], [2.0, 1.0, 3.0], 0),
        ([1.0, 0.0], [2.0, 1.0], 0),
        ([1.0, 0.0], [0.5], 7),
        ([3.0, 4.0], [0.5], 0),
    ])
    def test_boundary_constructor_validates(self, direction, thresholds, orientation):
        with pytest.raises(DomainError):
            Boundary1D(np.array(direction), np.array(thresholds), orientation)

    def test_boundary_rejects_nan_threshold(self):
        with pytest.raises(DomainError, match="finite thresholds"):
            Boundary1D(np.array([1.0, 0.0]), np.array([np.nan]), 1)

    def test_dataset_validation(self):
        with pytest.raises(DimensionMismatchError, match="2-D"):
            Dataset(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((2, 2)), labels=np.zeros(3, int))
        # Labels are ints in [0, k), and neither field converts a list.
        with pytest.raises(DomainError, match="integer"):
            Dataset(np.zeros((2, 2)), labels=np.array([0.5, 1.5]))
        with pytest.raises(DomainError, match="numpy"):
            Dataset([[0.0, 1.0]])
        with pytest.raises(DomainError, match="numpy"):
            Dataset(np.zeros((2, 2)), labels=[0, 1])

    def test_dataset_sizes_are_read_from_the_points(self):
        ds = Dataset(np.zeros((5, 2)), labels=np.zeros(5, int))
        assert (ds.n, ds.p) == (5, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_nonfinite_points(self, bad):
        points = np.ones((4, 3))
        points[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            Dataset(points)

    def test_dataset_accepts_points_whose_sum_overflows(self):
        points = np.full((2, 2), 1e308)
        assert Dataset(points).n == 2

    def test_cluster_outcome_validation(self):
        boundary = Boundary1D(np.array([1.0, 0.0]), np.array([0.5]), 1)
        mix = Mixture1D(0.0, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            ClusterOutcome(boundary, mix, estimated_error=0.6,
                           gamma_hat=1.0, projections_used=1)
        with pytest.raises(DomainError):
            ClusterOutcome(boundary, mix, estimated_error=0.1,
                           gamma_hat=1.0, projections_used=0)


class TestJson:
    def test_outcome_jsonable(self):
        boundary = Boundary1D(np.array([1.0, 0.0]), np.array([0.5]), 1)
        mix = Mixture1D(0.0, 1.0, 1.0, 1.0, 0.5)
        outcome = ClusterOutcome(boundary, mix, 0.1, 1.2, 3, c_hat=0.9,
                                 achieved=False)
        parsed = json.loads(to_json(outcome))
        assert set(parsed) == {"boundary", "fitted", "estimated_error", "gamma_hat",
                               "projections_used", "c_hat", "achieved"}
        assert parsed["boundary"] == {"direction": [1.0, 0.0], "thresholds": [0.5],
                                      "orientation": 1}
        assert parsed["projections_used"] == 3
        assert parsed["achieved"] is False

    def test_numpy_values_encode_as_their_python_values(self):
        obj = {"i": np.int64(3), "f": np.float32(0.5), "b": np.bool_(True),
               "a": np.array([[1.0, 2.5]]), "x": np.float64(0.1)}
        assert to_json(obj) == (
            '{"a": [[1.0, 2.5]], "b": true, "f": 0.5, "i": 3, "x": 0.1}')

    def test_nonfinite_floats_print_as_null(self):
        obj = {"a": math.inf, "b": np.array([1.0, np.nan]), "c": np.float64(-np.inf),
               "d": [(math.nan, 2.0)]}
        assert to_json(obj) == '{"a": null, "b": [1.0, null], "c": null, "d": [[null, 2.0]]}'

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="set"):
            to_json({"s": {1}})

    def test_dataset_provenance(self):
        ds = Dataset(np.zeros((1, 2)),
                     provenance=Provenance(seed=7, generator="gaussian:stream=0"))
        assert ds.provenance.seed == 7
