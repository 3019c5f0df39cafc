"""Domain type validation, separability, covariance sums, JSON."""

import json
import math

import numpy as np
import pytest

from projclust.bounds import nonspherical_direction_prob
from projclust.errors import (
    DegenerateMixtureError,
    DimensionMismatchError,
    DomainError,
)
from projclust.model import (
    Boundary1D,
    ClusterOutcome,
    Dataset,
    Mixture1D,
    MixtureSpec,
    Provenance,
    SIGMA_FLOOR_REL,
    c_separability,
    clamped_mixture1d,
    to_json,
)


def spherical_pair_spec(p, c, sigma=1.0, w=0.5):
    means = np.zeros((2, p))
    means[1, 0] = 2.0 * c * math.sqrt(p) * sigma
    return MixtureSpec.create(means, np.full((2, p), sigma**2), [w, 1 - w])


UNIT_APART = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]   # ||m1 - m2|| = 1


class TestVariances:
    def test_spherical(self):
        spec = MixtureSpec.create(UNIT_APART, np.full((2, 3), 3.0), [0.5, 0.5])
        assert spec.variances.shape == (2, 3)
        # lambda_max is 3 in both components: 1 / (sqrt(3) * 2 sqrt(3)).
        assert c_separability(spec) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_axis_aligned(self):
        variances = [[1.0, 2.0, 4.0], [1.0, 1.0, 1.0]]
        spec = MixtureSpec.create(UNIT_APART, variances, [0.5, 0.5])
        # lambda_max is the row maximum: 1 / (sqrt(3) * (2 + 1)).
        assert c_separability(spec) == pytest.approx(
            1.0 / (3.0 * math.sqrt(3.0)), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_entries_must_be_finite_and_nonnegative(self, bad):
        variances = np.ones((2, 3))
        variances[1, 2] = bad
        with pytest.raises(DomainError):
            MixtureSpec.create(np.zeros((2, 3)), variances, [0.5, 0.5])

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3), (1, 3), (3,)])
    def test_shape_must_be_k_by_p(self, shape):
        with pytest.raises(DimensionMismatchError):
            MixtureSpec.create(np.zeros((2, 3)), np.ones(shape), [0.5, 0.5])


class TestSpecArrays:
    @pytest.mark.parametrize("field", ["means", "variances", "weights"])
    def test_caller_writes_do_not_reach_the_spec(self, field):
        # Regression: create kept the caller's arrays, so a later write
        # could put a negative variance in a spec that no check had seen.
        arrays = {"means": np.zeros((2, 3)), "variances": np.ones((2, 3)),
                  "weights": np.array([0.5, 0.5])}
        spec = MixtureSpec.create(**arrays)
        arrays[field].flat[0] = -1.0
        assert getattr(spec, field).flat[0] != -1.0

    @pytest.mark.parametrize("field", ["means", "variances", "weights"])
    def test_spec_arrays_are_read_only(self, field):
        spec = MixtureSpec.create(np.zeros((2, 3)), np.ones((2, 3)), [0.5, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, field).flat[0] = -1.0


def _combined(var1, var2):
    """(lambda_max, rank) of Sigma1 + Sigma2 as the bounds read them: beta
    of the full-mode report and r of the rank-mode report of a pair whose
    means are 1 apart."""
    p = len(var1)
    means = np.zeros((2, p))
    means[1, 0] = 1.0
    spec = MixtureSpec.create(means, [var1, var2], [0.5, 0.5])
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


class TestCSeparability:
    def test_direct_formula_p4(self):
        spec = spherical_pair_spec(4, 0.5)
        # ||dm|| = 2, sqrt(p)*(1+1) = 4
        assert np.linalg.norm(spec.means[1]) == pytest.approx(2.0)
        assert c_separability(spec) == pytest.approx(0.5, rel=1e-12)

    def test_identical_means(self):
        spec = MixtureSpec.create(np.zeros((2, 3)), np.ones((2, 3)), [0.4, 0.6])
        assert c_separability(spec) == 0.0

    def test_p100_norm20(self):
        means = np.zeros((2, 100))
        means[1, 0] = 20.0
        spec = MixtureSpec.create(means, np.ones((2, 100)), [0.5, 0.5])
        assert c_separability(spec) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        spec = spherical_pair_spec(10, 0.7)
        assert c_separability(spec, 0, 1) == c_separability(spec, 1, 0)

    def test_rotation_invariance(self):
        # A signed coordinate permutation is orthogonal and keeps an
        # axis-aligned covariance axis-aligned.
        p = 12
        gen = np.random.default_rng(11)
        means = gen.standard_normal((2, p))
        vals = np.abs(gen.standard_normal(p))
        spec = MixtureSpec.create(means, [vals, np.full(p, 0.5)], [0.5, 0.5])
        perm = gen.permutation(p)
        signs = gen.choice([-1.0, 1.0], size=p)
        rot = signs[:, None] * np.eye(p)[perm]
        spec_r = MixtureSpec.create(
            means @ rot.T, [vals[perm], np.full(p, 0.5)], [0.5, 0.5]
        )
        assert c_separability(spec_r) == pytest.approx(
            c_separability(spec), abs=1e-9
        )

    def test_degenerate(self):
        spec = MixtureSpec.create(
            np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)), [0.5, 0.5]
        )
        with pytest.raises(DegenerateMixtureError):
            c_separability(spec)

    def test_index_validation(self):
        spec = spherical_pair_spec(4, 1.0)
        with pytest.raises(DomainError):
            c_separability(spec, 1, 1)
        with pytest.raises(DomainError):
            c_separability(spec, 0, 2)


class TestMixtureSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            MixtureSpec.create(np.zeros((2, 3)), np.ones((2, 3)), [0.5, 0.6])

    def test_weight_range(self):
        # NaN compares False both ways, so a NaN weight must still fail.
        for weights in ([0.0, 1.0], [math.nan, math.nan], [math.nan, 0.5],
                        [math.inf, -math.inf]):
            with pytest.raises(DomainError):
                MixtureSpec.create(np.zeros((2, 3)), np.ones((2, 3)), weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_means_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            MixtureSpec.create(
                [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]], np.ones((2, 3)), [0.5, 0.5]
            )

    def test_k_and_dims(self):
        with pytest.raises(DomainError):
            MixtureSpec.create(np.zeros((1, 3)), np.ones((1, 3)), [1.0])
        with pytest.raises(DimensionMismatchError):
            MixtureSpec.create(np.zeros((2, 3)), np.ones((2, 3)), [0.3, 0.3, 0.4])


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

    def test_swapped(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 3.0, 0.3)
        sw = mix.swapped()
        assert (sw.mu1, sw.mu2, sw.sigma1, sw.sigma2, sw.w) == (2.0, 0.0, 3.0, 1.0, 0.7)

    def test_boundary_normalises_direction(self):
        b = Boundary1D.create([3.0, 4.0], [1.0], 1)
        assert np.linalg.norm(b.direction) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_sorts_thresholds(self):
        b = Boundary1D.create([1.0, 0.0], [2.0, -1.0], 0)
        np.testing.assert_array_equal(b.thresholds, [-1.0, 2.0])

    def test_boundary_validation(self):
        with pytest.raises(DomainError):
            Boundary1D.create([0.0, 0.0], [1.0], 0)
        with pytest.raises(DomainError):
            Boundary1D.create([1.0], [1.0, 2.0, 3.0], 0)
        with pytest.raises(DomainError):
            Boundary1D.create([1.0], [1.0], 2)

    @pytest.mark.parametrize("direction, thresholds, orientation", [
        ([np.nan, 0.0], [0.5], 0),
        ([1.0, 0.0], [np.inf], 0),
        ([1.0, 0.0], [2.0, 1.0, 3.0], 0),
        ([1.0, 0.0], [2.0, 1.0], 0),
        ([1.0, 0.0], [0.5], 7),
    ])
    def test_boundary_constructor_validates(self, direction, thresholds, orientation):
        with pytest.raises(DomainError):
            Boundary1D(np.array(direction), np.array(thresholds), orientation)

    def test_boundary_create_rejects_nan_threshold(self):
        with pytest.raises(DomainError, match="finite thresholds"):
            Boundary1D.create([1.0, 0.0], [np.nan], 1)

    def test_dataset_validation(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(n=2, p=3, points=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            Dataset(n=2, p=2, points=np.zeros((2, 2)), labels=np.zeros(3, int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_nonfinite_points(self, bad):
        points = np.ones((4, 3))
        points[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            Dataset(n=4, p=3, points=points)

    def test_dataset_accepts_points_whose_sum_overflows(self):
        points = np.full((2, 2), 1e308)
        assert Dataset(n=2, p=2, points=points).n == 2

    def test_cluster_outcome_validation(self):
        boundary = Boundary1D.create([1.0, 0.0], [0.5], 1)
        mix = Mixture1D(0.0, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            ClusterOutcome(boundary, mix, estimated_error=0.6,
                           gamma_hat=1.0, projections_used=1)
        with pytest.raises(DomainError):
            ClusterOutcome(boundary, mix, estimated_error=0.1,
                           gamma_hat=1.0, projections_used=0)


class TestJson:
    def test_outcome_jsonable(self):
        boundary = Boundary1D.create([1.0, 0.0], [0.5], 1)
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
        ds = Dataset(n=1, p=2, points=np.zeros((1, 2)),
                     provenance=Provenance(seed=7, generator="gaussian:stream=0"))
        assert ds.provenance.seed == 7
