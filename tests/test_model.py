"""Domain type validation, separability, eigenvalue routines, JSON."""

import json
import math

import numpy as np
import pytest

from projclust.errors import (
    DegenerateMixtureError,
    DimensionMismatchError,
    DomainError,
)
from projclust.model import (
    Boundary1D,
    ClusterOutcome,
    CovarianceSpec,
    Dataset,
    Mixture1D,
    MixtureSpec,
    Provenance,
    SIGMA_FLOOR_REL,
    c_separability,
    clamped_mixture1d,
    cluster_outcome_to_jsonable,
    combined_lambda_max,
    combined_rank,
    lambda_max,
    quadratic_form,
    to_json,
)


def spherical_pair_spec(p, c, sigma=1.0, w=0.5):
    means = np.zeros((2, p))
    means[1, 0] = 2.0 * c * math.sqrt(p) * sigma
    cov = CovarianceSpec.spherical(sigma**2)
    return MixtureSpec.create(means, (cov, cov), [w, 1 - w])


class TestCovarianceSpec:
    def test_spherical(self):
        cov = CovarianceSpec.spherical(3.0)
        assert lambda_max(cov) == 3.0
        with pytest.raises(DomainError):
            CovarianceSpec.spherical(0.0)
        with pytest.raises(DomainError):
            CovarianceSpec.spherical(float("nan"))

    def test_eigen(self):
        cov = CovarianceSpec.eigen([1.0, 2.0, 3.0])
        assert lambda_max(cov) == 3.0
        with pytest.raises(DomainError):
            CovarianceSpec.eigen([1.0, -0.5])

    def test_quadratic_form_consistency(self):
        gen = np.random.default_rng(5)
        vals = np.abs(gen.standard_normal(5))
        v = gen.standard_normal(5)
        dense = float(v @ np.diag(vals) @ v)
        assert quadratic_form(CovarianceSpec.eigen(vals), v) == pytest.approx(dense)
        assert quadratic_form(CovarianceSpec.spherical(1.5), v) == pytest.approx(
            float(v @ (1.5 * np.eye(5)) @ v)
        )


class TestCombined:
    def test_spherical_pair(self):
        c1 = CovarianceSpec.spherical(1.0)
        c2 = CovarianceSpec.spherical(2.0)
        assert combined_lambda_max(c1, c2, 7) == 3.0
        assert combined_rank(c1, c2, 7) == 7

    def test_axis_aligned(self):
        c1 = CovarianceSpec.eigen([1.0, 0.0, 0.0])
        c2 = CovarianceSpec.eigen([1.0, 1.0, 0.0])
        assert combined_lambda_max(c1, c2, 3) == 2.0
        assert combined_rank(c1, c2, 3) == 2

    def test_unequal_diagonals_match_dense_sum(self):
        c1 = CovarianceSpec.eigen([0.3, 2.5, 0.0, 1.0, 0.0, 0.7])
        c2 = CovarianceSpec.eigen([1.9, 0.0, 0.0, 0.4, 0.0, 2.2])
        total = np.diag(c1.eigenvalues) + np.diag(c2.eigenvalues)
        assert combined_lambda_max(c1, c2, 6) == pytest.approx(
            float(np.linalg.eigvalsh(total)[-1]), rel=1e-12
        )
        assert combined_rank(c1, c2, 6) == np.linalg.matrix_rank(total) == 4
        sph = CovarianceSpec.spherical(0.5)
        total = np.diag(c1.eigenvalues) + 0.5 * np.eye(6)
        assert combined_lambda_max(c1, sph, 6) == pytest.approx(
            float(np.linalg.eigvalsh(total)[-1]), rel=1e-12
        )
        assert combined_rank(c1, sph, 6) == np.linalg.matrix_rank(total) == 6


class TestCSeparability:
    def test_direct_formula_p4(self):
        spec = spherical_pair_spec(4, 0.5)
        # ||dm|| = 2, sqrt(p)*(1+1) = 4
        assert np.linalg.norm(spec.means[1]) == pytest.approx(2.0)
        assert c_separability(spec) == pytest.approx(0.5, rel=1e-12)

    def test_identical_means(self):
        cov = CovarianceSpec.spherical(1.0)
        spec = MixtureSpec.create(np.zeros((2, 3)), (cov, cov), [0.4, 0.6])
        assert c_separability(spec) == 0.0

    def test_p100_norm20(self):
        means = np.zeros((2, 100))
        means[1, 0] = 20.0
        cov = CovarianceSpec.spherical(1.0)
        spec = MixtureSpec.create(means, (cov, cov), [0.5, 0.5])
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
        covs = (CovarianceSpec.eigen(vals), CovarianceSpec.spherical(0.5))
        spec = MixtureSpec.create(means, covs, [0.5, 0.5])
        perm = gen.permutation(p)
        signs = gen.choice([-1.0, 1.0], size=p)
        rot = signs[:, None] * np.eye(p)[perm]
        covs_r = (CovarianceSpec.eigen(vals[perm]), CovarianceSpec.spherical(0.5))
        spec_r = MixtureSpec.create(means @ rot.T, covs_r, [0.5, 0.5])
        assert c_separability(spec_r) == pytest.approx(
            c_separability(spec), abs=1e-9
        )

    def test_degenerate(self):
        zero = CovarianceSpec.eigen([0.0, 0.0])
        spec = MixtureSpec.create(
            np.array([[0.0, 0.0], [1.0, 0.0]]), (zero, zero), [0.5, 0.5]
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
        cov = CovarianceSpec.spherical(1.0)
        with pytest.raises(DomainError):
            MixtureSpec.create(np.zeros((2, 3)), (cov, cov), [0.5, 0.6])

    def test_weight_range(self):
        cov = CovarianceSpec.spherical(1.0)
        # NaN compares False both ways, so a NaN weight must still fail.
        for weights in ([0.0, 1.0], [math.nan, math.nan], [math.nan, 0.5],
                        [math.inf, -math.inf]):
            with pytest.raises(DomainError):
                MixtureSpec.create(np.zeros((2, 3)), (cov, cov), weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_means_must_be_finite(self, bad):
        cov = CovarianceSpec.spherical(1.0)
        with pytest.raises(DomainError):
            MixtureSpec.create([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]], (cov, cov), [0.5, 0.5])

    def test_k_and_dims(self):
        cov = CovarianceSpec.spherical(1.0)
        with pytest.raises(DomainError):
            MixtureSpec.create(np.zeros((1, 3)), (cov,), [1.0])
        with pytest.raises(DimensionMismatchError):
            MixtureSpec.create(
                np.zeros((2, 3)), (cov, CovarianceSpec.eigen([1.0, 1.0])), [0.5, 0.5]
            )


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
        obj = cluster_outcome_to_jsonable(outcome)
        text = to_json(obj)
        parsed = json.loads(text)
        for key in ("boundary", "fitted", "estimated_error", "gamma_hat",
                    "projections_used", "c_hat", "achieved"):
            assert key in parsed
        assert parsed["projections_used"] == 3
        assert parsed["achieved"] is False

    def test_dataset_provenance(self):
        ds = Dataset(n=1, p=2, points=np.zeros((1, 2)),
                     provenance=Provenance(seed=7, generator="gaussian:stream=0"))
        assert ds.provenance.seed == 7
