"""Generators: exact separation, rank reporting, moments, file formats."""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from projclust.datagen import (
    export_csv,
    make_rank_spec,
    make_spherical_spec,
    read_dataset,
    sample_dataset,
    sample_nongaussian_dataset,
    write_dataset,
)
from projclust.errors import DomainError, UnsupportedError
from projclust.mathkit import RngStream
from projclust.model import (
    CovarianceSpec,
    MixtureSpec,
    c_separability,
    combined_rank,
)
from projclust.projection import project_block


class TestSphericalSpec:
    def test_mean_distance(self):
        spec = make_spherical_spec(100, 1.0, sigma=1.0)
        assert float(np.linalg.norm(spec.means[1] - spec.means[0])) == pytest.approx(
            20.0
        )

    def test_zero_separation(self):
        spec = make_spherical_spec(10, 0.0)
        np.testing.assert_array_equal(spec.means[0], spec.means[1])

    @pytest.mark.parametrize("p,c,sigma", [(7, 0.3, 0.5), (64, 1.7, 2.0),
                                           (513, 0.9, 0.1)])
    def test_separation_roundtrip(self, p, c, sigma):
        spec = make_spherical_spec(p, c, sigma)
        assert c_separability(spec) == pytest.approx(c, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_spherical_spec(0, 1.0)
        with pytest.raises(DomainError):
            make_spherical_spec(10, 1.0, sigma=0.0)
        with pytest.raises(DomainError):
            make_spherical_spec(10, 1.0, w=1.0)


class TestRankSpec:
    def test_full_fraction_gives_full_rank(self):
        spec, r = make_rank_spec(90, 0.5, 1.0, RngStream(1, 0))
        assert r == 90

    def test_small_fraction(self):
        spec, r = make_rank_spec(1000, 0.5, 0.02, RngStream(2, 0))
        assert r == 60

    def test_separation_roundtrip(self):
        for zeta in (0.02, 0.1, 0.4):
            spec, _ = make_rank_spec(500, 0.7, zeta, RngStream(3, 0))
            assert c_separability(spec) == pytest.approx(0.7, abs=1e-9)

    def test_reported_rank_matches_eigen_representation(self):
        for seed in range(5):
            spec, r = make_rank_spec(200, 0.5, 0.07, RngStream(seed, 0))
            assert combined_rank(spec.covs[0], spec.covs[1], 200) == r

    def test_deterministic(self):
        a, ra = make_rank_spec(100, 0.5, 0.1, RngStream(9, 0))
        b, rb = make_rank_spec(100, 0.5, 0.1, RngStream(9, 0))
        assert ra == rb
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs[0].eigenvalues, b.covs[0].eigenvalues)

    def test_lambda_max_is_unit(self):
        spec, _ = make_rank_spec(100, 0.5, 0.1, RngStream(4, 0))
        from projclust.model import lambda_max
        assert lambda_max(spec.covs[0]) == 1.0
        assert lambda_max(spec.covs[1]) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            make_rank_spec(100, 0.5, 0.0)
        with pytest.raises(DomainError):
            make_rank_spec(100, 0.5, 1.0001)


class TestSampleDataset:
    def test_reproducible(self):
        spec = make_spherical_spec(20, 1.0)
        a = sample_dataset(spec, 100, RngStream(7, 0))
        b = sample_dataset(spec, 100, RngStream(7, 0))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_component_frequency(self):
        w, n = 0.3, 10_000
        spec = make_spherical_spec(5, 1.0, w=w)
        data = sample_dataset(spec, n, RngStream(8, 0))
        freq = float(np.mean(data.labels == 0))
        assert abs(freq - w) <= 4.0 * math.sqrt(w * (1 - w) / n)

    def test_component_means(self):
        p, n, sigma = 20, 20_000, 1.0
        spec = make_spherical_spec(p, 1.0, sigma)
        data = sample_dataset(spec, n, RngStream(9, 0))
        for i in (0, 1):
            rows = data.points[data.labels == i]
            got = rows.mean(axis=0)
            slack = 4.0 * sigma * math.sqrt(p / rows.shape[0])
            assert float(np.linalg.norm(got - spec.means[i])) <= slack

    def test_spherical_variance_diagonal(self):
        sigma2 = 1.5
        spec = make_spherical_spec(20, 1.0, math.sqrt(sigma2))
        data = sample_dataset(spec, 10_000, RngStream(10, 0))
        for i in (0, 1):
            rows = data.points[data.labels == i]
            var = rows.var(axis=0, ddof=1)
            assert np.all(np.abs(var - sigma2) <= 0.1 * sigma2)

    def test_eigen_with_basis_covariance(self):
        p = 6
        gen = np.random.default_rng(11)
        q, r = np.linalg.qr(gen.standard_normal((p, p)))
        basis = q * np.sign(np.diag(r))
        vals = np.array([4.0, 2.0, 1.0, 0.5, 0.0, 0.0])
        cov = CovarianceSpec.eigen(vals, basis)
        spec = MixtureSpec.create(np.zeros((2, p)), (cov, cov), [0.5, 0.5])
        data = sample_dataset(spec, 50_000, RngStream(12, 0))
        emp = np.cov(data.points.T)
        expected = (basis * vals) @ basis.T
        assert float(np.max(np.abs(emp - expected))) < 0.15

    def test_full_covariance_sampling(self):
        mat = np.array([[2.0, 0.8], [0.8, 1.0]])
        cov = CovarianceSpec.full(mat)
        spec = MixtureSpec.create(np.zeros((2, 2)), (cov, cov), [0.5, 0.5])
        data = sample_dataset(spec, 50_000, RngStream(13, 0))
        emp = np.cov(data.points.T)
        assert float(np.max(np.abs(emp - mat))) < 0.1

    def test_provenance(self):
        spec = make_spherical_spec(4, 1.0)
        data = sample_dataset(spec, 10, RngStream(99, 3))
        assert data.provenance.seed == 99
        assert "stream=3" in data.provenance.generator

    def test_n_validation(self):
        spec = make_spherical_spec(4, 1.0)
        with pytest.raises(DomainError):
            sample_dataset(spec, 0, RngStream(0, 0))


class TestNonGaussian:
    def test_uniform_support_width(self):
        sigma = 1.3
        spec = make_spherical_spec(3, 0.0, sigma)
        data = sample_nongaussian_dataset(spec, "uniform", 200_000, RngStream(14, 0))
        width = float(data.points.max() - data.points.min())
        assert width <= math.sqrt(12.0) * sigma + 1e-9
        assert width >= 0.999 * math.sqrt(12.0) * sigma

    @pytest.mark.parametrize("shape", ["uniform", "laplace", "rademacher"])
    def test_first_two_moments_match(self, shape):
        spec = make_spherical_spec(10, 1.0, sigma=0.9, w=0.4)
        n = 100_000
        data = sample_nongaussian_dataset(spec, shape, n, RngStream(15, 0))
        for i in (0, 1):
            rows = data.points[data.labels == i]
            mean_err = float(np.max(np.abs(rows.mean(axis=0) - spec.means[i])))
            assert mean_err < 4.0 * 0.9 / math.sqrt(rows.shape[0] / 4)
            var = rows.var(axis=0, ddof=1)
            assert np.all(np.abs(var - 0.81) < 0.1)

    def test_rademacher_support(self):
        spec = make_spherical_spec(2, 0.0, sigma=2.0)
        data = sample_nongaussian_dataset(spec, "rademacher", 1000, RngStream(16, 0))
        np.testing.assert_allclose(np.abs(data.points), 2.0)

    def test_full_cov_unsupported(self):
        cov = CovarianceSpec.full(np.eye(2))
        spec = MixtureSpec.create(np.zeros((2, 2)), (cov, cov), [0.5, 0.5])
        with pytest.raises(UnsupportedError):
            sample_nongaussian_dataset(spec, "uniform", 10, RngStream(0, 0))

    def test_unknown_shape(self):
        spec = make_spherical_spec(2, 1.0)
        with pytest.raises(DomainError):
            sample_nongaussian_dataset(spec, "cauchy", 10, RngStream(0, 0))

    def test_projected_coordinates_normalise(self):
        # Central limit along a random direction at p=1000: per-component
        # skewness of the projected values is tiny.
        p, n = 1000, 100_000
        spec = make_spherical_spec(p, 1.0)
        data = sample_nongaussian_dataset(spec, "uniform", n, RngStream(17, 0))
        direction = RngStream(18, 0).generator().standard_normal(p)
        values = project_block(data, direction[np.newaxis])[0]
        for i in (0, 1):
            skew = float(stats.skew(values[data.labels == i]))
            assert abs(skew) <= 0.05


class TestFiles:
    def test_roundtrip(self, tmp_path):
        spec = make_spherical_spec(6, 1.0)
        data = sample_dataset(spec, 50, RngStream(20, 0))
        base = os.path.join(tmp_path, "ds")
        bin_path, json_path = write_dataset(data, base, k=2)
        back = read_dataset(base)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.provenance.seed == 20

    def test_header_contents(self, tmp_path):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(21, 0))
        _, json_path = write_dataset(data, os.path.join(tmp_path, "d"), k=2)
        header = json.loads(open(json_path).read())
        assert header["n"] == 5 and header["p"] == 3 and header["k"] == 2
        assert header["seed"] == 21
        assert len(header["labels"]) == 5

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = make_spherical_spec(4, 1.0)
        data = sample_dataset(spec, 20, RngStream(22, 0))
        b1, j1 = write_dataset(data, os.path.join(tmp_path, "a"))
        b2, j2 = write_dataset(data, os.path.join(tmp_path, "b"))
        assert open(b1, "rb").read() == open(b2, "rb").read()
        assert open(j1).read() == open(j2).read()

    def test_payload_is_little_endian_rowmajor(self, tmp_path):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        from projclust.model import Dataset
        ds = Dataset(n=2, p=2, points=points)
        bin_path, _ = write_dataset(ds, os.path.join(tmp_path, "raw"), k=2)
        raw = np.frombuffer(open(bin_path, "rb").read(), dtype="<f8")
        np.testing.assert_array_equal(raw, [1.0, 2.0, 3.0, 4.0])

    def test_size_mismatch_detected(self, tmp_path):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(23, 0))
        base = os.path.join(tmp_path, "bad")
        bin_path, json_path = write_dataset(data, base)
        with open(bin_path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(Exception):
            read_dataset(base)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload_rejected_on_read(self, tmp_path, bad):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(24, 0))
        base = os.path.join(tmp_path, "nonfinite")
        bin_path, _ = write_dataset(data, base)
        payload = np.fromfile(bin_path, dtype="<f8")
        payload[7] = bad
        payload.tofile(bin_path)
        with pytest.raises(DomainError, match="finite"):
            read_dataset(base)

    def test_rank_fields_in_header(self, tmp_path):
        spec, r = make_rank_spec(50, 0.5, 0.1, RngStream(25, 42))
        data = sample_dataset(spec, 5, RngStream(25, 0))
        _, json_path = write_dataset(
            data, os.path.join(tmp_path, "rk"), k=2, r=r, zeta=0.1
        )
        header = json.loads(open(json_path).read())
        assert header["r"] == r and header["zeta"] == 0.1
        _, plain = write_dataset(data, os.path.join(tmp_path, "plain"))
        assert "r" not in json.loads(open(plain).read())

    def test_csv_export_full_precision(self, tmp_path):
        spec = make_spherical_spec(2, 1.0)
        data = sample_dataset(spec, 7, RngStream(24, 0))
        path = os.path.join(tmp_path, "out.csv")
        export_csv(data, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == data.points[0, 0]
        assert int(first[2]) == data.labels[0]
