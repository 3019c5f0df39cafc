"""Generators: exact separation, rank reporting, moments, file formats."""

import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from projclust import datagen
from projclust.datagen import (
    ROW_BLOCK,
    SHAPES,
    export_csv,
    make_rank_spec,
    make_spherical_spec,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from projclust.errors import DimensionMismatchError, DomainError
from projclust.mathkit import RngStream
from projclust.model import Dataset, MixtureSpec
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
        # c = ||m1 - m2|| / (sqrt(p) * 2 sigma) for two sigma^2 I components.
        spec = make_spherical_spec(p, c, sigma)
        np.testing.assert_array_equal(spec.variances, np.full((2, p), sigma * sigma))
        gap = float(np.linalg.norm(spec.means[1] - spec.means[0]))
        assert gap / (math.sqrt(p) * 2.0 * sigma) == pytest.approx(c, abs=1e-12)

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
        # Both components have lambda_max 1, so c = ||m1 - m2|| / (2 sqrt(p)).
        for zeta in (0.02, 0.1, 0.4):
            spec, _ = make_rank_spec(500, 0.7, zeta, RngStream(3, 0))
            assert spec.variances.max(axis=1).tolist() == [1.0, 1.0]
            gap = float(np.linalg.norm(spec.means[1] - spec.means[0]))
            assert gap / (2.0 * math.sqrt(500)) == pytest.approx(0.7, abs=1e-9)

    def test_reported_rank_matches_eigen_representation(self):
        for seed in range(5):
            spec, r = make_rank_spec(200, 0.5, 0.07, RngStream(seed, 0))
            assert set(np.unique(spec.variances)) == {0.0, 1.0}
            assert np.count_nonzero(spec.variances[0] + spec.variances[1]) == r

    def test_deterministic(self):
        a, ra = make_rank_spec(100, 0.5, 0.1, RngStream(9, 0))
        b, rb = make_rank_spec(100, 0.5, 0.1, RngStream(9, 0))
        assert ra == rb
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_lambda_max_is_unit(self):
        spec, _ = make_rank_spec(100, 0.5, 0.1, RngStream(4, 0))
        assert spec.variances.max(axis=1).tolist() == [1.0, 1.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            make_rank_spec(100, 0.5, 0.0, RngStream(0, 0))
        with pytest.raises(DomainError):
            make_rank_spec(100, 0.5, 1.0001, RngStream(0, 0))


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

    def test_n_validation(self):
        spec = make_spherical_spec(4, 1.0)
        with pytest.raises(DomainError):
            sample_dataset(spec, 0, RngStream(0, 0))


class TestNonGaussian:
    def test_uniform_support_width(self):
        sigma = 1.3
        spec = make_spherical_spec(3, 0.0, sigma)
        data = sample_dataset(spec, 200_000, RngStream(14, 0), "uniform")
        width = float(data.points.max() - data.points.min())
        assert width <= math.sqrt(12.0) * sigma + 1e-9
        assert width >= 0.999 * math.sqrt(12.0) * sigma

    @pytest.mark.parametrize("shape", ["uniform", "laplace", "rademacher"])
    def test_first_two_moments_match(self, shape):
        spec = make_spherical_spec(10, 1.0, sigma=0.9, w=0.4)
        n = 100_000
        data = sample_dataset(spec, n, RngStream(15, 0), shape)
        for i in (0, 1):
            rows = data.points[data.labels == i]
            mean_err = float(np.max(np.abs(rows.mean(axis=0) - spec.means[i])))
            assert mean_err < 4.0 * 0.9 / math.sqrt(rows.shape[0] / 4)
            var = rows.var(axis=0, ddof=1)
            assert np.all(np.abs(var - 0.81) < 0.1)

    def test_rademacher_support(self):
        spec = make_spherical_spec(2, 0.0, sigma=2.0)
        data = sample_dataset(spec, 1000, RngStream(16, 0), "rademacher")
        np.testing.assert_allclose(np.abs(data.points), 2.0)

    def test_unknown_shape(self):
        spec = make_spherical_spec(2, 1.0)
        with pytest.raises(DomainError):
            sample_dataset(spec, 10, RngStream(0, 0), "cauchy")

    def test_projected_coordinates_normalise(self):
        # Central limit along a random direction at p=1000: per-component
        # skewness of the projected values is tiny.
        p, n = 1000, 100_000
        spec = make_spherical_spec(p, 1.0)
        data = sample_dataset(spec, n, RngStream(17, 0), "uniform")
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

    def test_header_contents(self, tmp_path):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(21, 0))
        _, json_path = write_dataset(data, os.path.join(tmp_path, "d"), k=2, seed=21)
        header = json.loads(Path(json_path).read_text())
        assert header["n"] == 5 and header["p"] == 3 and header["k"] == 2
        assert header["seed"] == 21
        assert len(header["labels"]) == 5

    def test_header_without_notes_or_labels(self, tmp_path):
        _, json_path = write_dataset(Dataset(np.zeros((2, 3))),
                                     os.path.join(tmp_path, "bare"))
        assert Path(json_path).read_bytes() == b'{"n": 2, "p": 3}\n'

    @pytest.mark.parametrize("name", ["n", "p", "labels"])
    def test_reserved_note_raises(self, tmp_path, name):
        base = os.path.join(tmp_path, "r")
        with pytest.raises(DomainError, match=f"named {name}$"):
            write_dataset(Dataset(np.zeros((2, 1))), base, **{name: 1})
        assert not os.path.exists(base + ".bin")

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = make_spherical_spec(4, 1.0)
        data = sample_dataset(spec, 20, RngStream(22, 0))
        b1, j1 = write_dataset(data, os.path.join(tmp_path, "a"))
        b2, j2 = write_dataset(data, os.path.join(tmp_path, "b"))
        assert Path(b1).read_bytes() == Path(b2).read_bytes()
        assert Path(j1).read_text() == Path(j2).read_text()

    def test_sidecar_bytes(self, tmp_path):
        data = Dataset(np.zeros((2, 1)), labels=np.array([1, 0]))
        _, json_path = write_dataset(data, os.path.join(tmp_path, "s"), k=2, seed=7,
                                     generator="spherical", r=3, zeta=0.25)
        with open(json_path, "rb") as fh:
            assert fh.read() == (
                b'{"generator": "spherical", "k": 2, "labels": [1, 0], "n": 2, '
                b'"p": 1, "r": 3, "seed": 7, "zeta": 0.25}\n')

    def test_payload_is_little_endian_rowmajor(self, tmp_path):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        from projclust.model import Dataset
        ds = Dataset(points)
        bin_path, _ = write_dataset(ds, os.path.join(tmp_path, "raw"), k=2)
        raw = np.frombuffer(Path(bin_path).read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, [1.0, 2.0, 3.0, 4.0])

    def test_size_mismatch_detected(self, tmp_path):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(23, 0))
        base = os.path.join(tmp_path, "bad")
        bin_path, json_path = write_dataset(data, base)
        with open(bin_path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(DimensionMismatchError):
            read_dataset(base)

    @pytest.mark.parametrize("cut", [8, 3])   # one value; not a multiple of 8
    def test_short_payload_detected(self, tmp_path, cut):
        spec = make_spherical_spec(3, 1.0)
        data = sample_dataset(spec, 5, RngStream(23, 0))
        base = os.path.join(tmp_path, "short")
        bin_path, _ = write_dataset(data, base)
        with open(bin_path, "r+b") as fh:
            fh.truncate(8 * 5 * 3 - cut)
        with pytest.raises(DimensionMismatchError, match="header says 5x3"):
            read_dataset(base)

    def test_payload_cut_after_size_check_detected(self, tmp_path, monkeypatch):
        # The last block comes up one value short while fstat still
        # reports the full size; its read must fail rather than keep the
        # previous block's values.
        n, p = ROW_BLOCK + 3, 2
        data = sample_dataset(make_spherical_spec(p, 1.0), n, RngStream(23, 1))
        base = os.path.join(tmp_path, "cut")
        bin_path, _ = write_dataset(data, base)
        with open(bin_path, "r+b") as fh:
            fh.truncate(8 * n * p - 8)
        with monkeypatch.context() as m:
            m.setattr(datagen.os, "fstat", lambda fd: SimpleNamespace(st_size=8 * n * p))
            with pytest.raises(DimensionMismatchError, match="ended before row"):
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
        header = json.loads(Path(json_path).read_text())
        assert header["r"] == r and header["zeta"] == 0.1
        _, plain = write_dataset(data, os.path.join(tmp_path, "plain"))
        assert "r" not in json.loads(Path(plain).read_text())

    def test_csv_export_full_precision(self, tmp_path):
        spec = make_spherical_spec(2, 1.0)
        data = sample_dataset(spec, 7, RngStream(24, 0))
        path = os.path.join(tmp_path, "out.csv")
        export_csv(data, path)
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == data.points[0, 0]
        assert int(first[2]) == data.labels[0]


# ---------------------------------------------------------------------------
# Golden bytes and the memory contract
# ---------------------------------------------------------------------------

GOLDEN_N = 1300   # not a multiple of datagen's 512-row block


def _golden_spec(name):
    if name == "spherical":
        return make_spherical_spec(23, 0.8, sigma=1.7, w=0.3)
    if name == "rank":
        return make_rank_spec(40, 0.6, 0.1, RngStream(5, 1))[0]
    if name == "mixed3":
        p = 10
        variances = [np.full(p, 1.3), np.linspace(2.0, 0.2, p), np.linspace(0.0, 1.5, p)]
        means = np.zeros((3, p))
        means[1, 0], means[2, 1] = 6.0, -5.0
        return MixtureSpec(means, variances, [0.5, 0.3, 0.2])
    raise KeyError(name)


def _draw(name, shape, n=GOLDEN_N):
    return sample_dataset(_golden_spec(name), n, RngStream(31, 2), shape)


def _digest(array, dtype):
    raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# sha256 prefixes of (points as <f8, labels as <i8).  Every spec scales
# each coordinate on its own, so its bytes involve no BLAS product.
GOLDEN_DIGESTS = {
    ("spherical", "gaussian"): ("c9cb0d766b685352", "6a9f32d727a2e476"),
    ("spherical", "uniform"): ("bc2c95ca89c50d9a", "6a9f32d727a2e476"),
    ("spherical", "laplace"): ("ad04fae28e618faa", "6a9f32d727a2e476"),
    ("spherical", "rademacher"): ("2a871b31bc3b034c", "6a9f32d727a2e476"),
    ("rank", "gaussian"): ("2de87754f1c63126", "ab34523520a06da3"),
    ("rank", "uniform"): ("4b43f5cb49becaa9", "ab34523520a06da3"),
    ("rank", "laplace"): ("496527658a6f375b", "ab34523520a06da3"),
    ("rank", "rademacher"): ("f86a588e93b599c0", "ab34523520a06da3"),
    ("mixed3", "gaussian"): ("cf544a4bf44ac4d0", "e96e3731e9238ad4"),
    ("mixed3", "uniform"): ("358b724fbaa202b3", "e96e3731e9238ad4"),
    ("mixed3", "laplace"): ("244af52af3b4b39f", "e96e3731e9238ad4"),
    ("mixed3", "rademacher"): ("612b03d250e0bd70", "e96e3731e9238ad4"),
}


def _reference_points(spec, n, rng, shape):
    """The generator before it transformed in place: a separate base draw,
    and one fancy-indexed transform per component over all its rows."""
    gen = rng.generator()
    labels = gen.choice(spec.k, size=n, p=spec.weights)
    if shape == "gaussian":
        z = gen.standard_normal((n, spec.p))
    elif shape == "uniform":
        z = gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n, spec.p))
    elif shape == "laplace":
        z = gen.laplace(0.0, 1.0 / math.sqrt(2.0), size=(n, spec.p))
    else:
        z = gen.integers(0, 2, size=(n, spec.p)).astype(float) * 2.0 - 1.0
    points = np.empty((n, spec.p))
    for i in range(spec.k):
        rows = labels == i
        points[rows] = spec.means[i] + z[rows] * np.sqrt(spec.variances[i])
    return points, labels


class TestGoldenBytes:
    @pytest.mark.parametrize("name,shape", sorted(GOLDEN_DIGESTS))
    def test_elementwise_specs_pinned(self, name, shape):
        data = _draw(name, shape)
        got = (_digest(data.points, "<f8"), _digest(data.labels, "<i8"))
        assert got == GOLDEN_DIGESTS[name, shape]

    @pytest.mark.parametrize("n", [7, GOLDEN_N])
    def test_blocked_in_place_matches_reference(self, n):
        # 7 rows fit in one block; the first component's GOLDEN_N rows span two.
        data = _draw("mixed3", "gaussian", n)
        points, labels = _reference_points(
            _golden_spec("mixed3"), n, RngStream(31, 2), "gaussian"
        )
        assert data.points.tobytes() == points.tobytes()
        np.testing.assert_array_equal(data.labels, labels)


def _traced_peak(fn):
    """Run fn() and return (its result, tracemalloc peak above the start)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


class TestMemoryContract:
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # n x p array a call holds at once; 8np bytes is one float64 buffer.
    N, P = 20_000, 200

    @pytest.mark.parametrize("shape,limit", [
        ("gaussian", 1.1), ("uniform", 1.1), ("laplace", 1.1),
        ("rademacher", 2.1),   # the int64 draw is cast to float once
    ])
    def test_sample_holds_one_buffer(self, shape, limit):
        specs = (make_spherical_spec(self.P, 1.0, sigma=1.5, w=0.3),
                 make_rank_spec(self.P, 1.0, 0.2, RngStream(40, 1))[0])
        for spec in specs:
            data, peak = _traced_peak(
                lambda: sample_dataset(spec, self.N, RngStream(40, 0), shape)
            )
            assert data.points.shape == (self.N, self.P)
            assert peak / (8 * self.N * self.P) <= limit

    def test_write_copies_nothing(self, tmp_path):
        spec = make_spherical_spec(self.P, 1.0)
        data = sample_dataset(spec, self.N, RngStream(41, 0))
        base = os.path.join(tmp_path, "mem")
        _, peak = _traced_peak(lambda: write_dataset(data, base, k=2))
        assert peak / (8 * self.N * self.P) <= 0.05
        np.testing.assert_array_equal(read_dataset(base).points, data.points)

    def test_read_holds_one_buffer(self, tmp_path):
        spec = make_spherical_spec(self.P, 1.0)
        data = sample_dataset(spec, self.N, RngStream(42, 0))
        base = os.path.join(tmp_path, "mem")
        write_dataset(data, base, k=2)
        back, peak = _traced_peak(lambda: read_dataset(base))
        assert back.points.flags.f_contiguous
        assert peak / (8 * self.N * self.P) <= 1.1
        np.testing.assert_array_equal(back.points, data.points)

    def test_write_of_read_back_copies_nothing(self, tmp_path):
        spec = make_spherical_spec(self.P, 1.0)
        data = sample_dataset(spec, self.N, RngStream(43, 0))
        first, _ = write_dataset(data, os.path.join(tmp_path, "first"), k=2)
        back = read_dataset(first)
        again = os.path.join(tmp_path, "again")
        (second, _), peak = _traced_peak(lambda: write_dataset(back, again, k=2))
        assert peak / (8 * self.N * self.P) <= 0.05
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("view", ["transposed", "strided"])
def test_write_noncontiguous_points_as_row_major(tmp_path, view):
    from projclust.model import Dataset
    values = np.arange(1.0, 97.0).reshape(8, 12) / 7.0
    points = values[:6, :8].T if view == "transposed" else values[::2, ::3]
    assert not points.flags.c_contiguous
    ds = Dataset(points)
    bin_path, _ = write_dataset(ds, os.path.join(tmp_path, view), k=2)
    with open(bin_path, "rb") as fh:
        assert fh.read() == np.ascontiguousarray(points).astype("<f8").tobytes()
    np.testing.assert_array_equal(read_dataset(bin_path).points, points)
