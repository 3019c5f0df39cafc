"""Projection operations: exactness, determinism, distributional laws."""

import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from projclust import projection
from projclust.bounds import spherical_direction_prob
from projclust.datagen import make_spherical_spec
from projclust.errors import DimensionMismatchError, DomainError
from projclust.mathkit import RngStream, q_function
from projclust.model import Dataset, MixtureSpec
from projclust.projection import (
    project_block,
    projected_mixture,
    sample_direction,
    separability_1d,
)


def direct_gamma(spec, directions):
    """Oracle for the projected separation of a two-spherical-component
    spec: |<dm, A>| / ((s1+s2) ||A||), vectorised over direction rows."""
    dm = spec.means[0] - spec.means[1]
    s1 = math.sqrt(spec.variances[0, 0])
    s2 = math.sqrt(spec.variances[1, 0])
    return np.abs(directions @ dm) / ((s1 + s2) * np.linalg.norm(directions, axis=1))


class TestSampleDirection:
    def test_deterministic(self):
        a = sample_direction(3, RngStream(42, 0).generator())
        b = sample_direction(3, RngStream(42, 0).generator())
        np.testing.assert_array_equal(a, b)

    def test_zero_dim_rejected(self):
        with pytest.raises(DomainError):
            sample_direction(0, RngStream(0, 0).generator())

    def test_norm_squared_concentration(self):
        p = 10_000
        vals = [
            float(np.sum(sample_direction(p, RngStream(1, i).generator()) ** 2)) / p
            for i in range(100)
        ]
        assert abs(float(np.mean(vals)) - 1.0) <= 0.01

    def test_coordinate_mean(self):
        total, count = 0.0, 0
        for i in range(100):
            a = sample_direction(10_000, RngStream(2, i).generator())
            total += float(np.sum(a))
            count += a.size
        assert abs(total / count) <= 0.003


class TestProject:
    def test_axis_projections(self):
        data = Dataset(np.array([[1.0, 2.0]]))
        assert project_block(data, np.eye(2))[:, 0].tolist() == [1.0, 2.0]

    def test_dimension_mismatch(self):
        data = Dataset(np.zeros((1, 2)))
        with pytest.raises(DimensionMismatchError):
            project_block(data, np.array([[1.0, 0.0, 0.0]]))

    def test_values_match_fsum_oracle(self):
        gen = RngStream(3, 0).generator()
        points = gen.standard_normal((5, 300))
        direction = gen.standard_normal(300)
        values = project_block(Dataset(points),
                               direction[np.newaxis])[0]
        for j in range(5):
            exact = math.fsum(points[j] * direction)
            assert values[j] == pytest.approx(exact, rel=1e-9)

    def test_sample_mean_of_projection(self):
        p, n, sigma = 30, 40_000, 1.0
        mean = np.full(p, 0.7)
        gen = RngStream(4, 0).generator()
        points = mean + sigma * gen.standard_normal((n, p))
        direction = gen.standard_normal(p)
        values = project_block(Dataset(points),
                               direction[np.newaxis])[0]
        expected = float(mean @ direction)
        slack = 4.0 * sigma * float(np.linalg.norm(direction)) / math.sqrt(n)
        assert abs(float(np.mean(values)) - expected) <= slack


# Child run at one BLAS thread: the split of each block is forced, and
# every product must equal the unsplit one byte for byte.  At n=5,000,
# p=200 a split at row 2,500 changes bits for 2-, 13- and 64-row blocks.
SPLIT_PROBE = """
import json, os
import numpy as np
from projclust import projection
from projclust.model import Dataset
projection.SPLIT_MIN_WORK = 0
os.sched_getaffinity = lambda pid: {0, 1}
gen = np.random.default_rng(0)
mismatches = []
for n, p in ((5000, 200), (4001, 333)):
    full = gen.standard_normal((2 * n, p))
    views = {"C": full[:n].copy(), "F": np.asfortranarray(full[:n]),
             "row-slice": full[:n], "reshape": full.reshape(n, 2 * p)}
    for layout, points in views.items():
        for rows in (1, 2, 13, 64):
            dirs = gen.standard_normal((rows, points.shape[1]))
            split = projection.project_block(Dataset(points), dirs)
            if split.tobytes() != (dirs @ points.T).tobytes():
                mismatches.append([n, p, layout, rows])
print(json.dumps(mismatches))
"""


@pytest.fixture
def two_cores(monkeypatch):
    """Split every block product: no work floor and two usable cores."""
    monkeypatch.setattr(projection, "SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def no_thread(*args, **kwargs):
    raise AssertionError("project_block started a thread")


def integer_block(n=300, p=7, rows=3):
    """Small-integer points and directions: every partial sum is exact, so
    any summation order gives the same bits."""
    gen = np.random.default_rng(8)
    points = gen.integers(-8, 9, size=(n, p)).astype(float)
    return Dataset(points), gen.integers(-8, 9, size=(rows, p)).astype(float)


class TestSplit:
    def test_byte_identical_to_one_product_at_one_blas_thread(self, child_env):
        env = child_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", SPLIT_PROBE], capture_output=True,
            text=True, env=env, timeout=300, check=True,
        )
        assert json.loads(proc.stdout) == []

    def test_split_joins_its_thread(self, monkeypatch, two_cores):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        data, dirs = integer_block()
        before = threading.active_count()
        out = project_block(data, dirs)
        assert len(started) == 1
        assert threading.active_count() == before
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, dirs @ data.points.T)

    def test_one_core_starts_no_thread(self, monkeypatch, two_cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(threading, "Thread", no_thread)
        data, dirs = integer_block()
        np.testing.assert_array_equal(project_block(data, dirs), dirs @ data.points.T)

    def test_below_the_floor_starts_no_thread(self, monkeypatch, two_cores):
        data, dirs = integer_block()
        monkeypatch.setattr(projection, "SPLIT_MIN_WORK", data.n * data.p + 1)
        monkeypatch.setattr(threading, "Thread", no_thread)
        np.testing.assert_array_equal(project_block(data, dirs), dirs @ data.points.T)

    def test_dimension_mismatch_before_any_thread(self, monkeypatch, two_cores):
        monkeypatch.setattr(threading, "Thread", no_thread)
        data, _ = integer_block()
        with pytest.raises(DimensionMismatchError):
            project_block(data, np.ones((1, data.p + 1)))

    def test_upper_half_error_raised_to_the_caller(self, monkeypatch, two_cores):
        matmul = np.matmul

        def upper_fails(a, b, out):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("upper half")
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", upper_fails)
        data, dirs = integer_block()
        before = threading.active_count()
        with pytest.raises(MemoryError, match="upper half"):
            project_block(data, dirs)
        assert threading.active_count() == before


class TestProjectedMixture:
    def test_spherical_variance_exact(self):
        spec = make_spherical_spec(8, 1.0, sigma=1.3)
        a = sample_direction(8, RngStream(5, 0).generator())
        mix = projected_mixture(spec, a)
        assert mix.sigma1 == pytest.approx(1.3, rel=1e-15, abs=0.0)
        assert mix.sigma2 == pytest.approx(1.3, rel=1e-15, abs=0.0)

    def test_spherical_sigma_is_closed_form_at_large_p(self):
        # sum(sigma^2 * a_i^2) / ||a||^2 rounds once per term; the closed
        # form is sigma whatever the direction.
        spec = make_spherical_spec(1000, 1.0, sigma=0.7)
        for i in range(50):
            a = sample_direction(1000, RngStream(5, i).generator())
            mix = projected_mixture(spec, a)
            assert mix.sigma1 == mix.sigma2 == pytest.approx(0.7, rel=1e-15, abs=0.0)

    def test_quadratic_form_consistency(self):
        gen = np.random.default_rng(5)
        variances = np.abs(gen.standard_normal((2, 5)))
        variances[1, 2] = 0.0
        spec = MixtureSpec(np.zeros((2, 5)), variances, [0.5, 0.5])
        v = gen.standard_normal(5)
        mix = projected_mixture(spec, v)
        for sigma, var in zip((mix.sigma1, mix.sigma2), variances):
            dense = float(v @ np.diag(var) @ v) / float(v @ v)
            assert sigma**2 == pytest.approx(dense, rel=1e-12)

    def test_aligned_direction_hits_c_sqrt_p(self):
        p, c = 16, 0.75
        spec = make_spherical_spec(p, c)
        aligned = spec.means[1] - spec.means[0]
        mix = projected_mixture(spec, aligned)
        assert separability_1d(mix) == pytest.approx(c * math.sqrt(p), rel=1e-12)

    def test_orthogonal_direction_equalises_means(self):
        spec = make_spherical_spec(6, 1.0)
        a = np.zeros(6)
        a[3] = 2.0
        mix = projected_mixture(spec, a)
        assert mix.mu1 == mix.mu2

    def test_zero_direction_rejected(self):
        spec = make_spherical_spec(4, 1.0)
        with pytest.raises(DomainError):
            projected_mixture(spec, np.zeros(4))

    def test_zero_projected_variance_is_a_point_mass(self):
        # The pushforward is exact, not a fit: nothing floors a component
        # with no variance along the direction.
        variances = np.ones((2, 3))
        variances[1, 0] = 0.0
        spec = MixtureSpec(np.zeros((2, 3)), variances, [0.5, 0.5])
        assert projected_mixture(spec, np.ones(3)).sigma2 == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-15)
        with pytest.raises(DomainError, match="sigmas must be positive"):
            projected_mixture(spec, np.array([2.0, 0.0, 0.0]))

    def test_pair_weight_renormalised(self):
        # Components 0 and 1 of three: w0 / (w0 + w1).
        spec = MixtureSpec(np.zeros((3, 4)), np.ones((3, 4)), [0.2, 0.3, 0.5])
        mix = projected_mixture(spec, np.ones(4))
        assert mix.w == pytest.approx(0.2 / 0.5)


class TestSeparability1D:
    @pytest.mark.parametrize(
        "mu1,mu2,s1,s2,expected",
        [(0.0, 2.0, 1.0, 1.0, 1.0), (5.0, 5.0, 0.7, 0.7, 0.0),
         (0.0, 3.0, 1.0, 2.0, 1.0)],
    )
    def test_values(self, mu1, mu2, s1, s2, expected):
        from projclust.model import Mixture1D
        assert separability_1d(Mixture1D(mu1, mu2, s1, s2, 0.5)) == pytest.approx(
            expected, abs=1e-15
        )

    def test_scale_invariance(self):
        spec = make_spherical_spec(10, 1.0)
        a = sample_direction(10, RngStream(6, 0).generator())
        base = separability_1d(projected_mixture(spec, a))
        for lam in (2.0, -3.0, 1e-6, 1e6):
            scaled = separability_1d(projected_mixture(spec, lam * a))
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_rotation_invariance(self):
        p = 12
        gen = np.random.default_rng(31)
        q, r = np.linalg.qr(gen.standard_normal((p, p)))
        rot = q * np.sign(np.diag(r))
        spec = make_spherical_spec(p, 1.2)
        spec_rot = MixtureSpec(spec.means @ rot.T, spec.variances, spec.weights)
        a = sample_direction(p, RngStream(7, 0).generator())
        g1 = separability_1d(projected_mixture(spec, a))
        g2 = separability_1d(projected_mixture(spec_rot, rot @ a))
        assert g2 == pytest.approx(g1, abs=1e-9)


class TestDirectionLaws:
    """Distributional facts about the projected separation."""

    def setup_method(self):
        self.p, self.c = 1000, 1.0
        self.spec = make_spherical_spec(self.p, self.c)

    def test_product_matches_direct_formula(self):
        dirs = np.stack(
            [sample_direction(self.p, RngStream(8, i).generator()) for i in range(200)]
        )
        oracle = direct_gamma(self.spec, dirs)
        product = np.array(
            [separability_1d(projected_mixture(self.spec, d)) for d in dirs]
        )
        np.testing.assert_allclose(product, oracle, rtol=1e-9)

    def _gammas(self, total=100_000):
        out = np.empty(total)
        done = 0
        for i in range(1000):
            if done >= total:
                break
            todo = min(5000, total - done)
            gen = RngStream(9, i).generator()
            dirs = gen.standard_normal((todo, self.p))
            out[done: done + todo] = direct_gamma(self.spec, dirs)
            done += todo
        return out

    def test_mean_square_separation_equals_c_squared(self):
        gammas = self._gammas()
        mean_sq = float(np.mean(gammas**2))
        assert abs(mean_sq - self.c**2) <= 0.02 * self.c**2

    def test_exceedance_mass_above_c(self):
        gammas = self._gammas()
        frac = float(np.mean(gammas > self.c))
        assert 0.25 < frac < 0.45
        # Cross-check against the closed-form lower bound at optimised tau.
        report = spherical_direction_prob(self.c, self.c, self.p)
        assert report.value <= frac + 3.0 * math.sqrt(frac * (1 - frac) / gammas.size)
        # and the limit form 2Q(1) is the right scale
        assert abs(frac - 2.0 * q_function(1.0)) < 0.05


class TestExtendedPrecisionPath:
    def test_large_p_projection(self):
        p = 100_001
        gen = RngStream(10, 0).generator()
        points = gen.standard_normal((3, p))
        direction = gen.standard_normal(p)
        values = project_block(Dataset(points),
                               direction[np.newaxis])[0]
        for j in range(3):
            exact = math.fsum(points[j] * direction)
            assert values[j] == pytest.approx(exact, rel=1e-9)
