"""Synthetic mixture generators and dataset file I/O.

Generators place the mean difference along a single populated coordinate
so the requested high-dimensional separation is achieved exactly and
sampling stays O(np).

The rank-controlled generator reserves a shared block of ceil(zeta*p)
unit-variance coordinates common to both components, plus one further
disjoint block of the same size per component (disjoint from the shared
block and from each other, truncated when the blocks run out of
coordinates).  The rank of the summed covariances is therefore exactly
min(3*ceil(zeta*p), p) and is returned alongside the spec.

``sample_dataset`` is the one sampler.  It draws coordinates of any of
the zero-mean unit-variance ``SHAPES`` into one n x p float64 buffer (two
for the rademacher shape, whose integer draw is cast once), which becomes
``Dataset.points``.  Its rows are scaled and shifted in place by their
own component's standard deviations and mean, ROW_BLOCK rows at a time,
so a sample holds that buffer plus two blocks whatever the spec.

Dataset files are a raw little-endian float64 row-major payload plus a
JSON sidecar header ``{n, p, k, seed, generator, labels?}``.  Both the
write and the read stream the payload ROW_BLOCK rows at a time.  Writing
row-major points copies nothing; points of any other layout are copied
one block at a time.  Reading returns column-major (Fortran-order)
points, the layout the scan's projection kernel reads fastest: each
block read from the file is stored into the preallocated n x p result,
so a read holds that buffer plus one block.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .mathkit import RngStream
from .model import Dataset, MixtureSpec, Provenance

# Coordinate shapes that ``sample_dataset`` draws.
SHAPES = ("gaussian", "uniform", "laplace", "rademacher")
ROW_BLOCK = 512
# Stream, under a master seed, that places a rank spec's coordinate blocks.
RANK_SPEC_STREAM = 42


def make_spherical_spec(
    p: int, c: float, sigma: float = 1.0, w: float = 0.5
) -> MixtureSpec:
    """Two spherical components with separation exactly c.

    Means are 0 and (2*c*sqrt(p)*sigma, 0, ..., 0); both covariances are
    sigma^2 * I.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if not 0.0 <= c < math.inf:
        raise DomainError(f"c must be nonnegative and finite, got {c}")
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 < w < 1.0:
        raise DomainError("w must lie in (0, 1)")
    means = np.zeros((2, p))
    means[1, 0] = 2.0 * c * math.sqrt(p) * sigma
    variances = np.full((2, p), sigma * sigma)
    return MixtureSpec(means, variances, np.array([w, 1.0 - w]))


def make_rank_spec(
    p: int, c: float, zeta: float, rng: RngStream
) -> tuple[MixtureSpec, int]:
    """Rank-controlled two-component spec; returns (spec, rank(S1+S2)).

    A fraction ``zeta`` of the coordinates is shared by both components
    with unit variance; each component additionally populates a disjoint
    block of the same size, and ``rng`` draws all three blocks uniformly.
    The mean difference lies along the first shared coordinate so the
    separation is exactly c (both components have lambda_max = 1).
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if not 0.0 <= c < math.inf:
        raise DomainError(f"c must be nonnegative and finite, got {c}")
    if not 0.0 < zeta <= 1.0:
        raise DomainError("zeta must lie in (0, 1]")
    block = math.ceil(zeta * p)
    if block < 1:
        raise DomainError("zeta * p must be at least 1")
    perm = rng.generator().permutation(p)
    shared = perm[:block]
    own1 = perm[block: min(2 * block, p)]
    own2 = perm[min(2 * block, p): min(3 * block, p)]

    eig1 = np.zeros(p)
    eig1[shared] = 1.0
    eig1[own1] = 1.0
    eig2 = np.zeros(p)
    eig2[shared] = 1.0
    eig2[own2] = 1.0
    rank = int(np.count_nonzero(eig1 + eig2))

    means = np.zeros((2, p))
    means[1, shared[0]] = 2.0 * c * math.sqrt(p)
    spec = MixtureSpec(means, np.stack([eig1, eig2]), np.array([0.5, 0.5]))
    return spec, rank


def _draw_base(gen: np.random.Generator, n: int, p: int, shape: str) -> np.ndarray:
    if shape == "gaussian":
        return gen.standard_normal((n, p))
    if shape == "uniform":
        half = math.sqrt(3.0)
        return gen.uniform(-half, half, size=(n, p))
    if shape == "laplace":
        return gen.laplace(0.0, 1.0 / math.sqrt(2.0), size=(n, p))
    z = gen.integers(0, 2, size=(n, p)).astype(float)   # rademacher
    z *= 2.0
    z -= 1.0
    return z


def sample_dataset(
    spec: MixtureSpec, n: int, rng: RngStream, shape: str = "gaussian"
) -> Dataset:
    """Draw n labelled points from the mixture, with coordinates of the
    named zero-mean unit-variance ``shape`` (one of ``SHAPES``) scaled and
    shifted so the mixture's first two moments match the spec exactly."""
    if shape not in SHAPES:
        raise DomainError(f"shape must be one of {SHAPES}")
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = rng.generator()
    labels = gen.choice(spec.k, size=n, p=spec.weights)
    points = _draw_base(gen, n, spec.p, shape)
    # Each row is scaled and shifted by its own component's parameters.
    sd = np.sqrt(spec.variances)
    for start in range(0, n, ROW_BLOCK):
        rows = points[start:start + ROW_BLOCK]
        block_labels = labels[start:start + ROW_BLOCK]
        rows *= sd[block_labels]
        rows += spec.means[block_labels]
    generator_id = f"{shape}:stream={rng.stream_index}"
    return Dataset(points, labels, Provenance(seed=rng.master_seed, generator=generator_id))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _base_path(path: str) -> str:
    return path[:-4] if path.endswith(".bin") else path


def write_dataset(
    dataset: Dataset, path: str, k: int | None = None,
    r: int | None = None, zeta: float | None = None,
) -> tuple[str, str]:
    """Write ``<path>.bin`` (little-endian float64, row-major) and
    ``<path>.json`` (sidecar header, with the rank ``r`` and ``zeta`` of a
    rank-controlled spec when given).  Returns the two file names."""
    base = _base_path(path)
    bin_path, json_path = base + ".bin", base + ".json"
    with open(bin_path, "wb") as fh:
        for start in range(0, dataset.n, ROW_BLOCK):
            rows = dataset.points[start:start + ROW_BLOCK]
            np.ascontiguousarray(rows, dtype="<f8").tofile(fh)
    if k is None:
        k = int(dataset.labels.max()) + 1 if dataset.labels is not None else 2
    header = {
        "n": dataset.n,
        "p": dataset.p,
        "k": k,
        "seed": dataset.provenance.seed if dataset.provenance else None,
        "generator": dataset.provenance.generator if dataset.provenance else None,
    }
    if dataset.labels is not None:
        header["labels"] = dataset.labels.tolist()
    if r is not None:
        header["r"] = r
    if zeta is not None:
        header["zeta"] = zeta
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
    return bin_path, json_path


def read_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`write_dataset`; its points are
    column-major."""
    base = _base_path(path)
    bin_path, json_path = base + ".bin", base + ".json"
    with open(json_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    n, p = int(header["n"]), int(header["p"])
    with open(bin_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if n < 0 or p < 0 or size != 8 * n * p:
            raise DimensionMismatchError(
                f"payload holds {size} bytes, header says {n}x{p} float64 values"
            )
        points = np.empty((n, p), order="F")
        block = np.empty((min(ROW_BLOCK, n), p), dtype="<f8")
        for start in range(0, n, ROW_BLOCK):
            rows = block[:n - start]
            # A file cut short after the size check must not leave the
            # previous block's values in points.
            if fh.readinto(rows) != rows.nbytes:
                raise DimensionMismatchError(
                    f"payload ended before row {start + len(rows)} of {n}"
                )
            points[start:start + len(rows)] = rows
    labels = header.get("labels")
    labels = None if labels is None else np.asarray(labels, dtype=int)
    seed = header.get("seed")
    provenance = None
    if seed is not None:
        provenance = Provenance(seed=int(seed), generator=header.get("generator") or "")
    return Dataset(points, labels, provenance)


def export_csv(dataset: Dataset, path: str) -> str:
    """Full-precision CSV export (header row, one point per row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"x{j}" for j in range(dataset.p)]
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.points[i]]
            if dataset.labels is not None:
                row.append(int(dataset.labels[i]))
            writer.writerow(row)
    return path
