"""Child process for the runtime-scaling check.

Usage: python perf_probe.py
Draws one 200,000 x 1000 sample and times a 20-direction scan with the
moment learner on three views of its buffer: the first 100,000 rows
(base), all rows (2n) and the whole buffer as 100,000 x 2000 (2p).  The
shapes are timed in interleaved rounds, so a change in host speed during
the run hits all three alike, and the best of 7 rounds per shape is
printed as JSON {"base": s, "2n": s, "2p": s}.  Run with BLAS thread caps
in the environment: BLAS then runs on one thread, and at these shapes
the projection kernel splits each block product over two threads of its
own, so the timings use both cores of a two-core host.
"""

import json
import time

from projclust.clusterer import ClusterConfig, cluster_gmm
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.mathkit import RngStream
from projclust.model import Dataset


def main(n: int = 100_000, p: int = 1000, budget: int = 20, runs: int = 7) -> None:
    points = sample_dataset(make_spherical_spec(p, 1.0), 2 * n, RngStream(0, 0)).points
    shapes = {
        "base": Dataset(points[:n]),
        "2n": Dataset(points),
        "2p": Dataset(points.reshape(n, 2 * p)),
    }
    cfg = ClusterConfig(
        target_error=1e-12, budget=budget, learner="mom", seed=1
    )
    best = dict.fromkeys(shapes, float("inf"))
    for _ in range(runs):
        for name, data in shapes.items():
            start = time.perf_counter()
            outcome = cluster_gmm(data, cfg)
            best[name] = min(best[name], time.perf_counter() - start)
            assert outcome.projections_used == budget
    print(json.dumps(best))


if __name__ == "__main__":
    main()
